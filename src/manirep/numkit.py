"""Dense matrix kernel: JSON interchange, tolerant rank, bases, Takagi and Youla forms.

Standard factorizations (QR, Hermitian eigendecomposition, SVD) are taken
from numpy.  This module adds the two congruence canonical forms the rest
of the library needs but the stack does not provide:

* ``takagi``      -- X = U diag(sigma) U^T for complex symmetric X,
* ``youla_skew``  -- X = Q diag(lambda_1 * Omega_2, ..., 0) Q^T for skew X,

each read off one decomposition (a Hermitian eigendecomposition of a real
symmetric 2n x 2n matrix for Takagi, an SVD of X for Youla) and completed
to a unitary by the trailing columns of one complete QR.
``above_cutoff`` is the one rank rule, used wherever a rank or block size is
decided.  ``numerical_rank`` splits X into the connected blocks of its
nonzero pattern (rows and columns joined by nonzero entries), takes one
batched SVD per block shape and applies ``above_cutoff`` once to all their
singular values, so one cutoff holds for every block.  The same label
propagation (``_labels``) gives the single-linkage ``clusters`` of a set of
eigenvalues, the one clustering rule.  Bases are built one
way: a span of unit matrices (``unit_stack``) cut by linear conditions
(``span_kernel``), kept read-only in one bounded LRU (``cached_basis``).
Apart from that cache all functions are pure.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceFailure, InvalidInput, NonFinite, NotSkew, NotSymmetric,
                     RankAmbiguous, SizeMismatch)

REAL = "R"
COMPLEX = "C"

ALL, SYM, SKEW, HERMITIAN, ANTI_HERMITIAN = "all", "sym", "skew", "hermitian", "anti-hermitian"

#: relative singular-value cutoff of the condition systems in ``span_kernel``
KERNEL_RCOND = 1e-11
#: bases kept by ``cached_basis``: the Lie bases of a six-group census and a
#: few more; bounded, because bases twisted by fresh forms never repeat
BASIS_CACHE_SIZE = 8

#: 2x2 rotation generator; building block of skew canonical forms.
OMEGA2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair used for all rank-type decisions."""

    abs_eps: float = 1e-10
    rel_eps: float = 1e-8

    def __post_init__(self):
        if self.abs_eps < 0 or self.rel_eps < 0:
            raise ValueError("tolerances must be nonnegative")

    def cutoff(self, scale: float) -> float:
        return max(self.abs_eps, self.rel_eps * scale)


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True, eq=False)
class Mat:
    """A dense matrix tagged with its base field, for JSON interchange.

    Library functions operate on plain ndarrays (float64 for field ``R``,
    complex128 for ``C``); ``Mat`` exists so files and CLI payloads carry an
    unambiguous field tag.  ``data`` is a (rows * cols, 2) float array of the
    (re, im) pairs in row-major order, the layout of the JSON ``data`` list.
    """

    rows: int
    cols: int
    field: str
    data: np.ndarray

    @staticmethod
    def from_array(a: np.ndarray, field: str | None = None) -> "Mat":
        a = np.atleast_2d(np.asarray(a))
        if field is None:
            field = COMPLEX if np.iscomplexobj(a) else REAL
        if field == REAL and np.iscomplexobj(a):
            if np.abs(a.imag).max(initial=0.0) != 0.0:
                raise SizeMismatch("real-field matrix has nonzero imaginary part")
            a = a.real
        data = np.stack([a.real, a.imag], -1).reshape(-1, 2).astype(float, copy=False)
        return Mat(rows=a.shape[0], cols=a.shape[1], field=field, data=data)

    def to_array(self) -> np.ndarray:
        re = self.data[:, 0].reshape(self.rows, self.cols)
        if self.field == REAL:
            return re.copy()
        return re + 1j * self.data[:, 1].reshape(self.rows, self.cols)

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "field": self.field,
            "data": self.data.tolist(),
        }

    @staticmethod
    def from_json(obj: dict) -> "Mat":
        try:
            field = obj["field"]
            if field not in (REAL, COMPLEX):
                raise SizeMismatch(f"unknown field tag {field!r}")
            data = np.asarray(obj["data"], float)
            rows, cols = obj["rows"], obj["cols"]
        except OverflowError as exc:  # a JSON integer beyond the float range
            raise NonFinite(f"matrix has an entry beyond the float range: {exc}") from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"not a matrix object: {exc!r}") from exc
        if data.shape[1:] != (2,) and data.shape != (0,):
            raise InvalidInput(f"matrix data is not a list of [re, im] pairs: shape {data.shape}")
        if not np.isfinite(data).all():
            if any(x is None for entry in obj["data"] for x in entry):  # numpy reads null as nan
                raise InvalidInput("matrix has a null entry")
            raise NonFinite("matrix has a NaN or infinite entry")
        if type(rows) is not int or type(cols) is not int:  # bool is an int subclass
            raise InvalidInput("matrix sizes must be JSON integers, got "
                               f"{type(rows).__name__} x {type(cols).__name__}")
        if rows < 0 or cols < 0:
            raise InvalidInput(f"negative matrix size {rows} x {cols}")
        if rows * cols != len(data):
            raise SizeMismatch("rows*cols does not match entry count")
        data = data.reshape(-1, 2)
        if field == REAL and data[:, 1].any():
            raise SizeMismatch("real-field matrix has nonzero imaginary part")
        return Mat(rows=rows, cols=cols, field=field, data=data)


def mat_to_json(a: np.ndarray, field: str | None = None) -> dict:
    return Mat.from_array(a, field).to_json()


def mat_from_json(obj: dict) -> np.ndarray:
    return Mat.from_json(obj).to_array()


def frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def require_square(X: np.ndarray) -> int:
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise SizeMismatch(f"expected a square matrix, got shape {X.shape}")
    return X.shape[0]


def numerical_rank(X: np.ndarray, tol: Tolerance = DEFAULT_TOL, *, strict: bool = False) -> int:
    """Number of singular values of X that ``above_cutoff`` keeps.

    X is ranked one connected block at a time (``_blocks``): some row and
    column permutation makes X block diagonal, and its singular values are
    those of the blocks.  Blocks of one shape take one batched SVD, and one
    ``above_cutoff`` call sees the singular values of all blocks, so one
    cutoff, ``tol.cutoff`` of the largest over all blocks, holds for every
    block, as for the dense SVD.  A complex X with zero imaginary part is
    ranked as the real matrix it is.
    """
    X = np.asarray(X)
    real = not (np.iscomplexobj(X) and X.imag.any())
    X = X.real.astype(float, copy=False) if real else X.astype(complex, copy=False)
    s = [np.linalg.svd(B, compute_uv=False).ravel() for B in _blocks(X)]
    return int(above_cutoff(np.concatenate([np.zeros(0), *s]), tol, strict=strict).sum())


def _labels(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Component labels of the rows and columns of a 2-d X, by label propagation.

    Rows and columns are the nodes of a bipartite graph with an edge at each nonzero entry.
    Labels are row numbers.  A pass gives each column the least label of its rows and stops
    once the columns of each row share one label, which is then the label of the row's
    component.  Otherwise each row and the row its label names take the least label of the
    row's columns, and each row its label's label, so labels only fall, stay inside their
    component, and meet in a few passes.  Each component ends labelled by its least row;
    all-zero rows and columns, in no component, get the label ``len(X)``."""
    m, n = X.shape
    flat = np.flatnonzero(X != 0)  # row by row, so each row's edges are one run
    bounds = np.searchsorted(flat, np.arange(m + 1) * n)
    counts = np.diff(bounds)
    live = np.flatnonzero(counts)
    starts = bounds[live]
    c = flat - np.repeat(np.arange(m) * n, counts)
    rl, cl = np.arange(m), np.full(n, m)
    while True:
        np.minimum.at(cl, c, np.repeat(rl, counts))
        ends = cl[c]
        lo = np.minimum.reduceat(ends, starts)
        if np.array_equal(lo, np.maximum.reduceat(ends, starts)):
            break
        np.minimum.at(rl, rl[live], lo)
        rl[live] = np.minimum(rl[live], lo)
        rl = rl[rl]
    rl = np.full(m, m)
    rl[live] = lo
    return rl, cl


def _blocks(X: np.ndarray):
    """The connected blocks of a 2-d X, as one (k, p, q) stack per block shape.

    A block is X on the rows and columns of one component of ``_labels``, blocks in label
    order.  All-zero rows and columns, whose singular values are 0, are in no block.  A
    block spanning every row and column is X itself, not a copy."""
    m, n = X.shape
    rl, cl = _labels(X)
    if m and not (rl.any() or cl.any()):  # one block spanning X: no gather
        yield X[None]
        return
    rows, cols = np.flatnonzero(rl < m), np.flatnonzero(cl < m)
    rows = rows[np.argsort(rl[rows], kind="stable")]
    cols = cols[np.argsort(cl[cols], kind="stable")]
    p, q = np.bincount(rl[rows], minlength=m), np.bincount(cl[cols], minlength=m)
    p, q = p[p > 0], q[q > 0]  # rows and columns of each block, blocks in label order
    r0, c0 = np.cumsum(p) - p, np.cumsum(q) - q
    shape = p * (n + 1) + q
    for key in np.unique(shape):
        k = shape == key
        yield X[rows[r0[k, None] + np.arange(key // (n + 1))][:, :, None],
                cols[c0[k, None] + np.arange(key % (n + 1))][:, None, :]]


def clusters(values: np.ndarray, radius: float) -> list[np.ndarray]:
    """Single-linkage clusters of finite real or complex values: the components of the graph
    joining v_i and v_j when |v_i - v_j| <= radius, found by ``_labels``.  Each cluster is an
    ascending index array; clusters are ordered by their least index."""
    v = np.ravel(values)
    if not v.size:
        return []
    labels = _labels(np.abs(v[:, None] - v) <= radius)[0]
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


def above_cutoff(
    s: np.ndarray, tol: Tolerance = DEFAULT_TOL, *, strict: bool = False
) -> np.ndarray:
    """Mask of the values with |s_i| above ``max(abs_eps, rel_eps * max |s|)``: the one rank rule.

    With ``strict=True`` a value within ``abs_eps`` of the cutoff and within a factor of two
    of it raises :class:`RankAmbiguous` instead of being silently classified.  The factor keeps
    the band off 0 when the cutoff is ``abs_eps`` itself, so roundoff-level values of a small
    rank-deficient matrix are not ambiguous.
    """
    s = np.abs(np.asarray(s))
    cut = tol.cutoff(s.max(initial=0.0))
    if strict and np.any((np.abs(s - cut) < tol.abs_eps) & (s > cut / 2) & (s < 2 * cut)):
        raise RankAmbiguous(
            f"singular value within {tol.abs_eps:g} of the rank cutoff {cut:g}"
        )
    return s > cut


def unit_stack(part: str, n: int, k: int | None = None) -> np.ndarray:
    """An (m, n, n) stack of unit matrices, row-major: ``ALL`` every E_ij (n x k if k is given),
    ``SYM`` E_ij + E_ji for i <= j, ``SKEW`` E_ij - E_ji for i < j; ``HERMITIAN`` the SYM and
    i * SKEW units and ``ANTI_HERMITIAN`` the SKEW and i * SYM ones, spanning those over R."""
    if part in (HERMITIAN, ANTI_HERMITIAN):
        re, im = (SKEW, SYM) if part == ANTI_HERMITIAN else (SYM, SKEW)
        return np.concatenate([unit_stack(re, n), 1j * unit_stack(im, n)])
    if part == ALL:
        k = n if k is None else k
        return np.eye(n * k).reshape(n * k, n, k)
    i, j = np.triu_indices(n, 0 if part == SYM else 1)
    out = np.zeros((len(i), n, n))
    r = np.arange(len(i))
    out[r, j, i] = 1.0 if part == SYM else -1.0
    out[r, i, j] = 1.0
    return out


def span_kernel(gens: np.ndarray, residuals=(), real: bool = False) -> np.ndarray:
    """Orthonormal (d, p, q) basis of {sum c_i G_i : r(sum c_i G_i) = 0 for r in residuals}.

    ``gens`` is an (m, p, q) stack of independent G_i; each residual is linear from stacks to
    stacks.  The c_i are complex, or real with ``real``; the kernel is cut at ``KERNEL_RCOND``
    and one QR makes it orthonormal under the (with ``real``, real) Frobenius pairing."""
    gens = np.asarray(gens)
    if residuals and len(gens):
        A = np.concatenate([_rows(r(gens), real) for r in residuals], axis=1).T
        _, s, vh = np.linalg.svd(A)
        gens = np.tensordot(vh[np.sum(s > KERNEL_RCOND * s[0]):].conj(), gens, axes=1)
    q = np.ascontiguousarray(np.linalg.qr(_rows(gens, real).T)[0].T)
    return (q.view(complex) if real and np.iscomplexobj(gens) else q).reshape(gens.shape)


def _rows(stack: np.ndarray, real: bool) -> np.ndarray:
    """One row per matrix of a stack; with ``real``, complex entries become (re, im) pairs."""
    rows = np.ascontiguousarray(stack.reshape(len(stack), math.prod(stack.shape[1:])))
    return rows.view(float) if real and np.iscomplexobj(rows) else rows


_bases: OrderedDict = OrderedDict()


def cached_basis(build, desc) -> np.ndarray:
    """``build(desc)`` as a read-only array, kept in one LRU of ``BASIS_CACHE_SIZE`` entries
    keyed by ``build`` and ``desc.cache_key()``."""
    key = (build, desc.cache_key())
    if key not in _bases:
        _bases[key] = np.asarray(build(desc))
        _bases[key].flags.writeable = False
        if len(_bases) > BASIS_CACHE_SIZE:
            _bases.popitem(last=False)
    _bases.move_to_end(key)
    return _bases[key]


def _check_symmetry(X: np.ndarray, sign: float, tol: Tolerance) -> None:
    """Raise unless |X + sign X^T| <= max(abs_eps, rel_eps * max(|X|, 1)) (Frobenius norms).

    Both sides are divided by s = max(max |x_ij|, 1) before any norm is taken, so a norm
    that would overflow cannot turn the test into inf > inf, which passes."""
    s = max(float(np.abs(X).max(initial=0.0)), 1.0)
    Y = X / s
    dev = frob(Y + sign * Y.T)
    bound = max(tol.abs_eps / s, tol.rel_eps * max(frob(Y), 1.0 / s))
    if dev > bound:
        if sign < 0:
            raise NotSymmetric(f"symmetry defect {dev * s:g} exceeds {bound * s:g}")
        raise NotSkew(f"skewness defect {dev * s:g} exceeds {bound * s:g}")


def complete_unitary(Q: np.ndarray) -> np.ndarray:
    """The n x k matrix Q of orthonormal columns followed by an orthonormal basis of its
    orthogonal complement (the trailing columns of a complete QR of Q): an n x n unitary
    (real orthogonal when Q is real)."""
    return np.concatenate([Q, np.linalg.qr(Q, mode="complete")[0][:, Q.shape[1]:]], axis=1)


def takagi(X: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Factor a complex symmetric X as U diag(sigma) U^T, U unitary.

    Returns ``(U, sigma)`` with sigma real nonnegative, sorted descending.
    With X = A + iB, the real-linear map z = x + iy |-> X conj(z) is the real
    symmetric matrix [[A, B], [B, -A]] with eigenvalues +-sigma.  Its
    eigenvectors (x, y) for the eigenvalues above the rank cutoff give Takagi
    vectors x + iy, X conj(u) = sigma u.  They are orthonormal over C even
    when sigma repeats, as i u lies in the -sigma eigenspace; as that holds
    only to eps |X| / (sigma + sigma'), one complete QR restores it for small
    sigma and completes them to a unitary.  A final phase refinement pass
    absorbs roundoff in the diagonal.
    """
    n = require_square(X)
    X = np.asarray(X, dtype=complex)
    _check_symmetry(X, -1.0, tol)
    X = (X + X.T) / 2.0

    w, V = np.linalg.eigh(np.block([[X.real, X.imag], [X.imag, -X.real]]))
    top = above_cutoff(w, tol) & (w > 0)
    U = np.linalg.qr(V[:n, top] + 1j * V[n:, top], mode="complete")[0]
    # refinement: re-read the diagonal of U* X conj(U), absorb residual phases
    d = np.diag(U.conj().T @ X @ U.conj())
    phase = np.ones(n, dtype=complex)
    nz = np.abs(d) > tol.abs_eps
    phase[nz] = np.exp(1j * np.angle(d[nz]) / 2.0)
    U = U @ np.diag(phase)
    sigma = np.abs(np.diag(U.conj().T @ X @ U.conj()))

    order = np.argsort(-sigma)
    sigma = sigma[order]
    U = U[:, order]
    err = frob(U @ np.diag(sigma) @ U.T - X)
    if err > tol.cutoff(max(frob(X), 1.0)) * 10:
        raise ConvergenceFailure(f"reconstruction error {err:g} after refinement")
    return U, sigma


def youla_skew(
    X: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> tuple[np.ndarray, list[float], int]:
    """Canonical form of a skew-symmetric matrix under congruence.

    Returns ``(Q, lams, r)`` with X = Q diag(lams[0]*Omega_2, ...,
    lams[r-1]*Omega_2, 0) Q^T, ``lams`` positive sorted descending, and
    2r the numerical rank of X.  Q is real orthogonal for real input and
    unitary for complex input.

    One SVD X = U S V* gives the rank (``above_cutoff`` on S) and, in the
    kept left singular vectors, the range of X.  The con-linear map
    C(z) = X conj(z) preserves each singular subspace, and for a unit q1 in
    one of them q2 = -C(q1) / lam with lam = |C(q1)| gives
    X conj(q1) = -lam q2 and X conj(q2) = lam q1.  Each q1 is the candidate
    of largest singular value times part left off the planes already taken:
    large lam come first, so q2, which holds roundoff of size eps |X| / lam,
    can be projected off them, and clusters of equal or close lam stay well
    conditioned.  ``complete_unitary`` completes Q and keeps the pair columns
    verbatim, as a phase on a complex pair would change Q Omega Q^T.
    """
    require_square(X)
    X = np.asarray(X)
    _check_symmetry(X, +1.0, tol)
    if np.iscomplexobj(X) and not X.imag.any():
        X = X.real
    Y = (X - X.T) / 2.0
    U, s, _ = np.linalg.svd(Y)
    keep = above_cutoff(s, tol, strict=True)
    if keep.sum() % 2 != 0:
        raise RankAmbiguous("numerical rank of a skew matrix must be even")
    cand, s = U[:, keep], s[keep]
    # pair in Y / 2^e, 2^e near its largest entry, so no norm overflows; dividing by a
    # power of two keeps every digit
    scale = np.ldexp(1.0, int(np.frexp(np.abs(Y).max(initial=0.0))[1]) - 1)
    Y = Y / scale

    Q, pairs = U[:, :0], []
    for _ in range(len(s) // 2):
        w = np.linalg.norm(cand, axis=0)
        j = np.argmax(s * w)
        q1 = cand[:, j] / w[j]
        B = np.column_stack([Q, q1])
        c = Y @ q1.conj()
        c = c - B @ (B.conj().T @ c)
        lam = np.linalg.norm(c)
        P = np.column_stack([q1, -c / lam])
        Q = np.concatenate([Q, P], axis=1)
        cand = cand - P @ (P.conj().T @ cand)
        pairs.append((lam, P))
    pairs.sort(key=lambda t: -t[0])
    Q = complete_unitary(np.concatenate([Q[:, :0], *(P for _, P in pairs)], axis=1))
    return Q, [float(lam * scale) for lam, _ in pairs], len(pairs)


def youla_blocks(lams: list[float], n: int) -> np.ndarray:
    """Assemble diag(lams[0]*Omega_2, ..., 0_{n-2r}) as a dense array."""
    out = np.zeros((n, n))
    for i, lam in enumerate(lams):
        out[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = lam * OMEGA2
    return out
