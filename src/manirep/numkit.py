"""Dense matrix kernel: JSON interchange, tolerant rank, bases, Takagi and Youla forms.

Standard factorizations (QR, Hermitian eigendecomposition, SVD, ``expm``)
are taken from numpy/scipy.  This module adds the two congruence canonical
forms the rest of the library needs but the stack does not provide:

* ``takagi``      -- X = U diag(sigma) U^T for complex symmetric X,
* ``youla_skew``  -- X = Q diag(lambda_1 * Omega_2, ..., 0) Q^T for skew X,

plus the tolerance-based rank rule used everywhere block sizes are decided,
and the one way bases are built: a span of unit matrices (``unit_stack``)
cut by linear conditions (``span_kernel``), kept read-only in one bounded
LRU (``cached_basis``).  Apart from that cache all functions are pure.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import scipy.linalg

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


@dataclass(frozen=True)
class Mat:
    """A dense matrix tagged with its base field, for JSON interchange.

    Library functions operate on plain ndarrays (float64 for field ``R``,
    complex128 for ``C``); ``Mat`` exists so files and CLI payloads carry an
    unambiguous field tag.
    """

    rows: int
    cols: int
    field: str
    data: tuple

    @staticmethod
    def from_array(a: np.ndarray, field: str | None = None) -> "Mat":
        a = np.atleast_2d(np.asarray(a))
        if field is None:
            field = COMPLEX if np.iscomplexobj(a) else REAL
        if field == REAL and np.iscomplexobj(a):
            if np.abs(a.imag).max(initial=0.0) != 0.0:
                raise SizeMismatch("real-field matrix has nonzero imaginary part")
            a = a.real
        data = tuple(
            (float(np.real(x)), float(np.imag(x))) for x in a.ravel(order="C")
        )
        return Mat(rows=a.shape[0], cols=a.shape[1], field=field, data=data)

    def to_array(self) -> np.ndarray:
        re = np.array([d[0] for d in self.data]).reshape(self.rows, self.cols)
        if self.field == REAL:
            return re
        im = np.array([d[1] for d in self.data]).reshape(self.rows, self.cols)
        return re + 1j * im

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "field": self.field,
            "data": [[re, im] for re, im in self.data],
        }

    @staticmethod
    def from_json(obj: dict) -> "Mat":
        try:
            if obj["field"] not in (REAL, COMPLEX):
                raise SizeMismatch(f"unknown field tag {obj['field']!r}")
            data = tuple((float(re), float(im)) for re, im in obj["data"])
            m = Mat(rows=int(obj["rows"]), cols=int(obj["cols"]), field=obj["field"], data=data)
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"not a matrix object: {exc!r}") from exc
        if not all(math.isfinite(x) for entry in data for x in entry):
            raise NonFinite("matrix has a NaN or infinite entry")
        if m.rows * m.cols != len(data):
            raise SizeMismatch("rows*cols does not match entry count")
        if m.field == REAL and any(im != 0.0 for _, im in data):
            raise SizeMismatch("real-field matrix has nonzero imaginary part")
        return m


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
    """Number of singular values above ``max(abs_eps, rel_eps * sigma_max)``.

    With ``strict=True`` a singular value within ``abs_eps`` of the cutoff
    raises :class:`RankAmbiguous` instead of being silently classified.
    A complex X with zero imaginary part is ranked as the real matrix it is.
    """
    X = np.asarray(X)
    real = not (np.iscomplexobj(X) and X.imag.any())
    X = X.real.astype(float, copy=False) if real else X.astype(complex, copy=False)
    if X.size == 0:
        return 0
    s = np.linalg.svd(X, compute_uv=False)
    cut = tol.cutoff(s[0] if s.size else 0.0)
    if strict and np.any(np.abs(s - cut) < tol.abs_eps):
        raise RankAmbiguous(
            f"singular value within {tol.abs_eps:g} of the rank cutoff {cut:g}"
        )
    return int(np.sum(s > cut))


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
    dev = frob(X + sign * X.T)
    bound = max(tol.abs_eps, tol.rel_eps * max(frob(X), 1.0))
    if dev > bound:
        if sign < 0:
            raise NotSymmetric(f"symmetry defect {dev:g} exceeds {bound:g}")
        raise NotSkew(f"skewness defect {dev:g} exceeds {bound:g}")


def takagi(X: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Factor a complex symmetric X as U diag(sigma) U^T, U unitary.

    Returns ``(U, sigma)`` with sigma real nonnegative, sorted descending.
    Works by greedy deflation: each step takes the dominant singular triple
    (sigma, w, v) of the current block, for which X vbar = sigma w and
    X wbar = sigma vbar, so w + vbar (or its i-rotation when that vanishes)
    is a Takagi vector.  Degenerate singular values need no special casing.
    A final phase refinement pass absorbs roundoff in the diagonal.
    """
    n = require_square(X)
    X = np.asarray(X, dtype=complex)
    _check_symmetry(X, -1.0, tol)
    X = (X + X.T) / 2.0

    cols: list[np.ndarray] = []
    basis = np.eye(n, dtype=complex)  # maps current block coords to C^n
    Y = X.copy()
    smax = float(np.linalg.svd(X, compute_uv=False)[0]) if n else 0.0
    zero_cut = tol.cutoff(smax)
    for _ in range(n):
        m = Y.shape[0]
        if m == 0:
            break
        w_, s_, vh_ = np.linalg.svd(Y)
        if s_[0] <= zero_cut:
            # remaining block is numerically zero: any orthonormal completion works
            for j in range(m):
                cols.append(basis[:, j])
            break
        w = w_[:, 0]
        v = vh_[0].conj()
        q = w + v.conj()
        if np.linalg.norm(q) < 0.5:
            q = 1j * (w - v.conj())
        q = q / np.linalg.norm(q)
        cols.append(basis @ q)
        # deflate; the con-linear map z -> X conj(z) compresses as comp* Y conj(comp)
        comp = scipy.linalg.null_space(q.conj().reshape(1, -1))
        basis = basis @ comp
        Y = comp.conj().T @ Y @ comp.conj()
        Y = (Y + Y.T) / 2.0

    U = np.column_stack(cols)
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
    """
    n = require_square(X)
    Xc = np.asarray(X, dtype=complex)
    _check_symmetry(Xc, +1.0, tol)
    is_real = not np.iscomplexobj(np.asarray(X)) or np.abs(Xc.imag).max(initial=0.0) == 0.0

    s = np.linalg.svd(Xc, compute_uv=False)
    cut = tol.cutoff(s[0] if s.size else 0.0)
    if np.any(np.abs(s - cut) < tol.abs_eps):
        raise RankAmbiguous("singular value within abs_eps of the rank cutoff")
    rank = int(np.sum(s > cut))
    if rank % 2 != 0:
        raise RankAmbiguous("numerical rank of a skew matrix must be even")
    r = rank // 2

    if is_real:
        Xr = (Xc.real - Xc.real.T) / 2.0
        # eigenpairs of the Hermitian matrix iX encode the rotation planes
        vals, vecs = np.linalg.eigh(1j * Xr)
        pairs = [(vals[j], vecs[:, j]) for j in range(n) if vals[j] > 0]
        pairs.sort(key=lambda t: -t[0])
        pairs = pairs[:r]
        cols = []
        lams = []
        for lam, w in pairs:
            p, q = w.real, w.imag
            a = q / np.linalg.norm(q)
            b = p / np.linalg.norm(p)
            cols.extend([a, b])
            lams.append(float(lam))
        Qpart = np.column_stack(cols) if cols else np.zeros((n, 0))
        null = scipy.linalg.null_space(Qpart.T) if 2 * r < n else np.zeros((n, 0))
        Q = np.column_stack([Qpart, null]) if null.size else Qpart
        return Q, lams, r

    # complex skew: greedy two-column deflation from dominant singular triples
    cols = []
    lams = []
    basis = np.eye(n, dtype=complex)
    Y = (Xc - Xc.T) / 2.0
    for _ in range(r):
        w_, s_, vh_ = np.linalg.svd(Y)
        sig = float(s_[0])
        w = w_[:, 0]
        v = vh_[0].conj()
        q1 = w
        q2 = v.conj()
        # X qbar1 = -sigma q2 and X qbar2 = sigma q1 hold exactly for skew X
        q2 = q2 - (q1.conj() @ q2) * q1
        q2 = q2 / np.linalg.norm(q2)
        cols.extend([basis @ q1, basis @ q2])
        lams.append(sig)
        comp = scipy.linalg.null_space(np.vstack([q1.conj(), q2.conj()]))
        basis = basis @ comp
        Y = comp.conj().T @ Y @ comp.conj()
        Y = (Y - Y.T) / 2.0
    Qpart = np.column_stack(cols) if cols else np.zeros((n, 0), dtype=complex)
    null = scipy.linalg.null_space(Qpart.conj().T) if 2 * r < n else np.zeros((n, 0))
    Q = np.column_stack([Qpart, null]) if null.size else Qpart
    order = np.argsort(-np.array(lams)) if lams else np.array([], dtype=int)
    perm = []
    for i in order:
        perm.extend([2 * int(i), 2 * int(i) + 1])
    perm.extend(range(2 * r, n))
    Q = Q[:, perm]
    lams = [lams[int(i)] for i in order]
    return Q, lams, r


def youla_blocks(lams: list[float], n: int) -> np.ndarray:
    """Assemble diag(lams[0]*Omega_2, ..., 0_{n-2r}) as a dense array."""
    out = np.zeros((n, n))
    for i, lam in enumerate(lams):
        out[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = lam * OMEGA2
    return out
