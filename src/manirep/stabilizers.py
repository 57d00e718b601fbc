"""Stabilizer subgroups of the standard matrix actions, in structured form.

For left multiplication on rectangular matrices and congruence on (skew-)
symmetric ones, the stabilizer inside GL_n is a conjugated block-parabolic
subgroup; for similarity it is the invertible part of the commutant,
described by Segre characteristics per eigenvalue.  The exact and numeric
similarity paths differ only in how they find the eigenvalue classes and
rank a matrix; one routine (``_segre``) reads the block sizes of a class off
the nullities of the powers of its factor.  Each structured result carries
its exact dimension, which must (and in the test suite does) agree with the
numeric kernel of the linearized fixing condition.

That condition's rows (``stabilizer_rows``) are built from the nonzeros of
the Lie basis, its support (``groups.LieBasis``), and of the point, not as
a dense stack of products over the whole basis, and are ranked as a dense
matrix on the rows and columns that hold a nonzero (``join_rows``).  A copy
of a group with a form is P^-1 G0 P for the group G0 at its normal form
(``groups.normal_frame``), whose basis is monomial: the rows are G0's at the
carried point P . X, which has the same stabilizer dimension.

Convention note: a congruence stabilizer block satisfies C G C^T = G for
the canonical middle form G; in the standard convention (Q^T F Q = F) that
block group preserves F = G^{-1}, and descriptors store that F so they can
be sampled from directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from . import groups as G
from .errors import (
    IllConditioned,
    InvalidDescriptor,
    ManirepError,
    NonFinite,
    SizeMismatch,
    WitnessNotInModule,
    optional_import,
)
from .gmodules import KINDS, ActionKind, ModuleDescriptor, act, contains as module_contains
from .numkit import (
    COMPLEX,
    DEFAULT_TOL,
    REAL,
    Tolerance,
    above_cutoff,
    clusters,
    congruence_form,
    mat_to_json,
    numerical_rank,
    youla_blocks,
)


def _field_of(X: np.ndarray, field: str | None) -> str:
    """``field``, or C exactly when X has a nonzero imaginary part; such an X over R is refused."""
    X = np.asarray(X)
    imag = np.iscomplexobj(X) and X.imag.any()
    if field == REAL and imag:
        raise SizeMismatch("real-field matrix has nonzero imaginary part")
    return field or (COMPLEX if imag else REAL)


@dataclass(frozen=True)
class IdentityBlock:
    size: int


@dataclass
class BlockParabolic:
    """Q * P(top, bottom) * Q^{-1} with a free off-diagonal block."""

    conjugator: np.ndarray
    top: G.GroupDescriptor | IdentityBlock
    bottom: G.GroupDescriptor | None
    field: str

    @property
    def p(self) -> int:
        return self.top.size if isinstance(self.top, IdentityBlock) else self.top.n

    @property
    def n(self) -> int:
        return self.p + (self.bottom.n if self.bottom is not None else 0)

    @property
    def dim(self) -> int:
        d = 0 if isinstance(self.top, IdentityBlock) else G.group_dim(self.top)
        if self.bottom is not None:
            d += G.group_dim(self.bottom)
        d += self.p * (self.n - self.p)
        return d

    def sample(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        n, p = self.n, self.p
        dt = complex if self.field == COMPLEX else float
        A = np.zeros((n, n), dtype=dt)
        if isinstance(self.top, IdentityBlock):
            A[:p, :p] = np.eye(p)
        else:
            A[:p, :p] = G.sample(self.top, seed)
        if self.bottom is not None:
            A[p:, p:] = G.sample(self.bottom, seed + 1)
        C = rng.standard_normal((p, n - p))
        if self.field == COMPLEX:
            C = C + 1j * rng.standard_normal((p, n - p))
        A[:p, p:] = C
        Q = self.conjugator
        return Q @ A @ np.linalg.inv(Q)

    def to_json(self) -> dict:
        top = (
            {"identity": self.top.size}
            if isinstance(self.top, IdentityBlock)
            else self.top.to_json()
        )
        return {
            "conjugator": mat_to_json(self.conjugator, self.field),
            "top": top,
            "bottom": None if self.bottom is None else self.bottom.to_json(),
            "off_block": [self.p, self.n - self.p],
            "dim": self.dim,
        }


def _parabolic(Q: np.ndarray, r: int, top: G.GroupDescriptor | None,
               field: str) -> BlockParabolic:
    """Q P(top, GL_{n-r}) Q^{-1}: the r x r group ``top`` (None: the identity block) on top
    and GL_{n-r} below when n > r."""
    n = Q.shape[0]
    return BlockParabolic(conjugator=Q, top=IdentityBlock(r) if top is None else top,
                          bottom=G.gl(n - r, field) if n > r else None, field=field)


def stabilizer_left_mult(
    X: np.ndarray, tol: Tolerance = DEFAULT_TOL, field: str | None = None
) -> BlockParabolic:
    """Stabilizer of X under A |-> AX, for n x k input with k <= n.

    One SVD X = Q S V* decides the rank r (``above_cutoff`` on S) and gives the conjugator:
    the full left factor Q, whose first r columns span col X.  An n x n Q that numpy refuses
    or fails to allocate raises :class:`SizeMismatch`.
    """
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[1] > X.shape[0]:
        raise SizeMismatch("left multiplication expects n x k with k <= n")
    field = _field_of(X, field)
    try:
        Q, s, _ = np.linalg.svd(X.astype(complex) if field == COMPLEX else X.real)
    except np.linalg.LinAlgError:
        raise
    except (MemoryError, ValueError) as exc:  # ValueError: larger than any array can be
        n = X.shape[0]
        raise SizeMismatch(f"the {n} x {n} conjugator cannot be allocated: {exc}") from exc
    return _parabolic(Q, int(above_cutoff(s, tol, strict=True).sum()), None, field)


def stabilizer_congruence_skew(
    X: np.ndarray, tol: Tolerance = DEFAULT_TOL, field: str | None = None
) -> BlockParabolic:
    """Stabilizer of skew X under A |-> A X A^T, read off ``numkit.congruence_form``."""
    field = _field_of(X, field)
    Q, lams = congruence_form(X, True, field == REAL, tol)
    r = 2 * len(lams)
    return _parabolic(Q, r, G.sp(r, field, form=youla_blocks(1.0 / lams, r)) if r else None, field)


def stabilizer_congruence_sym(
    X: np.ndarray, tol: Tolerance = DEFAULT_TOL, field: str | None = None
) -> BlockParabolic:
    """Stabilizer of symmetric X (not Hermitian) under congruence, read off its
    ``numkit.congruence_form``; the O_r form's -0.0 entries come from ``np.linalg.inv``."""
    field = _field_of(X, field)
    Q, d = congruence_form(X, False, field == REAL, tol)
    r, B = len(d), np.diag(d).astype(Q.dtype)
    return _parabolic(Q, r, G.orth(r, field, form=np.linalg.inv(B)) if r else None, field)


@dataclass
class EigenClass:
    kind: str  # "real" | "complex-pair" | "complex"
    value: complex
    blocks: tuple[int, ...]

    def min_sum(self) -> int:
        """The sum of min(b_i, b_j) over all pairs (i, j) of blocks: with the blocks in
        descending order, b_i is the least of the pairs (i, j) and (j, i) for j < i and of
        (i, i), so it counts 2i - 1 times (i from 1)."""
        return sum((2 * i + 1) * b for i, b in enumerate(sorted(self.blocks, reverse=True)))

    def to_json(self) -> dict:
        return {
            "eig": [float(np.real(self.value)), float(np.imag(self.value))],
            "kind": self.kind,
            "blocks": list(self.blocks),
        }


@dataclass
class ToeplitzBlockDescriptor:
    """Commutant structure of a matrix: Segre characteristics per eigenvalue."""

    classes: list[EigenClass]
    field: str

    @property
    def total_size(self) -> int:
        """Sum of block sizes over all classes (complex pairs doubled)."""
        return sum((2 if c.kind == "complex-pair" else 1) * sum(c.blocks) for c in self.classes)

    @property
    def commutant_dim(self) -> int:
        total = 0
        for c in self.classes:
            w = 2 if c.kind == "complex-pair" else 1
            total += w * c.min_sum()
        return total

    def to_json(self) -> dict:
        return {
            "classes": [c.to_json() for c in self.classes],
            "commutant_dim": self.commutant_dim,
        }


def _segre(rank, P, degree: int, total: int, error: type[ManirepError]) -> tuple[int, ...]:
    """Segre characteristic (block sizes, descending) shared by the roots of one factor.

    P is p(X) for a factor p of the characteristic polynomial, irreducible over the field and
    of the given degree, and ``total`` the dimension of the kernel of P^n.  The nullities of
    P, P^2, ... (by ``rank``) are taken until they stop rising or reach ``total``; their
    steps, divided by the degree, are the Weyr characteristic, whose conjugate partition is
    the block sizes (Gantmacher, The Theory of Matrices I, ch. VIII).  A step not divisible
    by the degree, a rising Weyr characteristic or a chain that stops short of ``total``
    raises ``error``."""
    n = P.shape[0]
    nullities, Pk = [0], P
    while True:
        nu = n - rank(Pk)
        if nu <= nullities[-1]:
            break
        nullities.append(nu)
        if nu >= total:
            break
        Pk = Pk @ P
    weyr, odd = np.divmod(np.diff(nullities), degree)
    if odd.any():
        raise error("nullity chain inconsistent with eigenvalue pairing")
    if (np.diff(weyr) > 0).any() or nullities[-1] != total:
        raise error("block sizes do not account for the multiplicity")
    return tuple(int((weyr >= k).sum()) for k in range(1, int(weyr[0]) + 1))


def _descriptor(classes: list[EigenClass], field: str, n: int,
                error: type[ManirepError]) -> ToeplitzBlockDescriptor:
    """The classes sorted (largest block first, then by value), checked to fill the size n."""
    classes.sort(key=lambda c: (-max(c.blocks), c.value.real, c.value.imag))
    out = ToeplitzBlockDescriptor(classes=classes, field=field)
    if out.total_size != n:
        raise error("eigenvalue classes do not account for the full size")
    return out


def stabilizer_similarity(
    X: np.ndarray,
    mode: str = "exact",
    tol: Tolerance = DEFAULT_TOL,
    field: str | None = None,
) -> ToeplitzBlockDescriptor:
    """Similarity stabilizer (commutant) structure of a square matrix.

    Exact mode treats every entry as the exact rational (or Gaussian
    rational) value of its float and computes Segre characteristics from
    exact ranks of powers of the irreducible factors of the characteristic
    polynomial.  Over R an irreducible factor has exactly as many real roots
    as its Sturm count (``count_roots``): those of least |imag| are ``real``
    classes and the rest give one ``complex-pair`` class per root with
    positive imaginary part, with no tolerance involved.  Numeric mode joins
    eigenvalues within the tolerance into clusters (``numkit.clusters``),
    pairs each non-real cluster over R with the one nearest its conjugate,
    and raises :class:`IllConditioned` when clusters nearly merge or a pair
    or a block structure does not fit.  Both modes raise :class:`NonFinite`
    when an eigenvalue is beyond the float range.
    """
    n = np.asarray(X).shape[0]
    if np.asarray(X).shape != (n, n):
        raise SizeMismatch("similarity needs a square matrix")
    field = _field_of(X, field)
    if mode == "exact":
        return _similarity_exact(X, field)
    if mode == "numeric":
        # a product beyond the float range leaves inf or NaN in p(X): NonFinite in its rank
        with np.errstate(over="ignore", invalid="ignore"):
            return _similarity_numeric(X, field, tol)
    raise InvalidDescriptor(f"unknown mode {mode!r}")


def _similarity_exact(X: np.ndarray, field: str) -> ToeplitzBlockDescriptor:
    sympy = optional_import("sympy")  # loaded here, not at import: only exact similarity needs it

    def exact(x):  # a float at its exact binary value
        q = Fraction(float(x))
        return sympy.Rational(q.numerator, q.denominator)

    Xs = sympy.Matrix([[exact(z.real) + sympy.I * exact(z.imag) for z in row]
                       for row in np.asarray(X)])
    n = Xs.rows
    lam = sympy.Symbol("lam")
    _, factors = sympy.factor_list(Xs.charpoly(lam).as_expr(), lam, gaussian=field == COMPLEX)
    classes: list[EigenClass] = []
    for fac, mult in factors:
        poly = sympy.Poly(fac, lam)
        P = sympy.zeros(n, n)
        for c in poly.all_coeffs():  # expanded at each step, or the entries grow as trees
            P = (P * Xs + c * sympy.eye(n)).expand()
        blocks = _segre(sympy.Matrix.rank, P, poly.degree(), poly.degree() * mult, ManirepError)
        coeffs = np.array([complex(c) for c in poly.monic().all_coeffs()])
        if not np.isfinite(coeffs).all():
            raise NonFinite("an eigenvalue is beyond the float range")
        # a linear factor's root exactly (+ 0.0 turns -0.0 into 0.0)
        roots = np.roots(coeffs) if len(coeffs) > 2 else -coeffs[1:] + 0.0
        if field == COMPLEX:
            classes += [EigenClass("complex", complex(z), blocks) for z in roots]
            continue
        # an irreducible real factor has exactly count_roots() real roots (Sturm)
        real = np.argsort(np.abs(roots.imag))[: poly.count_roots()]
        classes += [EigenClass("real", complex(z.real), blocks) for z in roots[real]]
        pairs = np.delete(roots, real)
        classes += [EigenClass("complex-pair", complex(z), blocks) for z in pairs[pairs.imag > 0]]
    return _descriptor(classes, field, n, ManirepError)


def _similarity_numeric(X: np.ndarray, field: str, tol: Tolerance) -> ToeplitzBlockDescriptor:
    """Numeric mode of ``stabilizer_similarity``.  A matrix with zero imaginary part takes its
    eigenvalues, as its ranks, from its real matrix, so both fields split them alike."""
    Xn = np.asarray(X).real.astype(float) if field == REAL else np.asarray(X, dtype=complex)
    n, eye = len(Xn), np.eye(len(Xn))  # over R, X and each p(X) stay real, and so their ranks
    vals = np.linalg.eigvals(Xn if Xn.imag.any() else Xn.real).astype(complex)
    if not np.isfinite(vals).all():
        raise NonFinite("an eigenvalue is beyond the float range")
    merge = tol.cutoff(max(np.abs(vals).max(initial=0.0), 1.0))
    members = clusters(vals, merge)
    reps = np.array([np.mean(vals[idx]) for idx in members], dtype=complex)
    ids = np.arange(len(reps))
    # nearly-touching clusters mean the Jordan structure is not decidable
    if (np.abs(reps[:, None] - reps)[np.triu_indices(len(reps), 1)] < 10 * merge).any():
        raise IllConditioned("eigenvalue clusters nearly merge at this tolerance")
    # over R a cluster off the real axis pairs with the other such cluster nearest its conjugate
    pair = (np.abs(reps.imag) > merge) & (field == REAL)
    mate = ids
    if pair.any():
        dist = np.abs(reps[:, None] - reps.conj()) + np.where(pair, 0.0, np.inf)[:, None]
        np.fill_diagonal(dist, np.inf)
        mate = dist.argmin(axis=0)
        if (pair & ((dist[mate, ids] > 10 * merge) | (mate[mate] != ids))).any():
            raise IllConditioned("unpaired complex eigenvalue over the reals")
    classes: list[EigenClass] = []
    for i in np.flatnonzero(~pair | (mate > ids)):  # a pair from its first cluster
        z = reps[i]
        if pair[i]:  # (X - z)(X - conj z)
            P = Xn @ (Xn - 2.0 * z.real * eye) + abs(z) ** 2 * eye
            degree, kind, rep = 2, "complex-pair", z if z.imag > 0 else np.conj(z)
        else:
            z = z.real if field == REAL else z
            P = Xn - z * eye
            degree, kind, rep = 1, "real" if field == REAL else "complex", z
        blocks = _segre(lambda M: numerical_rank(M, tol), P, degree, degree * len(members[i]),
                        IllConditioned)
        classes.append(EigenClass(kind, complex(rep), blocks))
    return _descriptor(classes, field, n, IllConditioned)


def stabilizer_dim_in_group(
    g: G.GroupDescriptor,
    module: ModuleDescriptor,
    action: ActionKind,
    X: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> int:
    """dim of {Z in Lie(g) : the infinitesimal action of Z kills X}."""
    return intersect_stabilizer_dim(g, [(module, action, X)], tol)


class Rows(NamedTuple):
    """The nonzero entries of d condition rows, as (row, column, value) arrays, and the rows'
    column count."""

    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    width: int


def stabilizer_rows(
    g: G.GroupDescriptor,
    module: ModuleDescriptor,
    action: ActionKind,
    X: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> Rows:
    """The fixing condition of one module point as rows: row i is the infinitesimal action of
    the i-th Lie basis element of g on X, flattened, so the stabilizer algebra of X is their
    kernel, and the rows of several points, joined column-wise (``join_rows``), cut out the
    joint stabilizer.  They are returned as their nonzero entries and column count
    (``Rows``).

    X must have the module's shape and lie in the module to ``tol``; congruence-star needs a
    real form.  For a real form, whose rank is taken over R, complex entries are split into
    (re, im) columns.  When the basis and X are real, the entries are real; their rank is
    then the same over R and over C.  A copy of g with a form is first carried to its normal
    frame g0 = P g P^-1 and X to P . X (``groups.normal_frame``), which has the same
    stabilizer dimension; g0's Lie basis is monomial, and the entries come from its nonzeros
    and those of X (``_products``)."""
    X = np.asarray(X)
    if X.shape != module.shape:
        raise SizeMismatch("witness has the wrong shape for its module")
    if KINDS[module.kind].membership and not module_contains(module, X, tol):
        raise WitnessNotInModule(f"witness is not in {module.kind} to tolerance")
    if action == ActionKind.CONGRUENCE_STAR and g.is_complex_group:
        raise InvalidDescriptor("congruence-star is conjugate-linear; use a real form")
    g, P = G.normal_frame(g)
    if P is not None:
        X = act(action, P, X)
    if np.iscomplexobj(X) and not X.imag.any():  # a basis is stored real when it can be
        X = X.real
    real = not g.is_complex_group
    e, col, val = _products(action, G.lie_algebra_basis(g).support, X)
    if real and np.iscomplexobj(val):  # the (re, im) columns 2 col and 2 col + 1 that are not 0
        at = val.view(float).nonzero()[0]
        return Rows(e[at >> 1], 2 * col[at >> 1] + (at & 1), val.view(float)[at], 2 * X.size)
    return Rows(e, col, val, X.size)


def _products(action: ActionKind, support, X: np.ndarray):
    """The nonzero entries (element, column, value) of ``dact(action, Z, X)`` over the basis
    Z_t whose support (element, row, column, value) is given, the column of (i, j) being
    i * k + j for n x k X, in element then column order.

    Both factors of the action are products M Y: Z_t X, and X Z_t^T = (Z_t X^T)^T,
    X Z_t* = (conj(Z_t) X^T)^T or -X Z_t = (-Z_t^T X^T)^T, so one pass joins each nonzero w of
    M at (a, b) with the nonzeros Y[b, j] of the row b of Y = [X; X^T], for an entry
    w Y[b, j] at (a, j), or at (j, a) for Y = X^T.  As Z_t has at most one nonzero in each
    row and each column, each entry of a factor is that one term, and the factors are summed
    where they meet, so every entry is the batched ``dact`` value bit for bit; a sum that
    cancels is dropped."""
    e, a, b, w = support
    n, k = X.shape
    m, Y = len(w), X
    if action != ActionKind.LEFT_MULT:
        similarity = action == ActionKind.SIMILARITY
        r, c = a, b
        e, Y = np.concatenate([e, e]), np.concatenate([X, X.T])
        a = np.concatenate([r, c if similarity else r])
        b = np.concatenate([c, (r if similarity else c) + n])
        w = np.concatenate([w, -w if similarity else
                            w.conj() if action == ActionKind.CONGRUENCE_STAR else w])
    # pair each nonzero z of M with the hits[z] nonzeros (b[z], j) of Y, row by row
    yb, yj = Y.nonzero()
    count = np.bincount(yb, minlength=len(Y))
    hits = count[b]
    z = np.arange(len(b)).repeat(hits)
    j = yj[np.arange(len(z)) + (count.cumsum()[b] - hits.cumsum()).repeat(hits)]
    place = a[z] * k + j  # (a, j)
    if action != ActionKind.LEFT_MULT:
        place = np.where(z < m, place, j * n + a[z])  # (j, a) from Y = X^T
    key, val = e[z] * X.size + place, w[z] * Y[b[z], j]
    if action != ActionKind.LEFT_MULT:
        order = key.argsort(kind="stable")
        key, val = key[order], val[order]
        same = key[1:] == key[:-1]  # Z_t X's term, then the other factor's
        val[:-1][same] += val[1:][same]
        keep = np.concatenate([[True], ~same]) & (val != 0)
    else:
        keep = val != 0
    e, col = np.divmod(key[keep], X.size)
    return e, col, val[keep]


def join_rows(d: int, parts: list[Rows]) -> tuple[np.ndarray, np.ndarray]:
    """The ``stabilizer_rows`` of several points, each with d rows, joined column-wise: the
    dense matrix on the rows and the columns of the join that hold a nonzero, in their order,
    and those columns.  An all-zero row or column adds no singular value, so the matrix has
    the rank of the whole join."""
    offsets = [0, *accumulate(p.width for p in parts)]
    rows = np.concatenate([np.zeros(0, int), *(p.row for p in parts)])
    cols = np.concatenate([np.zeros(0, int), *(p.col + at for p, at in zip(parts, offsets))])
    vals = np.concatenate([np.zeros(0), *(p.val for p in parts)])
    row_held, held = np.zeros(d, bool), np.zeros(offsets[-1], bool)
    row_held[rows] = held[cols] = True
    used = held.nonzero()[0]
    A = np.zeros((np.count_nonzero(row_held), len(used)), vals.dtype)
    A[row_held.cumsum()[rows] - 1, held.cumsum()[cols] - 1] = vals
    return A, used


def intersect_stabilizer_dim(
    g: G.GroupDescriptor,
    constraints: list[tuple[ModuleDescriptor, ActionKind, np.ndarray]],
    tol: Tolerance = DEFAULT_TOL,
) -> int:
    """dim of the joint stabilizer algebra of several module points: the Lie algebra dimension
    minus one ``numerical_rank`` of their ``stabilizer_rows`` joined column-wise, on the
    columns that hold a nonzero (``join_rows``)."""
    d = G.group_dim(g)
    A, _ = join_rows(d, [stabilizer_rows(g, module, action, X, tol)
                         for module, action, X in constraints])
    return d - numerical_rank(A, tol)
