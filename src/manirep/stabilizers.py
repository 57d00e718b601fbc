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

Convention note: a congruence stabilizer block satisfies C G C^T = G for
the canonical middle form G; in the standard convention (Q^T F Q = F) that
block group preserves F = G^{-1}, and descriptors store that F so they can
be sampled from directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import groups as G
from .errors import (
    IllConditioned,
    InvalidDescriptor,
    ManirepError,
    NonFinite,
    SizeMismatch,
    WitnessNotInModule,
)
from .gmodules import KINDS, ActionKind, ModuleDescriptor, contains as module_contains, dact
from .numkit import (
    COMPLEX,
    DEFAULT_TOL,
    REAL,
    Tolerance,
    _check_symmetry,
    _rows,
    above_cutoff,
    clusters,
    mat_to_json,
    numerical_rank,
    require_square,
    takagi,
    youla_blocks,
    youla_skew,
)


def _field_of(X: np.ndarray, field: str | None) -> str:
    if field is not None:
        return field
    X = np.asarray(X)
    return COMPLEX if np.iscomplexobj(X) and np.abs(X.imag).max(initial=0.0) > 0 else REAL


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


def stabilizer_left_mult(
    X: np.ndarray, tol: Tolerance = DEFAULT_TOL, field: str | None = None
) -> BlockParabolic:
    """Stabilizer of X under A |-> AX, for n x k input with k <= n.

    One SVD X = Q S V* decides the rank r (``above_cutoff`` on S) and gives the conjugator:
    the full left factor Q, whose first r columns span col X.
    """
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[1] > X.shape[0]:
        raise SizeMismatch("left multiplication expects n x k with k <= n")
    field = _field_of(X, field)
    n = X.shape[0]
    Q, s, _ = np.linalg.svd(X.astype(complex) if field == COMPLEX else X.real)
    r = int(above_cutoff(s, tol, strict=True).sum())
    top = IdentityBlock(r)
    bottom = G.gl(n - r, field) if n - r > 0 else None
    return BlockParabolic(conjugator=Q, top=top, bottom=bottom, field=field)


def stabilizer_congruence_skew(
    X: np.ndarray, tol: Tolerance = DEFAULT_TOL, field: str | None = None
) -> BlockParabolic:
    """Stabilizer of skew X under A |-> A X A^T."""
    field = _field_of(X, field)
    Q, lams, r = youla_skew(X, tol)
    n = Q.shape[0]
    if r == 0:
        top: G.GroupDescriptor | IdentityBlock = IdentityBlock(0)
    else:
        inv_form = youla_blocks([1.0 / lam for lam in lams], 2 * r)[: 2 * r, : 2 * r]
        top = G.sp(2 * r, field, form=inv_form)
    bottom = G.gl(n - 2 * r, field) if n - 2 * r > 0 else None
    return BlockParabolic(conjugator=Q, top=top, bottom=bottom, field=field)


def stabilizer_congruence_sym(
    X: np.ndarray, tol: Tolerance = DEFAULT_TOL, field: str | None = None
) -> BlockParabolic:
    """Stabilizer of symmetric X (complex symmetric, not Hermitian) under congruence."""
    n = require_square(X)
    field = _field_of(X, field)
    if field == REAL:
        Xr = np.asarray(X)
        Xr = Xr.real.astype(float) if np.iscomplexobj(Xr) else Xr.astype(float)
        _check_symmetry(Xr, -1.0, tol)
        vals, vecs = np.linalg.eigh(Xr / 2.0 + Xr.T / 2.0)  # no overflow for finite Xr
        keep = above_cutoff(vals, tol, strict=True)  # NonFinite for an overflowing eigenvalue
        nz = vals[keep]
        vecs_nz = vecs[:, keep]
        order = np.argsort(-nz)
        nz = nz[order]
        vecs_nz = vecs_nz[:, order]
        B = np.diag(nz)
        Q = np.column_stack([vecs_nz, vecs[:, ~keep]])
        r = len(nz)
    else:
        Q, sigma = takagi(np.asarray(X, dtype=complex), tol)
        r = int(above_cutoff(sigma, tol, strict=True).sum())
        B = np.diag(sigma[:r]).astype(complex)
    if r == 0:
        top: G.GroupDescriptor | IdentityBlock = IdentityBlock(0)
    else:
        top = G.orth(r, field, form=np.linalg.inv(B))
    bottom = G.gl(n - r, field) if n - r > 0 else None
    return BlockParabolic(conjugator=Q, top=top, bottom=bottom, field=field)


@dataclass
class EigenClass:
    kind: str  # "real" | "complex-pair" | "complex"
    value: complex
    blocks: tuple[int, ...]

    def min_sum(self) -> int:
        return sum(min(a, b) for a in self.blocks for b in self.blocks)

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
    if field == REAL and np.iscomplexobj(X) and np.asarray(X).imag.any():
        raise SizeMismatch("real-field matrix has nonzero imaginary part")
    if mode == "exact":
        return _similarity_exact(X, field)
    if mode == "numeric":
        return _similarity_numeric(X, field, tol)
    raise InvalidDescriptor(f"unknown mode {mode!r}")


def _similarity_exact(X: np.ndarray, field: str) -> ToeplitzBlockDescriptor:
    import sympy  # loaded here, not at import: only exact similarity needs it

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
    Xc = np.asarray(X, dtype=complex)
    n = Xc.shape[0]
    vals = np.linalg.eigvals(Xc)
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
        if pair[i]:
            P = (Xc - z * np.eye(n)) @ (Xc - np.conj(z) * np.eye(n))
            degree, kind, rep = 2, "complex-pair", z if z.imag > 0 else np.conj(z)
        else:
            z = complex(z.real) if field == REAL else z
            P = Xc - z * np.eye(n)
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


def stabilizer_rows(
    g: G.GroupDescriptor,
    module: ModuleDescriptor,
    action: ActionKind,
    X: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """The fixing condition of one module point as rows: row i is the infinitesimal action of
    the i-th Lie basis element of g on X, so the stabilizer algebra of X is their kernel, and
    the blocks of several points, joined column-wise, cut out the joint stabilizer.

    X must have the module's shape and lie in the module to ``tol``; congruence-star needs a
    real form.  For a real form, whose rank is taken over R, complex entries are split into
    (re, im) columns.  When the basis and X are real, the rows are built in real arithmetic;
    their rank is then the same over R and over C."""
    basis = G.lie_algebra_basis(g)
    X = np.asarray(X)
    if X.shape != module.shape:
        raise SizeMismatch("witness has the wrong shape for its module")
    if KINDS[module.kind].membership and not module_contains(module, X, tol):
        raise WitnessNotInModule(f"witness is not in {module.kind} to tolerance")
    if action == ActionKind.CONGRUENCE_STAR and g.is_complex_group:
        raise InvalidDescriptor("congruence-star is conjugate-linear; use a real form")
    if not any(np.iscomplexobj(A) and A.imag.any() for A in (basis, X)):
        basis, X = basis.real, X.real
    return _rows(dact(action, basis, X), not g.is_complex_group)


def intersect_stabilizer_dim(
    g: G.GroupDescriptor,
    constraints: list[tuple[ModuleDescriptor, ActionKind, np.ndarray]],
    tol: Tolerance = DEFAULT_TOL,
) -> int:
    """dim of the joint stabilizer algebra of several module points: the Lie algebra dimension
    minus one ``numerical_rank`` of their ``stabilizer_rows`` joined column-wise."""
    blocks = [stabilizer_rows(g, module, action, X, tol) for module, action, X in constraints]
    A = np.concatenate([np.zeros((len(G.lie_algebra_basis(g)), 0)), *blocks], axis=1)
    return len(A) - numerical_rank(A, tol)
