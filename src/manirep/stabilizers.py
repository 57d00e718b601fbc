"""Stabilizer subgroups of the standard matrix actions, in structured form.

For left multiplication on rectangular matrices and congruence on (skew-)
symmetric ones, the stabilizer inside GL_n is a conjugated block-parabolic
subgroup; for similarity it is the invertible part of the commutant,
described by Segre characteristics per eigenvalue.  Each structured result
carries its exact dimension, which must (and in the test suite does) agree
with the numeric kernel of the linearized fixing condition.

Convention note: a congruence stabilizer block satisfies C G C^T = G for
the canonical middle form G; in the standard convention (Q^T F Q = F) that
block group preserves F = G^{-1}, and descriptors store that F so they can
be sampled from directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg

from . import groups as G
from .errors import (
    IllConditioned,
    InvalidDescriptor,
    ManirepError,
    NotSymmetric,
    SizeMismatch,
    WitnessNotInModule,
)
from .gmodules import KINDS, ActionKind, ModuleDescriptor, contains as module_contains, dact
from .numkit import (
    ALL,
    COMPLEX,
    DEFAULT_TOL,
    REAL,
    Tolerance,
    _rows,
    above_cutoff,
    frob,
    mat_to_json,
    numerical_rank,
    require_square,
    span_kernel,
    takagi,
    unit_stack,
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
    """Stabilizer of X under A |-> AX, for n x k input with k <= n."""
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[1] > X.shape[0]:
        raise SizeMismatch("left multiplication expects n x k with k <= n")
    field = _field_of(X, field)
    n = X.shape[0]
    r = numerical_rank(X, tol, strict=True)
    Q, _, _ = scipy.linalg.qr(X.astype(complex) if field == COMPLEX else X.real, pivoting=True)
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
        if frob(Xr - Xr.T) > tol.cutoff(max(frob(Xr), 1.0)):
            raise NotSymmetric("congruence stabilizer needs a symmetric matrix")
        vals, vecs = np.linalg.eigh((Xr + Xr.T) / 2.0)
        keep = above_cutoff(vals, tol, strict=True)
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


def _blocks_from_nullities(nullities: list[int]) -> tuple[int, ...]:
    """Segre characteristics from nullity(P^j) scaled to one eigenvalue."""
    geq = []  # geq[j] = number of blocks of size >= j+1
    prev = 0
    for nu in nullities:
        geq.append(nu - prev)
        prev = nu
    sizes = []
    for j, count in enumerate(geq):
        nxt = geq[j + 1] if j + 1 < len(geq) else 0
        sizes.extend([j + 1] * (count - nxt))
    return tuple(sorted(sizes, reverse=True))


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
    polynomial.  Numeric mode clusters floating eigenvalues within the
    tolerance and raises :class:`IllConditioned` when clusters nearly merge.
    """
    n = np.asarray(X).shape[0]
    if np.asarray(X).shape != (n, n):
        raise SizeMismatch("similarity needs a square matrix")
    field = _field_of(X, field)
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
    p = Xs.charpoly(lam)
    gaussian = field == COMPLEX
    _, factors = sympy.factor_list(p.as_expr(), lam, gaussian=gaussian)
    classes: list[EigenClass] = []
    for fac, mult in factors:
        poly = sympy.Poly(fac, lam)
        d = poly.degree()
        coeffs = poly.all_coeffs()
        P = sympy.zeros(n, n)
        for c in coeffs:
            P = P * Xs + c * sympy.eye(n)
        nullities = []
        Pk = sympy.eye(n)
        while True:
            Pk = Pk * P
            nu = n - Pk.rank()
            if nullities and nu == nullities[-1]:
                break
            nullities.append(nu)
            if nu == d * mult:
                break
        scaled = []
        for nu in nullities:
            q, r = divmod(nu, d)
            if r:
                raise ManirepError("nullity not divisible by factor degree")
            scaled.append(q)
        blocks = _blocks_from_nullities(scaled)
        roots = np.roots([complex(c) for c in coeffs])
        if field == REAL:
            used = np.zeros(len(roots), dtype=bool)
            for i, z in enumerate(roots):
                if used[i]:
                    continue
                if abs(z.imag) < 1e-9:
                    classes.append(EigenClass("real", complex(z.real), blocks))
                    used[i] = True
                else:
                    used[i] = True
                    for j in range(i + 1, len(roots)):
                        if not used[j] and abs(roots[j] - np.conj(z)) < 1e-6:
                            used[j] = True
                            break
                    rep = z if z.imag > 0 else np.conj(z)
                    classes.append(EigenClass("complex-pair", complex(rep), blocks))
        else:
            for z in roots:
                classes.append(EigenClass("complex", complex(z), blocks))
    classes.sort(key=lambda c: (-max(c.blocks), c.value.real, c.value.imag))
    out = ToeplitzBlockDescriptor(classes=classes, field=field)
    if out.total_size != n:
        raise ManirepError("eigenvalue classes do not account for the full size")
    return out


def _similarity_numeric(X: np.ndarray, field: str, tol: Tolerance) -> ToeplitzBlockDescriptor:
    Xc = np.asarray(X, dtype=complex)
    n = Xc.shape[0]
    vals = np.linalg.eigvals(Xc)
    scale = max(np.abs(vals).max(initial=0.0), 1.0)
    merge = tol.cutoff(scale)
    # union-find clustering of eigenvalues within the merge radius
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(vals[i] - vals[j]) <= merge:
                parent[find(i)] = find(j)
    clusters: dict[int, list[int]] = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(i)
    reps = [(np.mean(vals[idx]), len(idx)) for idx in clusters.values()]
    # nearly-touching clusters mean the Jordan structure is not decidable
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if abs(reps[i][0] - reps[j][0]) < 10 * merge:
                raise IllConditioned("eigenvalue clusters nearly merge at this tolerance")

    classes: list[EigenClass] = []
    used = [False] * len(reps)
    for i, (z, mult) in enumerate(reps):
        if used[i]:
            continue
        used[i] = True
        if field == REAL and abs(z.imag) > merge:
            # pair with the conjugate cluster
            jmate = None
            for j in range(len(reps)):
                if not used[j] and abs(reps[j][0] - np.conj(z)) <= 10 * merge:
                    jmate = j
                    break
            if jmate is None:
                raise IllConditioned("unpaired complex eigenvalue over the reals")
            used[jmate] = True
            P = (Xc - z * np.eye(n)) @ (Xc - np.conj(z) * np.eye(n))
            degree = 2
            total = 2 * mult
            kind = "complex-pair"
            rep = z if z.imag > 0 else np.conj(z)
        else:
            if field == REAL:
                z = complex(z.real)
            P = Xc - z * np.eye(n)
            degree = 1
            total = mult
            kind = "real" if field == REAL else "complex"
            rep = z
        nullities = []
        Pk = np.eye(n, dtype=complex)
        while True:
            Pk = Pk @ P
            nu = n - numerical_rank(Pk, tol)
            if nullities and nu <= nullities[-1]:
                break
            nullities.append(nu)
            if nu >= total:
                break
        scaled = []
        for nu in nullities:
            q, r = divmod(nu, degree)
            if r != 0:
                raise IllConditioned("nullity chain inconsistent with eigenvalue pairing")
            scaled.append(q)
        blocks = _blocks_from_nullities(scaled)
        if sum(blocks) * degree != total:
            raise IllConditioned("block sizes do not account for the multiplicity")
        classes.append(EigenClass(kind, complex(rep), blocks))
    classes.sort(key=lambda c: (-max(c.blocks), c.value.real, c.value.imag))
    out = ToeplitzBlockDescriptor(classes=classes, field=field)
    if out.total_size != n:
        raise IllConditioned("eigenvalue classes do not account for the full size")
    return out


def commutant_sample(X: np.ndarray, seed: int, field: str | None = None) -> np.ndarray:
    """A generic invertible element commuting with X (numeric kernel basis)."""
    field = _field_of(X, field)
    Xc = np.asarray(X, dtype=complex)
    ns = span_kernel(unit_stack(ALL, len(Xc)), [lambda E: E @ Xc - Xc @ E], real=field == REAL)
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(len(ns))
    if field == COMPLEX:
        coeff = coeff + 1j * rng.standard_normal(len(ns))
    Z = np.tensordot(coeff, ns, axes=1)  # real for a real field: real units, real coefficients
    # the identity is in every commutant; shifting by it forces invertibility
    Z = Z + (1.0 + frob(Z)) * np.eye(len(Xc))
    return Z


def stabilizer_dim_in_group(
    g: G.GroupDescriptor,
    module: ModuleDescriptor,
    action: ActionKind,
    X: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> int:
    """dim of {Z in Lie(g) : the infinitesimal action of Z kills X}."""
    return intersect_stabilizer_dim(g, [(module, action, X)], tol)


def intersect_stabilizer_dim(
    g: G.GroupDescriptor,
    constraints: list[tuple[ModuleDescriptor, ActionKind, np.ndarray]],
    tol: Tolerance = DEFAULT_TOL,
) -> int:
    """dim of the joint stabilizer algebra of several module points.

    The rank is taken over C for a complex group and over R for a real form,
    whose complex entries are split into (re, im) coordinates.  When the basis
    and every witness are real, the condition rows are built in real arithmetic;
    their rank is then the same over R and over C."""
    basis = G.lie_algebra_basis(g)
    if not constraints:
        return len(basis)
    complex_rank = g.is_complex_group
    witnesses = [np.asarray(X) for _, _, X in constraints]
    if not any(np.iscomplexobj(A) and A.imag.any() for A in (basis, *witnesses)):
        basis, witnesses = basis.real, [X.real for X in witnesses]
    for (module, action, _), X in zip(constraints, witnesses):
        if X.shape != module.shape:
            raise SizeMismatch("witness has the wrong shape for its module")
        if KINDS[module.kind].membership and not module_contains(module, X, tol):
            raise WitnessNotInModule(f"witness is not in {module.kind} to tolerance")
        if action == ActionKind.CONGRUENCE_STAR and complex_rank:
            raise InvalidDescriptor("congruence-star is conjugate-linear; use a real form")
    A = np.concatenate([_rows(dact(action, basis, X), not complex_rank)
                        for (_, action, _), X in zip(constraints, witnesses)], axis=1)
    return len(basis) - numerical_rank(A, tol)
