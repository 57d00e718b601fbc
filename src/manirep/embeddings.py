"""Minimal equivariant matrix realizations of Grassmann, flag, and Stiefel manifolds.

Every supported family is a homogeneous space G/H realized as the orbit of
a fixed base matrix under one of the multiplication actions: a symmetric or
skew "spectral model" for Grassmannians and flags, and a frame model for
Stiefel manifolds.  Each family is one :class:`Family` row of ``FAMILIES``,
which records the acting group, the target module (whose kind fixes the
action), the spectral rule, the base point, the orbit invariant, the
smallest legal sizes, and the closed-form dimension of the target (which is
the smallest possible among all equivariant realizations once the size
parameters clear the family threshold; smaller sizes are still constructed
but flagged advisory).  The functions below read the rows; adding a family
is adding a row.

Spectral parameters default to the smallest integer solutions of the
defining constraints (distinct values, weighted sum zero), so base points
are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import groups as G
from . import weyl
from .errors import (
    InvalidDescriptor,
    InvalidSpectrum,
    ManirepError,
    NoConstantFactor,
    NotInGroup,
    SizeMismatch,
)
from .gmodules import ActionKind, ModuleDescriptor, act, contains as module_contains
from .numkit import (COMPLEX, DEFAULT_TOL, REAL, Tolerance, clusters, frob, mat_to_json,
                     numerical_rank)
from .stabilizers import stabilizer_dim_in_group

# ---------------------------------------------------------------------------
# spectral rules: the default values of a base point and their constraints


@dataclass(frozen=True)
class SpectrumRule:
    default: Callable[[ManifoldDescriptor], tuple]
    check: Callable[[ManifoldDescriptor, tuple], None]


def _weighted(blocks) -> SpectrumRule:
    """One value per block of sizes ``blocks(md)``: distinct, weighted sum zero.

    The default is the smallest integer solution; for the two blocks (k,
    n - k) of a Grassmannian it is (n - k, -k).
    """

    def default(md):
        parts = blocks(md)
        m1 = len(parts)
        c = [m1 - i for i in range(m1)]
        s = sum(ni * ci for ni, ci in zip(parts, c))
        return tuple(float(sum(parts) * ci - s) for ci in c)

    def check(md, spec):
        parts = blocks(md)
        if len(spec) != len(parts):
            raise InvalidSpectrum("one value per flag block")
        if len(set(spec)) != len(spec):
            raise InvalidSpectrum("flag values must be distinct")
        if sum(ni * si for ni, si in zip(parts, spec)) != 0:
            raise InvalidSpectrum("weighted sum of flag values must vanish")

    return SpectrumRule(default, check)


def _check_nonzero(md, spec):
    if spec[0] == 0:
        raise InvalidSpectrum(f"{md.family} needs a nonzero value")


def _signed_flag_default(md):
    # the trace vanishes automatically; what matters is that the
    # magnitudes are distinct and nonzero
    m1 = len(md.parts)
    return tuple(float(m1 - i) for i in range(m1))


def _signed_flag_check(md, spec):
    if len(spec) != len(md.parts):
        raise InvalidSpectrum("one value per flag block")
    if len({abs(s) for s in spec}) != len(spec) or any(s == 0 for s in spec):
        raise InvalidSpectrum("flag values must be nonzero with distinct magnitudes")


INDEFINITE_TWO_BLOCK = _weighted(lambda md: (sum(md.pq), sum(md.sizes) - sum(md.pq)))
WEIGHTED_FLAG = _weighted(lambda md: md.parts)
NONZERO = SpectrumRule(lambda md: (1.0,), _check_nonzero)
SIGNED_FLAG = SpectrumRule(_signed_flag_default, _signed_flag_check)

# ---------------------------------------------------------------------------
# base points: (descriptor, spectral values) -> matrix


def _flag_diag(parts, spec):
    """The spectral values repeated over blocks of the given sizes."""
    vals = []
    for ni, si in zip(parts, spec):
        vals.extend([si] * ni)
    return np.diag(vals)


def _skew_flag(parts, spec):
    n2 = 2 * sum(parts)
    out = np.zeros((n2, n2))
    pos = 0
    for ni, mi in zip(parts, spec):
        out[pos : pos + 2 * ni, pos : pos + 2 * ni] = mi * G.J2n(2 * ni)
        pos += 2 * ni
    return out


def _flag(md, spec):
    return _flag_diag(md.parts, spec)


def _doubled(D, sign=1):
    """diag(D, sign * D) for an n x n block D."""
    Z = np.zeros(D.shape)
    return np.block([[D, Z], [Z, sign * D]])


def _pad(A, rows, cols=None):
    """A in the top-left corner of a zero rows x cols matrix (square by default)."""
    X = np.zeros((rows, rows if cols is None else cols))
    X[: A.shape[0], : A.shape[1]] = A
    return X


def _indefinite(md, spec):
    """(lambda', mu') on the (p, q)-plane and its complement in R^{m,n}."""
    (p, q), (mm, nn) = md.pq, md.sizes
    return _flag_diag((p, mm - p, q, nn - q), spec + spec)


def _quaternionic_frame(md, spec):
    # k quaternionic coordinate lines: columns e_1..e_k, e_{n+1}..e_{n+k},
    # so the stabilizer is the symplectic group of the complement
    n, k = md.n, md.k
    X = np.zeros((2 * n, 2 * k))
    X[:k, :k] = np.eye(k)
    X[n : n + k, k:] = np.eye(k)
    return X


# ---------------------------------------------------------------------------
# orbit invariants: (X, base value, absolute tolerance) -> bool


def _same_eigenvalues(X, X0, atol):
    """Each cluster of the joint spectrum holds as many eigenvalues of X as of X0."""
    ev = np.linalg.eigvals(np.asarray(X, dtype=complex))
    ev0 = np.linalg.eigvals(np.asarray(X0, dtype=complex))
    joint = clusters(np.concatenate([ev, ev0]), max(atol, 1e-7 * max(frob(X0), 1.0)))
    return all(2 * np.count_nonzero(c < len(ev)) == len(c) for c in joint)


def _same(values):
    """The invariant values(X) == values(X0) within atol."""
    return lambda X, X0, atol: np.allclose(values(X), values(X0), atol=atol)


#: spectrum of -iX, for the congruence-star orbits of skew-Hermitian points
_same_hermitian_spectrum = _same(
    lambda X: np.sort(np.linalg.eigvalsh(-1j * np.asarray(X, dtype=complex))))
_same_singular_values = _same(
    lambda X: np.linalg.svd(np.asarray(X, dtype=complex), compute_uv=False))


def _orthonormal_frame(X, X0, atol):
    return frob(np.asarray(X).conj().T @ X - np.eye(X.shape[1])) <= atol


def _symplectic_frame(X, X0, atol):
    k = X.shape[1]
    Xc = np.asarray(X, dtype=complex)
    J = G.J2n(X.shape[0]).astype(complex)
    return (
        frob(Xc.conj().T @ Xc - np.eye(k)) <= atol
        and frob(Xc.T @ J @ Xc - G.J2n(k)) <= atol
    )


def _unimodular_frame(X, X0, atol):
    k = X.shape[1]
    if numerical_rank(X) < k:
        return False
    if k == X.shape[0]:
        return abs(np.linalg.det(np.asarray(X)) - 1.0) <= atol
    return True


# ---------------------------------------------------------------------------
# the family registry

#: largest k allowed by each bound on the plane or frame size
_K_BOUNDS = {"k < n": lambda n: n - 1, "k <= n": lambda n: n, "2k <= n": lambda n: n // 2}
#: how ``lift_subspace`` completes an n x k matrix Y: a plane spanned by Y,
#: the frame Y itself, or the orthonormal frame Y
PLANE, FRAME, ORTHONORMAL_FRAME = "plane", "frame", "orthonormal frame"


@dataclass(frozen=True)
class Family:
    """One manifold family.

    ``group`` and ``module`` build the acting group and the target module
    of a descriptor; the module's kind fixes the action.  ``base`` builds
    the base point from the spectral values that ``spectrum`` defaults and
    checks (None: the base point has no free values).  ``mp_dim`` is the
    paper's closed form for the target dimension, kept as the reference
    that ``module_dim`` is tested against.  ``orbit`` tests the orbit
    invariant of the base point.  ``smallest`` holds the smallest legal
    sizes; its keys besides ``n`` are the parameters the family takes.
    ``k_bound`` bounds the plane or frame size k, and ``lift`` says how
    ``lift_subspace`` completes a basis (None: not supported).
    """

    group: Callable[[ManifoldDescriptor], G.GroupDescriptor]
    module: Callable[[ManifoldDescriptor], ModuleDescriptor]
    base: Callable[[ManifoldDescriptor, tuple], np.ndarray]
    mp_dim: Callable[[ManifoldDescriptor], int]
    orbit: Callable[[np.ndarray, np.ndarray, float], bool]
    smallest: dict
    spectrum: SpectrumRule | None = None
    k_bound: str | None = None
    lift: str | None = None


# The models below give the acting group, the target module, the paper's
# closed form for its dimension and the orbit invariant; the Grassmann and
# flag rows built on one model share them.  A Grassmannian is the one-step
# flag (see ``ManifoldDescriptor.parts``), so the spectral models also
# share the weighted spectral rule and the base point.


def _symmetric(field):
    """SO_n(F) on traceless symmetric matrices."""
    return dict(group=lambda md: G.so(md.n, field),
                module=lambda md: ModuleDescriptor("Sym2Traceless", md.n, field),
                spectrum=WEIGHTED_FLAG, base=_flag,
                mp_dim=lambda md: (md.n + 2) * (md.n - 1) // 2, orbit=_same_eigenvalues)


def _skew(size):
    """SO_N on skew matrices, N = size(md)."""
    return dict(group=lambda md: G.so(size(md)),
                module=lambda md: ModuleDescriptor("Alt2", size(md), REAL),
                mp_dim=lambda md: size(md) * (size(md) - 1) // 2, orbit=_same_eigenvalues)


def _symplectic(field=None):
    """Sp_2n(F) on the symmetric-traceless module; F is md.field when None."""
    return dict(group=lambda md: G.sp(2 * md.n, field or md.field),
                module=lambda md: ModuleDescriptor("Sym2TracelessForm", 2 * md.n,
                                                   field or md.field),
                spectrum=WEIGHTED_FLAG, base=lambda md, s: _doubled(_flag(md, s)),
                mp_dim=lambda md: (md.n - 1) * (2 * md.n + 1), orbit=_same_eigenvalues)


#: SU_n on su_n
_UNITARY = dict(group=lambda md: G.su(md.n), module=lambda md: ModuleDescriptor("SUAlgebra", md.n),
                spectrum=WEIGHTED_FLAG, base=lambda md, s: 1j * _flag(md, s),
                mp_dim=lambda md: md.n * md.n - 1, orbit=_same_hermitian_spectrum)
#: compact Sp_2n on the traceless symmetric part of su_2n
_QUATERNIONIC = dict(group=lambda md: G.sp_compact(2 * md.n),
                     module=lambda md: ModuleDescriptor("SymTracelessCapSU", 2 * md.n),
                     spectrum=WEIGHTED_FLAG, base=lambda md, s: 1j * _doubled(_flag(md, s)),
                     mp_dim=lambda md: (md.n - 1) * (2 * md.n + 1),
                     orbit=_same_hermitian_spectrum)
#: compact Sp_2n on its Lie algebra
_COMPACT_SYMPLECTIC = dict(group=lambda md: G.sp_compact(2 * md.n),
                           module=lambda md: ModuleDescriptor("SpAlgebra", 2 * md.n),
                           mp_dim=lambda md: 2 * md.n * md.n + md.n,
                           orbit=_same_hermitian_spectrum)


def _frames(group, field, orbit, lift):
    """``group(n)`` on n x k frames by left multiplication."""
    return dict(group=lambda md: group(md.n),
                module=lambda md: ModuleDescriptor("RectNK", md.n, field, k=md.k),
                base=lambda md, s: _pad(np.eye(md.k), md.n, md.k),
                mp_dim=lambda md: md.n * md.k, orbit=orbit, k_bound="k <= n", lift=lift)


FAMILIES = {
    # Grassmannians: two-block spectral models
    "gr-real": Family(**_symmetric(REAL), smallest=dict(n=4, k=2), k_bound="k < n", lift=PLANE),
    "gr-complex": Family(**_UNITARY, smallest=dict(n=3, k=1), k_bound="k < n", lift=PLANE),
    "gr-quaternionic": Family(**_QUATERNIONIC, smallest=dict(n=2, k=1), k_bound="k < n"),
    "gr-sp-real": Family(**_symplectic(REAL), smallest=dict(n=2, k=1), k_bound="k < n"),
    "gr-sp-complex": Family(**_symplectic(COMPLEX), smallest=dict(n=2, k=1), k_bound="k < n"),
    "gr-complex-locus": Family(**_symmetric(COMPLEX), smallest=dict(n=3, k=1), k_bound="k < n"),
    "slgr": Family(
        group=lambda md: G.su(md.n), module=lambda md: ModuleDescriptor("Sym2", md.n, COMPLEX),
        base=lambda md, s: np.eye(md.n), mp_dim=lambda md: md.n * (md.n + 1) // 2,
        orbit=_same_singular_values, smallest=dict(n=2)),
    "lgr-c": Family(**_COMPACT_SYMPLECTIC, spectrum=NONZERO,
                    base=lambda md, s: 1j * s[0] * _flag_diag((md.n, md.n), (1.0, -1.0)),
                    smallest=dict(n=2)),
    "slgr-star-h": Family(
        group=lambda md: G.su(2 * md.n),
        module=lambda md: ModuleDescriptor("Alt2", 2 * md.n, COMPLEX),
        base=lambda md, s: G.J2n(2 * md.n), mp_dim=lambda md: md.n * (2 * md.n - 1),
        orbit=_same_singular_values, smallest=dict(n=2)),
    "sogr-c": Family(**_skew(lambda md: 2 * md.n), base=lambda md, s: G.J2n(2 * md.n),
                     smallest=dict(n=2)),
    "igr": Family(**_skew(lambda md: md.n), spectrum=NONZERO,
                  base=lambda md, s: _pad(s[0] * G.J2n(2 * md.k), md.n),
                  smallest=dict(n=5, k=2), k_bound="2k <= n"),
    "gr-indefinite": Family(
        group=lambda md: G.so_pq(*md.sizes),
        module=lambda md: ModuleDescriptor("Sym2Traceless", sum(md.sizes), REAL,
                                           form=G.Ipq(*md.sizes)),
        spectrum=INDEFINITE_TWO_BLOCK, base=_indefinite,
        mp_dim=lambda md: (sum(md.sizes) + 2) * (sum(md.sizes) - 1) // 2,
        orbit=_same_eigenvalues, smallest=dict(n=2, pq=(1, 1), sizes=(2, 2))),
    # flags: one spectral value per block
    "fl-real": Family(**_symmetric(REAL), smallest=dict(n=4, ks=(1, 2))),
    "fl-complex": Family(**_UNITARY, smallest=dict(n=3, ks=(1, 2))),
    "fl-quaternionic": Family(**_QUATERNIONIC, smallest=dict(n=3, ks=(1, 2))),
    "ifl-even": Family(**_skew(lambda md: 2 * md.n), spectrum=SIGNED_FLAG,
                       base=lambda md, s: _skew_flag(md.parts, s), smallest=dict(n=3, ks=(1, 2))),
    "ifl-odd": Family(**_skew(lambda md: 2 * md.n + md.p), spectrum=SIGNED_FLAG,
                      base=lambda md, s: _pad(_skew_flag(md.parts, s), 2 * md.n + md.p),
                      smallest=dict(n=2, ks=(1,), p=1)),
    "fl-sp": Family(**_symplectic(), smallest=dict(n=3, ks=(1, 2), field=REAL)),
    "lfl": Family(**_COMPACT_SYMPLECTIC, spectrum=SIGNED_FLAG,
                  base=lambda md, s: 1j * _doubled(_flag(md, s), -1),
                  smallest=dict(n=3, ks=(1, 2))),
    # Stiefel manifolds: frames under left multiplication
    "st-noncompact-real": Family(
        **_frames(lambda n: G.sl(n, REAL), REAL, _unimodular_frame, FRAME),
        smallest=dict(n=3, k=2)),
    "st-noncompact-complex": Family(
        **_frames(lambda n: G.sl(n, COMPLEX), COMPLEX, _unimodular_frame, FRAME),
        smallest=dict(n=3, k=2)),
    "stiefel-real": Family(
        **_frames(G.so, REAL, _orthonormal_frame, ORTHONORMAL_FRAME),
        smallest=dict(n=4, k=2)),
    "stiefel-complex": Family(
        **_frames(G.su, COMPLEX, _orthonormal_frame, ORTHONORMAL_FRAME),
        smallest=dict(n=3, k=2)),
    "stiefel-quaternionic": Family(
        group=lambda md: G.sp_compact(2 * md.n),
        module=lambda md: ModuleDescriptor("RectNK", 2 * md.n, COMPLEX, k=2 * md.k),
        base=_quaternionic_frame, mp_dim=lambda md: 4 * md.n * md.k,
        orbit=_symplectic_frame, smallest=dict(n=2, k=1), k_bound="k <= n"),
}


@dataclass(eq=False)
class ManifoldDescriptor:
    """One of the supported manifold families with its size parameters.

    ``n`` is the ambient size parameter of the family (the symplectic rank
    for rows built on Sp_{2n}); ``k`` the plane/frame size; ``ks`` the
    strictly increasing flag sizes; ``p`` the odd part of ifl-odd;
    ``pq``/``sizes`` the (p, q) plane type and (m, n) ambient split of the
    indefinite Grassmannian; ``field`` the field of fl-sp.  A parameter the
    family does not take must be left None.  ``spectrum`` overrides the
    default integer spectral parameters.
    """

    family: str
    n: int
    k: int | None = None
    ks: tuple[int, ...] | None = None
    p: int | None = None
    pq: tuple[int, int] | None = None
    sizes: tuple[int, int] | None = None
    field: str | None = None
    spectrum: tuple | None = None

    def __post_init__(self):
        row = FAMILIES.get(self.family)
        if row is None:
            raise InvalidDescriptor(f"unknown manifold family {self.family!r}")
        for name in ("k", "ks", "p", "pq", "sizes", "field"):
            if getattr(self, name) is not None and name not in row.smallest:
                raise InvalidDescriptor(f"{self.family} takes no {name}")
        if row.k_bound is not None:
            if self.k is None or self.k < 1:
                raise InvalidDescriptor(f"{self.family} needs k >= 1")
            if self.k > _K_BOUNDS[row.k_bound](self.n):
                raise InvalidDescriptor(f"{self.family} needs {row.k_bound}")
        if "ks" in row.smallest:
            if not self.ks or any(a >= b for a, b in zip(self.ks, self.ks[1:])):
                raise InvalidDescriptor("flag sizes must be strictly increasing")
            if self.ks[0] < 1 or self.ks[-1] >= self.n:
                raise InvalidDescriptor("flag sizes must satisfy 0 < k_1 < ... < n")
            self.ks = tuple(self.ks)
        if "p" in row.smallest and (self.p is None or self.p < 1):
            raise InvalidDescriptor(f"{self.family} needs an odd part p >= 1")
        if "pq" in row.smallest:
            if self.pq is None or self.sizes is None or (len(self.pq), len(self.sizes)) != (2, 2):
                raise InvalidDescriptor(f"{self.family} needs pq=(p,q) and sizes=(m,n)")
            p, q = self.pq
            mm, nn = self.sizes
            if not (0 <= p <= mm and 0 <= q <= nn):
                raise InvalidDescriptor("need p <= m and q <= n")
            if (p, q) in ((0, 0), (mm, nn)):
                raise InvalidDescriptor("the (p,q)-plane must be proper")
        if "field" in row.smallest and self.field not in (REAL, COMPLEX):
            raise InvalidDescriptor(f"{self.family} needs field 'R' or 'C'")
        if self.spectrum is not None:
            if row.spectrum is None:
                raise InvalidDescriptor(f"{self.family} takes no spectrum")
            self.spectrum = tuple(self.spectrum)
            if not all(map(math.isfinite, self.spectrum)):
                raise InvalidSpectrum("spectral values must be finite")

    @property
    def parts(self) -> tuple[int, ...]:
        """Flag block sizes n_i = k_i - k_{i-1} including the tail block; a
        Grassmannian of k-planes is the one-step flag ks = (k,)."""
        ks = (0,) + (self.ks or (self.k,)) + (self.n,)
        return tuple(ks[i + 1] - ks[i] for i in range(len(ks) - 1))

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "k": self.k,
            "ks": list(self.ks) if self.ks else None,
            "p": self.p,
            "pq": list(self.pq) if self.pq else None,
            "sizes": list(self.sizes) if self.sizes else None,
            "field": self.field,
            "spectrum": None if self.spectrum is None else [float(s) for s in self.spectrum],
        }


@dataclass
class EmbeddedPoint:
    manifold: ManifoldDescriptor
    value: np.ndarray
    module: ModuleDescriptor

    def to_json(self) -> dict:
        return {
            "manifold": self.manifold.to_json(),
            "value": mat_to_json(self.value),
            "module": self.module.to_json(),
            # the realization is valid at any size; only the optimality of
            # the target dimension needs the family threshold
            "minimality_advisory": minimality_advisory(self.manifold),
        }


def group(md: ManifoldDescriptor) -> G.GroupDescriptor:
    return FAMILIES[md.family].group(md)


def module(md: ManifoldDescriptor) -> ModuleDescriptor:
    return FAMILIES[md.family].module(md)


def action(md: ManifoldDescriptor) -> ActionKind:
    return module(md).action


def default_spectrum(md: ManifoldDescriptor) -> tuple:
    rule = FAMILIES[md.family].spectrum
    return () if rule is None else rule.default(md)


def base_point(md: ManifoldDescriptor) -> EmbeddedPoint:
    """The canonical point of the orbit, at group element = identity."""
    row = FAMILIES[md.family]
    spec = md.spectrum if md.spectrum is not None else default_spectrum(md)
    if row.spectrum is not None:
        row.spectrum.check(md, spec)
    mod = module(md)
    X = row.base(md, spec)
    if mod.field == COMPLEX:
        X = X.astype(complex)
    if not module_contains(mod, X):
        raise ManirepError(f"base point of {md.family} escapes its module")
    return EmbeddedPoint(manifold=md, value=X, module=mod)


def embed(md: ManifoldDescriptor, g: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> EmbeddedPoint:
    """Image of a group element: the action applied to the base point."""
    gp = group(md)
    if not G.contains(gp, g, tol):
        raise NotInGroup(f"element is not in the acting group of {md.family}")
    base = base_point(md)
    val = act(action(md), g, base.value)
    if not module_contains(base.module, val, tol):
        raise SizeMismatch("image escaped the module; input is likely far from the group")
    return EmbeddedPoint(manifold=md, value=val, module=base.module)


def lift_subspace(md: ManifoldDescriptor, Y: np.ndarray) -> np.ndarray:
    """Complete an n x k basis matrix to an element of the acting group.

    Supported for the rows acting on R^n or C^n by left multiplication or
    two-block congruence (gr-real, gr-complex, stiefel-*, st-noncompact-*).
    For Grassmann rows the columns of Y span the plane; for Stiefel rows Y
    is the frame itself (orthonormal for the compact rows) and reappears
    verbatim as the first k columns of the lift.  The completion is
    orthonormal (one complete QR of Y) with a determinant fix on a later
    column, so it needs k < n for the special/compact groups.
    """
    lift = FAMILIES[md.family].lift
    if lift is None:
        raise InvalidDescriptor(f"no subspace lift for {md.family}")
    gp = group(md)
    n, k = gp.n, md.k
    Y = np.asarray(Y).astype(gp.dtype)
    if Y.shape != (n, k):
        raise SizeMismatch(f"expected {n} x {k}")
    if numerical_rank(Y, strict=True) != k:
        raise SizeMismatch("basis matrix must have full column rank")

    if lift == ORTHONORMAL_FRAME and frob(Y.conj().T @ Y - np.eye(k)) > 1e-8:
        raise SizeMismatch("compact Stiefel frames must be orthonormal")
    A = np.linalg.qr(Y, mode="complete")[0]  # starts with an orthonormal basis of col(Y)
    if lift != PLANE:
        A[:, :k] = Y

    det = np.linalg.det(A)
    if k == n:
        if abs(det - 1.0) > 1e-8:
            raise NotInGroup("a full frame must already have determinant one")
        return A
    if gp.family == G.SO:
        if det < 0:
            A[:, -1] = -A[:, -1]
    else:  # SL and SU: scale the last column to determinant one
        A[:, -1] = A[:, -1] / det
    return A


def check_equivariance(md: ManifoldDescriptor, trials: int, seed: int) -> float:
    """Max relative residual of image(g1 g2) against g1 . image(g2)."""
    if trials < 1:
        raise InvalidDescriptor("need at least one trial")
    gp = group(md)
    base = base_point(md)
    kind = action(md)
    worst = 0.0
    for t in range(trials):
        g1 = G.sample(gp, seed + 2 * t)
        g2 = G.sample(gp, seed + 2 * t + 1)
        img2 = act(kind, g2, base.value)
        lhs = act(kind, g1 @ g2, base.value)
        rhs = act(kind, g1, img2)
        worst = max(worst, frob(lhs - rhs) / max(frob(img2), 1e-300))
    return worst


def tangent_dim(md: ManifoldDescriptor) -> int:
    """Rank of the infinitesimal action at the base point."""
    gp = group(md)
    base = base_point(md)
    stab = stabilizer_dim_in_group(gp, base.module, action(md), base.value)
    return G.group_dim(gp) - stab


def mp_dimension(md: ManifoldDescriptor) -> int:
    """Least possible target dimension for the family (its closed form)."""
    return FAMILIES[md.family].mp_dim(md)


def low_dim_advisory(g: G.GroupDescriptor) -> bool:
    """True when g is below ``weyl.LOW_DIM_THRESHOLD``, where the catalog of its irreducibles
    of dimension <= n^2, and with it the minimality of the families it acts on, is proved."""
    algebra, n = G.algebra_of(g)
    return n < weyl.LOW_DIM_THRESHOLD[algebra]


def minimality_advisory(md: ManifoldDescriptor) -> bool:
    """True when the size is below the range where minimality is proved."""
    return low_dim_advisory(group(md))


def on_orbit(md: ManifoldDescriptor, X: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether X carries the spectral/rank signature of the family's orbit."""
    base = base_point(md)
    mod = base.module
    if not module_contains(mod, X, tol):
        return False
    atol = tol.cutoff(max(frob(base.value), 1.0))
    return FAMILIES[md.family].orbit(X, base.value, atol)


def smallest_legal(family: str) -> ManifoldDescriptor:
    """The smallest parameter set on which the family is well defined."""
    return ManifoldDescriptor(family=family, **FAMILIES[family].smallest)


def all_smallest_legal() -> list[ManifoldDescriptor]:
    """The full family sweep (a family taking a field appears once per field)."""
    out = []
    for fam, row in FAMILIES.items():
        md = smallest_legal(fam)
        out.append(md)
        if "field" in row.smallest:
            out.append(replace(md, field=COMPLEX))
    return out


def grow(md: ManifoldDescriptor, g: int) -> ManifoldDescriptor:
    """The same manifold row, ``g`` sizes above its smallest legal one: the first size for
    gr-indefinite, n for every other family."""
    if md.family == "gr-indefinite":
        return replace(md, sizes=(md.sizes[0] + g, md.sizes[1]))
    return replace(md, n=md.n + g)


# ---------------------------------------------------------------------------
# Cartan embeddings of the classical symmetric spaces


#: type -> (needs k, (n, k) -> (group, the matrix M of the involution),
#: cartan map (Q, M), aligned minimal map (Q, M)).  The minimal map is the
#: matching orbit map with its base point chosen in the same orbit so that a
#: constant right factor can exist at all; for CI that representative is -J
#: (same +-i spectrum as i*diag(I, -I)), and for CII the involution is the
#: quaternion-compatible diag(I_k, -I_{n-k}, I_k, -I_{n-k}).
_CARTAN = {
    "AI": (False, lambda n, k: (G.su(n), None),
           lambda Q, M: Q @ Q.T, lambda Q, M: Q @ Q.T),
    "AII": (False, lambda n, k: (G.su(2 * n), G.J2n(2 * n).astype(complex)),
            lambda Q, J: Q @ J @ Q.T @ J.T, lambda Q, J: Q @ J @ Q.T),
    "AIII": (True, lambda n, k: (G.su(n), G.Ipq(k, n - k).astype(complex)),
             lambda Q, D: Q @ (1j * D) @ Q.conj().T @ D, lambda Q, D: 1j * Q @ D @ Q.conj().T),
    "BDI": (True, lambda n, k: (G.so(n), G.Ipq(k, n - k)),
            lambda Q, D: Q @ D @ Q.T @ D, lambda Q, D: Q @ D @ Q.T),
    "DIII": (False, lambda n, k: (G.so(2 * n), G.J2n(2 * n)),
             lambda Q, J: Q @ J @ Q.T @ J.T, lambda Q, J: Q @ J @ Q.T),
    "CI": (False, lambda n, k: (G.sp_compact(2 * n), G.J2n(2 * n).astype(complex)),
           lambda Q, J: Q @ J @ Q.conj().T @ J.T, lambda Q, J: Q @ (-J) @ Q.conj().T),
    "CII": (True, lambda n, k: (G.sp_compact(2 * n), _doubled(G.Ipq(k, n - k)).astype(complex)),
            lambda Q, D: Q @ D @ Q.conj().T @ D, lambda Q, D: 1j * Q @ D @ Q.conj().T),
}
CARTAN_TYPES = tuple(_CARTAN)


@dataclass
class CartanComparison:
    ctype: str
    params: dict
    identical: bool
    right_factor: np.ndarray | None
    residual: float

    def to_json(self) -> dict:
        return {
            "type": self.ctype,
            "params": self.params,
            "identical": self.identical,
            "right_factor": None if self.identical else mat_to_json(self.right_factor, COMPLEX),
            "residual": self.residual,
        }


def _cartan_maps(ctype: str, n: int, k: int | None):
    """(group, cartan map, aligned minimal map) for a symmetric-space type."""
    if ctype not in _CARTAN:
        raise InvalidDescriptor(f"unknown symmetric-space type {ctype!r}")
    needs_k, build, cartan, minimal = _CARTAN[ctype]
    if needs_k and (k is None or not 0 <= k <= n):
        raise InvalidDescriptor(f"{ctype} needs 0 <= k <= n")
    gp, M = build(n, k)
    return gp, (lambda Q: cartan(Q, M)), (lambda Q: minimal(Q, M))


def cartan_compare(
    ctype: str,
    n: int,
    k: int | None = None,
    trials: int = 20,
    seed: int = 0,
) -> CartanComparison:
    """Compare the Cartan embedding with the matching orbit realization.

    Samples group elements and solves for the constant invertible C with
    cartan(Q) = minimal(Q) C, verifying it across all trials.  Raises
    :class:`NoConstantFactor` when the relation fails.
    """
    if trials < 1:
        raise InvalidDescriptor("need at least one trial")
    gp, cartan, minimal = _cartan_maps(ctype, n, k)
    samples = [G.sample(gp, seed + t) for t in range(max(trials, 2))]
    C = np.linalg.solve(minimal(samples[0]), cartan(samples[0]))
    worst = 0.0
    for Q in samples:
        lhs = cartan(Q)
        rhs = minimal(Q) @ C
        worst = max(worst, frob(lhs - rhs) / max(frob(lhs), 1e-300))
    if worst > 1e-8:
        raise NoConstantFactor(
            f"type {ctype}: residual {worst:.3e} exceeds 1e-08; no constant right factor"
        )
    identical = frob(C - np.eye(C.shape[0])) <= 1e-8
    return CartanComparison(
        ctype=ctype,
        params={"n": n, "k": k},
        identical=identical,
        right_factor=None if identical else C,
        residual=worst,
    )
