"""Classical matrix groups: descriptors, membership, algebras, sampling.

A :class:`GroupDescriptor` names a concrete matrix subgroup of GL_n.  The
core families are the special linear, orthogonal, symplectic, unitary,
indefinite-orthogonal, and compact-symplectic groups; GL, O, and U are also
supported so that stabilizer computations can hand back their block factors
as first-class descriptors.  A nonstandard symmetric form B or skew form
Omega selects a conjugated copy of the same abstract group.

Lie algebra bases are read-only (d, n, n) arrays built from ``numkit`` unit
stacks and kept in its basis cache (see ``lie_algebra_basis``).

Dimensions follow the convention of reporting over the group's natural
scalar field: complex dimension for the complex groups (field ``C`` with a
complex-linear algebra), real dimension for the compact and indefinite real
forms (SU, SO_{p,q}, compact Sp, U).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InvalidDescriptor, ManirepError, SizeMismatch
from .numkit import (ALL, ANTI_HERMITIAN, COMPLEX, DEFAULT_TOL, REAL, SKEW, SYM, Tolerance,
                     cached_basis, frob, mat_from_json, mat_to_json, span_kernel, unit_stack)

SL, SO, SP, SU, SOPQ, SP_COMPACT, GL, O, U = (
    "SL", "SO", "Sp", "SU", "SOpq", "SpCompact", "GL", "O", "U",
)

#: families whose algebra is a complex vector space
_COMPLEX_LINEAR = {SL: None, SO: None, SP: None, GL: None, O: None}
#: families whose matrices are complex but whose algebra is only real-linear
_FIXED_FIELD = {SU: COMPLEX, SOPQ: REAL, SP_COMPACT: COMPLEX, U: COMPLEX}


def J2n(n: int) -> np.ndarray:
    """Standard skew form [[0, I], [-I, 0]] of size n (n even)."""
    if n % 2:
        raise InvalidDescriptor(f"skew form needs even size, got {n}")
    m = n // 2
    Z = np.zeros((n, n))
    Z[:m, m:] = np.eye(m)
    Z[m:, :m] = -np.eye(m)
    return Z


def Ipq(p: int, q: int) -> np.ndarray:
    return np.diag([1.0] * p + [-1.0] * q)


@dataclass(eq=False)
class GroupDescriptor:
    family: str
    n: int
    field: str = REAL
    signature: tuple[int, int] | None = None
    form: np.ndarray | None = None

    def __post_init__(self):
        if self.family in _FIXED_FIELD:
            self.field = _FIXED_FIELD[self.family]
        if self.field not in (REAL, COMPLEX):
            raise InvalidDescriptor(f"unknown field {self.field!r}")
        if self.n < 1:
            raise InvalidDescriptor("matrix size must be positive")
        if self.family in (SP, SP_COMPACT) and self.n % 2:
            raise InvalidDescriptor("symplectic groups need even matrix size")
        if (self.signature is not None) != (self.family == SOPQ):
            raise InvalidDescriptor("signature is required exactly for SOpq")
        if self.family == SOPQ:
            p, q = self.signature
            if p < 0 or q < 0 or p + q != self.n:
                raise InvalidDescriptor("signature must satisfy p+q=n")
        if self.form is not None:
            self.form = np.asarray(self.form, dtype=complex if self.field == COMPLEX else float)
            if self.form.shape != (self.n, self.n):
                raise InvalidDescriptor("form has wrong size")
            sym = frob(self.form - self.form.T)
            skew = frob(self.form + self.form.T)
            if self.family in (SO, O):
                if sym > 1e-12 * max(frob(self.form), 1.0):
                    raise InvalidDescriptor("orthogonal families need a symmetric form")
            elif self.family in (SP, SP_COMPACT):
                if skew > 1e-12 * max(frob(self.form), 1.0):
                    raise InvalidDescriptor("symplectic families need a skew form")
            else:
                raise InvalidDescriptor(f"family {self.family} takes no form")
            if np.linalg.matrix_rank(self.form) < self.n:
                raise InvalidDescriptor("form must be nondegenerate")
            if self.family == SP_COMPACT:
                s = np.linalg.svd(self.form, compute_uv=False)
                if s[0] - s[-1] > 1e-10 * s[0]:
                    # otherwise SU_n cap Sp(C; Omega) is a smaller group
                    raise InvalidDescriptor(
                        "compact symplectic forms must be proportional to a unitary matrix"
                    )

    @property
    def is_complex_group(self) -> bool:
        """True when the Lie algebra is a complex vector space."""
        return self.family in _COMPLEX_LINEAR and self.field == COMPLEX

    @property
    def dtype(self):
        matrices_complex = self.field == COMPLEX
        return complex if matrices_complex else float

    def form_matrix(self) -> np.ndarray | None:
        """The bilinear form defining this copy (None for SL/GL/SU/U)."""
        if self.form is not None:
            return self.form
        if self.family in (SO, O):
            return np.eye(self.n, dtype=self.dtype)
        if self.family == SOPQ:
            return Ipq(*self.signature)
        if self.family in (SP, SP_COMPACT):
            return J2n(self.n).astype(self.dtype)
        return None

    def cache_key(self) -> tuple:
        fk = None if self.form is None else self.form.tobytes()
        return (self.family, self.n, self.field, self.signature, fk)

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "field": self.field,
            "signature": list(self.signature) if self.signature else None,
            "form": None if self.form is None else mat_to_json(self.form, self.field),
        }

    @staticmethod
    def from_json(obj: dict) -> "GroupDescriptor":
        return GroupDescriptor(
            family=obj["family"],
            n=int(obj["n"]),
            field=obj.get("field", REAL),
            signature=tuple(obj["signature"]) if obj.get("signature") else None,
            form=None if obj.get("form") is None else mat_from_json(obj["form"]),
        )


def sl(n, field=REAL):
    return GroupDescriptor(SL, n, field)


def so(n, field=REAL, form=None):
    return GroupDescriptor(SO, n, field, form=form)


def sp(n, field=REAL, form=None):
    return GroupDescriptor(SP, n, field, form=form)


def su(n):
    return GroupDescriptor(SU, n, COMPLEX)


def so_pq(p, q):
    return GroupDescriptor(SOPQ, p + q, REAL, signature=(p, q))


def sp_compact(n, form=None):
    return GroupDescriptor(SP_COMPACT, n, COMPLEX, form=form)


def gl(n, field=REAL):
    return GroupDescriptor(GL, n, field)


def orth(n, field=REAL, form=None):
    return GroupDescriptor(O, n, field, form=form)


def unitary(n):
    return GroupDescriptor(U, n, COMPLEX)


def group_dim(g: GroupDescriptor) -> int:
    """Dimension over the group's scalar field (see module docstring)."""
    n = g.n
    if g.family in (SL, SU):
        return n * n - 1
    if g.family in (SO, O, SOPQ):
        return n * (n - 1) // 2
    if g.family in (SP, SP_COMPACT):
        return n * (n + 1) // 2
    if g.family == GL:
        return n * n
    if g.family == U:
        return n * n
    raise InvalidDescriptor(f"unknown family {g.family!r}")


def contains(g: GroupDescriptor, A: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Check the defining relations of g on A to tolerance."""
    A = np.asarray(A)
    if A.shape != (g.n, g.n):
        raise SizeMismatch(f"expected {g.n}x{g.n}, got {A.shape}")
    A = A.astype(complex)
    if g.field == REAL and np.abs(A.imag).max(initial=0.0) > tol.abs_eps:
        return False
    scale = max(1.0, float(np.linalg.norm(A, 2)) ** 2)
    bound = tol.cutoff(scale)

    B = g.form_matrix()
    if B is not None:
        Bc = B.astype(complex)
        if frob(A.T @ Bc @ A - Bc) > bound * max(frob(Bc), 1.0):
            return False
    if g.family in (SU, U, SP_COMPACT):
        if frob(A.conj().T @ A - np.eye(g.n)) > bound:
            return False
    det = np.linalg.det(A)
    if g.family in (SL, SO, SU, SP, SOPQ, SP_COMPACT):
        if abs(det - 1.0) > bound:
            return False
    elif g.family in (GL, O, U):
        if abs(det) < tol.abs_eps:
            return False
        if g.family == O and min(abs(det - 1.0), abs(det + 1.0)) > bound:
            return False
    return True


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The stack a[0], b[0], a[1], b[1], ... of two equally long stacks."""
    return np.stack([a, b], axis=1).reshape(-1, *a.shape[1:])


def lie_algebra_basis(g: GroupDescriptor) -> np.ndarray:
    """Basis of the tangent space at the identity, a read-only (d, n, n) array.

    Complex groups get a basis over C; real forms a basis over R.  A basis
    with zero imaginary part is stored as a real array.  The length always
    equals ``group_dim``.  A copy twisted by a form B is B^{-1}
    times the skew (orthogonal) or symmetric (symplectic) units; the
    twisted compact symplectic algebra is the part of the anti-Hermitian
    span that also solves the form condition.
    """
    return cached_basis(_lie_algebra_basis, g)


def _lie_algebra_basis(g: GroupDescriptor) -> np.ndarray:
    n = g.n
    dt = g.dtype
    if g.family in (SL, GL):
        E = unit_stack(ALL, n).astype(dt)
        diag = E[:: n + 1]
        off = np.delete(E, np.s_[:: n + 1], axis=0)
        basis = np.concatenate([off, diag if g.family == GL else diag[:-1] - diag[-1]])
    elif g.family in (SO, O, SOPQ, SP):
        units = unit_stack(SYM if g.family == SP else SKEW, n).astype(dt)
        basis = np.asarray(np.linalg.inv(g.form_matrix()) @ units, dtype=dt)
    elif g.family in (SU, U):
        skew = unit_stack(SKEW, n)
        diag = 1j * unit_stack(ALL, n)[:: n + 1]
        # E_ij - E_ji and i(E_ij + E_ji) = i|E_ij - E_ji| for i < j, then the imaginary diagonal
        basis = np.concatenate([_interleave(skew, 1j * np.abs(skew)),
                                diag if g.family == U else diag[:-1] - diag[-1]])
    elif g.family == SP_COMPACT and g.form is None:
        basis = _sp_compact_basis(n // 2)
    elif g.family == SP_COMPACT:
        Om = g.form_matrix().astype(complex)
        basis = span_kernel(unit_stack(ANTI_HERMITIAN, n), [lambda Z: Z.mT @ Om + Om @ Z],
                            real=True)
    else:
        raise InvalidDescriptor(f"unknown family {g.family!r}")
    if len(basis) != group_dim(g):
        raise ManirepError(f"Lie basis of {g.family}_{n} has the wrong length {len(basis)}")
    if np.iscomplexobj(basis) and not basis.imag.any():
        basis = np.ascontiguousarray(basis.real)
    return basis


def _sp_compact_basis(m: int) -> np.ndarray:
    """Block parametrization [[C, D], [-D*, -C^T]] of sp_{2m} cap u_{2m}: C
    anti-Hermitian, D complex symmetric."""
    skew = unit_stack(SKEW, m)
    C = np.concatenate([1j * unit_stack(ALL, m)[:: m + 1], _interleave(skew, 1j * np.abs(skew))])
    D = _interleave(unit_stack(SYM, m), 1j * unit_stack(SYM, m))
    c = len(C)
    Z = np.zeros((c + len(D), 2 * m, 2 * m), dtype=complex)
    Z[:c, :m, :m] = C
    Z[:c, m:, m:] = -C.mT
    Z[c:, :m, m:] = D
    Z[c:, m:, :m] = -D.conj().mT
    return Z


def sample(g: GroupDescriptor, seed: int, scale: float = 1.0) -> np.ndarray:
    """A deterministic, well-conditioned generic element of g.

    Compact families use QR of a Gaussian ensemble (Haar-approximate);
    the compact symplectic and all noncompact families exponentiate a
    scaled random algebra element.
    """
    rng = np.random.default_rng(seed)
    n = g.n
    if g.family in (SO, O) and g.form is None and g.field == REAL:
        A = rng.standard_normal((n, n))
        Q, R = np.linalg.qr(A)
        Q = Q @ np.diag(np.sign(np.diag(R)))
        if g.family == SO and np.linalg.det(Q) < 0:
            Q[:, 0] = -Q[:, 0]
        return Q
    if g.family in (SU, U):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Q, R = np.linalg.qr(A)
        d = np.diag(R)
        Q = Q @ np.diag(d / np.abs(d))
        if g.family == SU:
            Q = Q * np.linalg.det(Q) ** (-1.0 / n)
        return Q
    if g.family == SL:
        A = rng.standard_normal((n, n))
        if g.field == COMPLEX:
            A = A + 1j * rng.standard_normal((n, n))
        A = A + 2.0 * np.eye(n, dtype=A.dtype)  # keep well away from singular
        det = np.linalg.det(A)
        if g.field == REAL:
            if det < 0:
                A[:, 0] = -A[:, 0]
                det = -det
            return A * det ** (-1.0 / n)
        return A * det ** (-1.0 / n)
    if g.family == GL:
        A = rng.standard_normal((n, n))
        if g.field == COMPLEX:
            A = A + 1j * rng.standard_normal((n, n))
        return A + 2.0 * np.eye(n, dtype=A.dtype)
    # exp of a scaled random algebra element
    basis = lie_algebra_basis(g)
    coeff = rng.standard_normal(len(basis))
    if g.is_complex_group:
        coeff = coeff + 1j * rng.standard_normal(len(basis))
    Z = sum(c * b for c, b in zip(coeff, basis))
    Z = Z * (scale / max(frob(Z), 1e-12))
    return scipy.linalg.expm(Z)


@dataclass(frozen=True)
class ProductGroup:
    """A direct product of block factors, e.g. U_2 x U_7 inside GL_9."""

    factors: tuple[GroupDescriptor, ...]

    @property
    def n(self) -> int:
        return sum(f.n for f in self.factors)


#: per-family dimension of the image of the determinant character (real dim
#: for real/compact groups, complex dim for GL over C).
_DET_IMAGE_DIM = {
    SL: 0, SO: 0, SP: 0, SU: 0, SOPQ: 0, SP_COMPACT: 0, O: 0,
    GL: 1, U: 1,
}


def special_subgroup_dim(g: GroupDescriptor | ProductGroup) -> int:
    """Dimension of S(G) = G intersect SL_n.

    Cutting by det = 1 costs one dimension exactly when the determinant
    character of G has nondiscrete image (a U_k or GL_k factor); otherwise
    the condition is discrete and the dimension is unchanged.
    """
    if isinstance(g, GroupDescriptor):
        factors = (g,)
    else:
        factors = g.factors
    total = sum(group_dim(f) for f in factors)
    det_dim = max(_DET_IMAGE_DIM[f.family] for f in factors)
    return total - det_dim
