"""Classical matrix groups: descriptors, membership, algebras, sampling.

A :class:`GroupDescriptor` names a concrete matrix subgroup of GL_n.  The
core families are the special linear, orthogonal, symplectic, unitary,
indefinite-orthogonal, and compact-symplectic groups; GL, O, and U are also
supported so that stabilizer computations can hand back their block factors
as first-class descriptors.  Each family is one :class:`Traits` row of
``TRAITS``, which every function below reads; only SO_{p,q}, whose form
comes from its signature, is told apart by name.  A nonstandard symmetric
form B or skew form Omega (checked by ``checked_form``) selects a
conjugated copy of the same abstract group.

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

from .errors import InvalidDescriptor, ManirepError, SizeMismatch
from .numkit import (ALL, ANTI_HERMITIAN, COMPLEX, DEFAULT_TOL, REAL, SKEW, SYM, Tolerance,
                     cached_basis, frob, mat_from_json, mat_to_json, span_kernel, unit_stack)

SL, SO, SP, SU, SOPQ, SP_COMPACT, GL, O, U = (
    "SL", "SO", "Sp", "SU", "SOpq", "SpCompact", "GL", "O", "U",
)


@dataclass(frozen=True)
class Traits:
    """One group family: the ``form`` it preserves (``SYM``, ``SKEW`` or None),
    ``special`` (det = 1), ``unitary`` (A*A = I), and the ``field`` of a real
    form (None when the algebra is complex-linear and the descriptor picks it)."""

    form: str | None
    special: bool
    unitary: bool
    field: str | None


TRAITS = {
    SL: Traits(None, True, False, None),
    SO: Traits(SYM, True, False, None),
    SP: Traits(SKEW, True, False, None),
    SU: Traits(None, True, True, COMPLEX),
    SOPQ: Traits(SYM, True, False, REAL),
    SP_COMPACT: Traits(SKEW, True, True, COMPLEX),
    GL: Traits(None, False, False, None),
    O: Traits(SYM, False, False, None),
    U: Traits(None, False, True, COMPLEX),
}


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


def checked_form(F, n: int, skew: bool, dtype) -> np.ndarray:
    """F as an n x n array of dtype, checked symmetric (skew when ``skew``) to
    1e-12 relative and nondegenerate."""
    F = np.asarray(F, dtype=dtype)
    if F.shape != (n, n):
        raise InvalidDescriptor("form has wrong size")
    if frob(F + (1 if skew else -1) * F.T) > 1e-12 * max(frob(F), 1.0):
        raise InvalidDescriptor(f"form must be {'skew' if skew else 'symmetric'}")
    if np.linalg.matrix_rank(F) < n:
        raise InvalidDescriptor("form must be nondegenerate")
    return F


@dataclass(eq=False)
class GroupDescriptor:
    family: str
    n: int
    field: str = REAL
    signature: tuple[int, int] | None = None
    form: np.ndarray | None = None

    def __post_init__(self):
        t = TRAITS.get(self.family)
        if t is None:
            raise InvalidDescriptor(f"unknown family {self.family!r}")
        self.field = t.field or self.field
        if self.field not in (REAL, COMPLEX):
            raise InvalidDescriptor(f"unknown field {self.field!r}")
        if self.n < 1:
            raise InvalidDescriptor("matrix size must be positive")
        if t.form == SKEW and self.n % 2:
            raise InvalidDescriptor("symplectic groups need even matrix size")
        if (self.signature is not None) != (self.family == SOPQ):
            raise InvalidDescriptor("signature is required exactly for SOpq")
        if self.signature is not None:
            p, q = self.signature
            if p < 0 or q < 0 or p + q != self.n:
                raise InvalidDescriptor("signature must satisfy p+q=n")
        if self.form is not None:
            if t.form is None or self.signature is not None:
                raise InvalidDescriptor(f"family {self.family} takes no form")
            self.form = checked_form(self.form, self.n, t.form == SKEW, self.dtype)
            if t.unitary:  # else U_n cap G(F) is a smaller group
                s = np.linalg.svd(self.form, compute_uv=False)
                if s[0] - s[-1] > 1e-10 * s[0]:
                    raise InvalidDescriptor(
                        "a unitary family's form must be proportional to a unitary matrix")

    @property
    def is_complex_group(self) -> bool:
        """True when the Lie algebra is a complex vector space."""
        return TRAITS[self.family].field is None and self.field == COMPLEX

    @property
    def dtype(self):
        matrices_complex = self.field == COMPLEX
        return complex if matrices_complex else float

    def form_matrix(self) -> np.ndarray | None:
        """The bilinear form defining this copy (None for SL/GL/SU/U)."""
        if self.form is not None:
            return self.form
        if self.signature is not None:
            return Ipq(*self.signature)
        form = TRAITS[self.family].form
        if form == SYM:
            return np.eye(self.n, dtype=self.dtype)
        if form == SKEW:
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
    t = TRAITS[g.family]
    if t.form == SYM:
        return n * (n - 1) // 2
    if t.form == SKEW:
        return n * (n + 1) // 2
    return n * n - t.special


def contains(g: GroupDescriptor, A: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Check the defining relations of g on A to tolerance: the form, A*A = I
    when unitary, det = 1 when special, det = +-1 for a form group that is
    not, and det != 0 otherwise."""
    A = np.asarray(A)
    if A.shape != (g.n, g.n):
        raise SizeMismatch(f"expected {g.n}x{g.n}, got {A.shape}")
    A = A.astype(complex)
    if g.field == REAL and np.abs(A.imag).max(initial=0.0) > tol.abs_eps:
        return False
    scale = max(1.0, float(np.linalg.norm(A, 2)) ** 2)
    bound = tol.cutoff(scale)
    t = TRAITS[g.family]

    B = g.form_matrix()
    if B is not None:
        Bc = B.astype(complex)
        if frob(A.T @ Bc @ A - Bc) > bound * max(frob(Bc), 1.0):
            return False
    if t.unitary and frob(A.conj().T @ A - np.eye(g.n)) > bound:
        return False
    det = np.linalg.det(A)
    if t.special:
        if abs(det - 1.0) > bound:
            return False
    elif abs(det) < tol.abs_eps:
        return False
    elif t.form is not None and min(abs(det - 1.0), abs(det + 1.0)) > bound:
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
    t = TRAITS[g.family]
    if t.form is None:
        E = unit_stack(ALL, n)
        if t.unitary:
            skew = unit_stack(SKEW, n)
            # E_ij - E_ji and i(E_ij + E_ji) = i|E_ij - E_ji| for i < j, then i E_ii
            off, diag = _interleave(skew, 1j * np.abs(skew)), 1j * E[:: n + 1]
        else:
            E = E.astype(g.dtype)
            off, diag = np.delete(E, np.s_[:: n + 1], axis=0), E[:: n + 1]
        basis = np.concatenate([off, diag[:-1] - diag[-1] if t.special else diag])
    elif not t.unitary:
        units = unit_stack(SYM if t.form == SKEW else SKEW, n).astype(g.dtype)
        basis = np.asarray(np.linalg.inv(g.form_matrix()) @ units, dtype=g.dtype)
    elif g.form is None:
        basis = _sp_compact_basis(n // 2)
    else:
        Om = g.form_matrix().astype(complex)
        basis = span_kernel(unit_stack(ANTI_HERMITIAN, n), [lambda Z: Z.mT @ Om + Om @ Z],
                            real=True)
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
    t = TRAITS[g.family]
    if t.form == SYM and t.field is None and g.form is None and g.field == REAL:
        A = rng.standard_normal((n, n))
        Q, R = np.linalg.qr(A)
        Q = Q @ np.diag(np.sign(np.diag(R)))
        if t.special and np.linalg.det(Q) < 0:
            Q[:, 0] = -Q[:, 0]
        return Q
    if t.form is None:
        A = rng.standard_normal((n, n))
        if g.field == COMPLEX:
            A = A + 1j * rng.standard_normal((n, n))
        if t.unitary:
            Q, R = np.linalg.qr(A)
            d = np.diag(R)
            A = Q @ np.diag(d / np.abs(d))
        else:
            A = A + 2.0 * np.eye(n, dtype=A.dtype)  # keep well away from singular
        if not t.special:
            return A
        det = np.linalg.det(A)
        if g.field == REAL and det < 0:
            A[:, 0] = -A[:, 0]
            det = -det
        return A * det ** (-1.0 / n)
    # exp of a scaled random algebra element
    basis = lie_algebra_basis(g)
    coeff = rng.standard_normal(len(basis))
    if g.is_complex_group:
        coeff = coeff + 1j * rng.standard_normal(len(basis))
    Z = sum(c * b for c, b in zip(coeff, basis))
    Z = Z * (scale / max(frob(Z), 1e-12))
    import scipy.linalg  # loaded here, not at import: only this expm needs it

    return scipy.linalg.expm(Z)
