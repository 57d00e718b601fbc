"""Classical matrix groups: descriptors, membership, algebras, sampling.

A :class:`GroupDescriptor` names a concrete matrix subgroup of GL_n.  The
core families are the special linear, orthogonal, symplectic, unitary,
indefinite-orthogonal, and compact-symplectic groups; GL, O, and U are also
supported so that stabilizer computations can hand back their block factors
as first-class descriptors.  Each family is one :class:`Traits` row of
``TRAITS``, which every function below reads (``algebra_of`` its algebra
type); its ``slots`` and ``divisor`` are the family's classification, read
by :mod:`manirep.classify`.  Only SO_{p,q}, whose form comes from its
signature, is told apart by name.  A nonstandard symmetric form B or skew
form Omega (checked by ``checked_form``) selects a conjugated copy of the
same abstract group; only the form families whose field the descriptor
picks (SO, Sp, O) take one.  A unitary family (SU, compact Sp, U) takes no
form, as does SO_{p,q}.  ``normal_frame`` carries such a copy to the same
family at a normal form, J, I or I_{p,q}, as P^-1 G0 P.

Lie algebra bases are read-only (d, n, n) arrays built from ``numkit`` unit
stacks and kept in its basis cache, each with its support, the list of its
nonzeros (see ``lie_algebra_basis``).

Dimensions follow the convention of reporting over the group's natural
scalar field: complex dimension for the complex groups (field ``C`` with a
complex-linear algebra), real dimension for the compact and indefinite real
forms (SU, SO_{p,q}, compact Sp, U).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (InvalidDescriptor, ManirepError, NonFinite, SizeMismatch, UnsupportedGroup,
                     optional_import)
from .numkit import (ALL, COMPLEX, DEFAULT_TOL, REAL, SKEW, SYM, Tolerance, cached_basis, frob,
                     mat_from_json, mat_to_json, numerical_rank, takagi, unit_stack, youla_skew)

SL, SO, SP, SU, SOPQ, SP_COMPACT, GL, O, U = (
    "SL", "SO", "Sp", "SU", "SOpq", "SpCompact", "GL", "O", "U",
)


@dataclass(frozen=True)
class Traits:
    """One group family: the ``form`` it preserves (``SYM``, ``SKEW`` or None),
    ``special`` (det = 1), ``unitary`` (A*A = I), the ``field`` of a real
    form (None when the algebra is complex-linear and the descriptor picks it),
    and the ``algebra`` type of its complexified Lie algebra as :mod:`manirep.weyl`
    names it (``"SL"``, ``"SO"`` or ``"SP"``; None for GL, O and U).

    ``slots`` and ``divisor`` are read by :mod:`manirep.classify`: each
    (name, kind, bound) slot is a multiplicity of 0..bound-1 copies of one
    module kind, and a target's admissibility value is (dim W - n^2) /
    ``divisor``.  A family without ``slots`` has no classification."""

    form: str | None
    special: bool
    unitary: bool
    field: str | None
    algebra: str | None
    slots: tuple[tuple[str, str, int], ...] | None = None
    divisor: int = 1


_SO_SLOTS = (("c", "Alt2", 3), ("d", "Sym2Traceless", 3))
TRAITS = {
    SL: Traits(None, True, False, None, "SL",
               (("c", "Alt2", 3), ("d", "Sym2", 2), ("e", "SLnTraceless", 2))),
    SO: Traits(SYM, True, False, None, "SO", _SO_SLOTS),
    SP: Traits(SKEW, True, False, None, "SP",
               (("c", "Sym2TracelessForm", 2), ("d", "Alt2Form", 2)), divisor=2),
    SU: Traits(None, True, True, COMPLEX, "SL", (("a", "SUAlgebra", 2),)),
    SOPQ: Traits(SYM, True, False, REAL, "SO", _SO_SLOTS),
    SP_COMPACT: Traits(SKEW, True, True, COMPLEX, "SP",
                       (("c", "SymTracelessCapSU", 2), ("d", "SpAlgebra", 2))),
    GL: Traits(None, False, False, None, None),
    O: Traits(SYM, False, False, None, None),
    U: Traits(None, False, True, COMPLEX, None),
}


def algebra_of(g: GroupDescriptor) -> tuple[str, int]:
    """The (algebra, n) of g's complexified Lie algebra for weyl: n is the rank for SP."""
    algebra = TRAITS[g.family].algebra
    if algebra is None:
        raise UnsupportedGroup(f"family {g.family} has no simple algebra")
    return algebra, g.n // 2 if algebra == "SP" else g.n


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
    """F as an n x n array of dtype, checked finite, symmetric (skew when ``skew``) to
    1e-12 relative to its own norm, whatever its scale, and nondegenerate by the rank rule
    that Youla and Takagi decide by (``numkit.numerical_rank``, strict)."""
    try:
        F = np.asarray(F, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise InvalidDescriptor(f"form entries must be numbers: {exc}") from exc
    if F.shape != (n, n):
        raise InvalidDescriptor("form has wrong size")
    if not np.isfinite(F).all():
        raise NonFinite("form entries must be finite")
    S = _unit_scaled(F)
    if frob(S + (1 if skew else -1) * S.T) > 1e-12 * frob(S):
        raise InvalidDescriptor(f"form must be {'skew' if skew else 'symmetric'}")
    if numerical_rank(S, strict=True) < n:
        raise InvalidDescriptor("form must be nondegenerate")
    return F


def _unit_scaled(F: np.ndarray) -> np.ndarray:
    """F times the power of two that brings its largest real or imaginary part into [1, 2),
    in two steps when it passes 2^1022: every digit is kept, a test on it is one on F at any
    scale, and no norm overflows; not numkit.pow2_below, whose |z| of a huge complex entry
    overflows to inf."""
    e = int(np.frexp(np.maximum(abs(F.real), abs(F.imag)).max(initial=0.0))[1]) - 1
    return F * np.ldexp(1.0, min(-e, 1022)) * np.ldexp(1.0, max(-e - 1022, 0))


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
        if type(self.n) is not int or self.n < 1:  # bool is an int subclass
            raise InvalidDescriptor("matrix size must be a positive integer")
        if t.form == SKEW and self.n % 2:
            raise InvalidDescriptor("symplectic groups need even matrix size")
        if (self.signature is not None) != (self.family == SOPQ):
            raise InvalidDescriptor("signature is required exactly for SOpq")
        if self.signature is not None:
            if not (isinstance(self.signature, (tuple, list)) and len(self.signature) == 2
                    and all(type(s) is int for s in self.signature)):
                raise InvalidDescriptor("signature must be two integers p, q")
            p, q = self.signature = tuple(self.signature)
            if p < 0 or q < 0 or p + q != self.n:
                raise InvalidDescriptor("signature must satisfy p+q=n")
        if self.form is not None:
            if t.form is None or t.unitary or self.signature is not None:
                raise InvalidDescriptor(f"family {self.family} takes no form")
            self.form = checked_form(self.form, self.n, t.form == SKEW, self.dtype)

    @property
    def is_complex_group(self) -> bool:
        """True when the Lie algebra is a complex vector space."""
        return TRAITS[self.family].field is None and self.field == COMPLEX

    @property
    def dtype(self):
        return complex if self.field == COMPLEX else float

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
            family=obj.get("family"),
            n=obj.get("n"),
            field=obj.get("field", REAL),
            signature=obj.get("signature") or None,
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


def sp_compact(n):
    return GroupDescriptor(SP_COMPACT, n, COMPLEX)


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


def normal_frame(g: GroupDescriptor) -> tuple[GroupDescriptor, np.ndarray | None]:
    """g's family at its normal form F0, J for a skew form, I for a symmetric form over C and
    I_{p,q} over R (I when q = 0), and P with P^T F0 P = S, g's form as ``checked_form``
    scales it; (g, None) when g has no form.  S and the form define one group, so g is
    P^-1 g0 P, and the stabilizer of X in g is that of P . X in g0 (``gmodules.act``)
    carried back.  P is sqrt(lam) Q^T of Youla, each pair (2i, 2i + 1) sent to (i, m + i),
    sqrt(sigma) U^T of Takagi, or sqrt|lam| V^T of a descending ``eigh``: real for a real form.
    A form that already is F0, entry for entry, takes no P: its g0 is g, or the descriptor
    without a form when F0 is the family's default J or I, so ``normal_frame`` of a g0 is
    (g0, None)."""
    if g.form is None:
        return g, None
    skew = TRAITS[g.family].form == SKEW
    p = g.n if skew or g.field == COMPLEX else int((np.diag(g.form) > 0).sum())
    if np.array_equal(g.form, J2n(g.n) if skew else Ipq(p, g.n - p)):  # F0 already, exactly
        return (g if p < g.n else GroupDescriptor(g.family, g.n, g.field)), None
    S, form = _unit_scaled(g.form), None
    if skew:
        Q, lams, _ = youla_skew(S)
        P = (np.sqrt(np.repeat(lams, 2))[:, None] * Q.T)[np.r_[0 : g.n : 2, 1 : g.n : 2]]
    elif g.field == COMPLEX:
        U, sigma = takagi(S)
        P = np.sqrt(sigma)[:, None] * U.T
    else:
        lam, V = np.linalg.eigh(S)
        lam, V, p = lam[::-1], V[:, ::-1], int((lam > 0).sum())
        P = np.sqrt(abs(lam))[:, None] * V.T
        form = Ipq(p, g.n - p) if p < g.n else None
    return GroupDescriptor(g.family, g.n, g.field, form=form), P


def contains(g: GroupDescriptor, A: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Check the defining relations of g on A to tolerance: the form, A*A = I
    when unitary, det = 1 when special, det = +-1 for a form group that is
    not, and det != 0 otherwise.  A non-finite A, or one whose squared norm
    overflows, raises :class:`NonFinite`."""
    A = np.asarray(A)
    if A.shape != (g.n, g.n):
        raise SizeMismatch(f"expected {g.n}x{g.n}, got {A.shape}")
    A = A.astype(complex)
    if g.field == REAL and np.abs(A.imag).max(initial=0.0) > tol.abs_eps:
        return False
    norm = float(np.linalg.norm(A, 2)) if np.isfinite(A).all() else np.inf
    scale = max(1.0, norm * norm)
    if scale == np.inf:
        raise NonFinite("the matrix or its squared norm is not finite")
    bound = tol.cutoff(scale)
    t = TRAITS[g.family]

    B = g.form_matrix()
    if B is not None:
        Bc = B.astype(complex)
        if frob(A.T @ Bc @ A - Bc) > bound * frob(Bc):
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


class LieBasis(np.ndarray):
    """A Lie basis array with its ``support``: when every element is monomial, with at most
    one nonzero in each row and in each column, the (element, row, column, value) arrays of
    its nonzeros, in element then row order; None otherwise, as for a general form's basis,
    which stabilizer rows never read (they use its ``normal_frame``).  A slice of it, or a
    result computed from it, has support None."""

    support = None


def lie_algebra_basis(g: GroupDescriptor) -> LieBasis:
    """Basis of the tangent space at the identity, a read-only (d, n, n) array.

    Complex groups get a basis over C; real forms a basis over R.  A basis
    with zero imaginary part is stored as a real array.  The length always
    equals ``group_dim``.  A copy twisted by a form B is B^{-1}
    times the skew (orthogonal) or symmetric (symplectic) units.

    The basis carries its support (``LieBasis``), found once, when the basis is built, and
    kept in the same cache entry (``numkit.cached_basis``), which every descriptor of g's key
    shares when g has no form, and which g itself holds, and frees, when it has one.  Every
    family's basis at its standard form, a signature, a diagonal form or a form of Youla
    blocks is monomial, as B^{-1} then is and each unit is; only a general form's basis has
    no support.  Stabilizer rows read the basis of ``normal_frame(g)``, so they need no
    general form's basis; ``sample`` still builds it.
    """
    return cached_basis(_lie_algebra_basis, g)


def _support(basis: np.ndarray):
    """The (element, row, column, value) arrays of the nonzeros of a monomial basis, read-only;
    None when some element has two nonzeros in one row or in one column."""
    e, r, c = basis.nonzero()  # element, then row, then column order
    n = basis.shape[1]
    if max(np.bincount(e * n + r).max(initial=0), np.bincount(e * n + c).max(initial=0)) > 1:
        return None
    support = e, r, c, basis[e, r, c]
    for a in support:
        a.flags.writeable = False
    return support


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
    else:
        basis = _sp_compact_basis(n // 2)
    if len(basis) != group_dim(g):
        raise ManirepError(f"Lie basis of {g.family}_{n} has the wrong length {len(basis)}")
    if np.iscomplexobj(basis) and not basis.imag.any():
        basis = np.ascontiguousarray(basis.real)
    support = _support(basis)
    basis = basis.view(LieBasis)
    basis.support = support
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
    return optional_import("scipy.linalg").expm(Z)  # loaded here: only this expm needs scipy
