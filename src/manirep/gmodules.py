"""Matrix modules and the multiplication actions on them.

Each :class:`ModuleDescriptor` names a linear subspace of F^{n x n} (or the
rectangular slab F^{n x k}) cut out by transpose/adjoint conditions against
a bilinear form, optionally with a trace constraint.  Everything known about
a module kind is one :class:`Kind` row of ``KINDS``, keyed by the kind's
name: its dimension formula, its residual conditions, the unit-matrix span
solving the first of them, the flags below, the action of its group, and,
for a classification factor, the builder of its canonical witness
(``canonical_witness``).  A basis is that span cut by the other conditions
and the trace (``numkit.span_kernel``); a symmetric or skew span twisted by the
form F is one SVD of F away, and a basis whose length is not ``module_dim`` raises.
``module_dim`` reports the dimension over the descriptor's field: complex
kinds over C, and the real-structure kinds (su_n, compact sp, and the
symmetric-traceless slice of su) over R, since those are only real-linear
subspaces of complex matrices.  ``act`` applies a matrix by the action's
products and checks no membership: ``embeddings.embed`` checks the one
element that comes from outside, and the other callers apply group samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import InvalidDescriptor, ManirepError, SizeMismatch
from .groups import J2n, checked_form
from .numkit import (ALL, ANTI_HERMITIAN, COMPLEX, DEFAULT_TOL, REAL, SKEW, SYM, Tolerance,
                     cached_basis, frob, mat_from_json, mat_to_json, pow2_below, span_kernel,
                     unit_stack, youla_blocks)


class ActionKind(Enum):
    LEFT_MULT = "left-mult"
    CONGRUENCE = "congruence"
    SIMILARITY = "similarity"
    CONGRUENCE_STAR = "congruence-star"


def _form_skew(X, F):
    return X.mT @ F + F @ X


def _form_symmetric(X, F):
    return X.mT @ F - F @ X


def _anti_hermitian(X, F):
    return X.conj().mT + X


def _stack_witness(m):
    X = np.zeros(m.shape, dtype=m.dtype)
    X[: m.k, : m.k] = np.eye(m.k)
    return X


def _skew_witness(m):
    r = m.n // 2
    S = youla_blocks([float(i) for i in range(r, 0, -1)], m.n)
    if m.form is not None:
        S = np.linalg.inv(m.form) @ S
    return S.astype(m.dtype)


def _diagonal_witness(centered: bool, pairing: int | None = None, imaginary: bool = False):
    """diag(1, ..., n), or diag(v, pairing * v) with v = (1, ..., n/2).

    ``centered`` shifts the values to trace zero; ``imaginary`` multiplies
    by i for the compact kinds instead of casting to the module's field.
    """

    def witness(m):
        vals = np.arange(1.0, (m.n if pairing is None else m.n // 2) + 1)
        if centered:
            vals = vals - vals.mean()
        if pairing is not None:
            vals = np.concatenate([vals, pairing * vals])
        if imaginary:
            return 1j * np.diag(vals)
        return np.diag(vals).astype(m.dtype)

    return witness


@dataclass(frozen=True)
class Kind:
    """One module kind.

    ``dim(n, k)`` is the dimension over the descriptor's field.
    ``conditions`` are residual maps (X, F) -> matrix, F the descriptor's
    form, that vanish exactly on the module; a ``traceless`` kind also
    kills the trace.  ``span`` names the ``numkit.unit_stack`` spanning the
    solutions of the first condition (``ALL`` when there is none); a
    ``SYM`` or ``SKEW`` span is twisted by F^-1.
    ``real_structure`` kinds are complex matrices forming only a
    real-linear subspace; ``skew_form`` kinds take a skew form, so their
    size is even.  ``membership`` is False for the kinds carried for
    their dimension only; they have no ``action`` either.  ``action`` is
    how the kind's group acts on it (see :attr:`ModuleDescriptor.action`
    for the twist by a form).  ``witness`` builds the kind's canonical
    witness (see ``canonical_witness``); None for a kind that is no
    classification factor.
    """

    dim: Callable[[int, int | None], int]
    conditions: tuple = ()
    span: str = ALL
    traceless: bool = False
    real_structure: bool = False
    skew_form: bool = False
    membership: bool = True
    action: ActionKind | None = None
    witness: Callable[[ModuleDescriptor], np.ndarray] | None = None


KINDS = {
    "Trivial": Kind(lambda n, k: 1, membership=False),
    "RectNK": Kind(lambda n, k: n * k, action=ActionKind.LEFT_MULT, witness=_stack_witness),
    "Alt2": Kind(lambda n, k: n * (n - 1) // 2, (_form_skew,), SKEW,
                 action=ActionKind.CONGRUENCE, witness=_skew_witness),
    "Sym2": Kind(lambda n, k: n * (n + 1) // 2, (_form_symmetric,), SYM,
                 action=ActionKind.CONGRUENCE, witness=_diagonal_witness(centered=False)),
    "Sym2Traceless": Kind(lambda n, k: (n + 2) * (n - 1) // 2, (_form_symmetric,), SYM,
                          traceless=True, action=ActionKind.CONGRUENCE,
                          witness=_diagonal_witness(centered=True)),
    "SLnTraceless": Kind(lambda n, k: n * n - 1, traceless=True, action=ActionKind.SIMILARITY,
                         witness=_diagonal_witness(centered=True)),
    "SUAlgebra": Kind(lambda n, k: n * n - 1, (_anti_hermitian,), ANTI_HERMITIAN, traceless=True,
                      real_structure=True, action=ActionKind.CONGRUENCE_STAR,
                      witness=_diagonal_witness(centered=True, imaginary=True)),
    "Alt2Form": Kind(lambda n, k: n * (n + 1) // 2, (_form_skew,), SYM, skew_form=True,
                     action=ActionKind.SIMILARITY,
                     witness=_diagonal_witness(centered=False, pairing=-1)),
    "Sym2TracelessForm": Kind(lambda n, k: (n // 2 - 1) * (2 * (n // 2) + 1),
                              (_form_symmetric,), SKEW, traceless=True, skew_form=True,
                              action=ActionKind.SIMILARITY,
                              witness=_diagonal_witness(centered=True, pairing=1)),
    "SpAlgebra": Kind(lambda n, k: 2 * (n // 2) ** 2 + n // 2, (_anti_hermitian, _form_skew),
                      ANTI_HERMITIAN, traceless=True, real_structure=True, skew_form=True,
                      action=ActionKind.CONGRUENCE_STAR,
                      witness=_diagonal_witness(centered=False, pairing=-1, imaginary=True)),
    "SymTracelessCapSU": Kind(lambda n, k: (n // 2 - 1) * (2 * (n // 2) + 1),
                              (_anti_hermitian, _form_symmetric), ANTI_HERMITIAN,
                              traceless=True, real_structure=True, skew_form=True,
                              action=ActionKind.CONGRUENCE_STAR,
                              witness=_diagonal_witness(centered=True, pairing=1, imaginary=True)),
}


@dataclass(eq=False)
class ModuleDescriptor:
    kind: str
    n: int
    field: str = REAL
    k: int | None = None
    form: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidDescriptor(f"unknown module kind {self.kind!r}")
        if KINDS[self.kind].real_structure:
            self.field = REAL  # dimensions are counted over R
        if self.field not in (REAL, COMPLEX):
            raise InvalidDescriptor(f"unknown field {self.field!r}")
        if type(self.n) is not int or self.n < 1 or not (self.k is None or type(self.k) is int):
            raise InvalidDescriptor("module size n must be a positive integer, k an integer")
        if self.kind == "RectNK":
            if self.k is None or not (0 < self.k <= self.n):
                raise InvalidDescriptor(f"{self.kind} needs 0 < k <= n")
        elif self.k is not None:
            raise InvalidDescriptor(f"{self.kind} takes no k")
        if KINDS[self.kind].skew_form and self.n % 2:
            raise InvalidDescriptor(f"{self.kind} needs even ambient size")
        if self.form is not None:
            self.form = checked_form(self.form, self.n, KINDS[self.kind].skew_form, self.dtype)

    @property
    def dtype(self):
        """The type of the entries: complex over C and for the real-structure kinds."""
        return complex if self.field == COMPLEX or KINDS[self.kind].real_structure else float

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.k) if self.kind == "RectNK" else (self.n, self.n)

    @property
    def action(self) -> ActionKind | None:
        """The action of the module's group; a form twists congruence into similarity."""
        act = KINDS[self.kind].action
        if act == ActionKind.CONGRUENCE and self.form is not None:
            return ActionKind.SIMILARITY  # twisted congruence of SO_{p,q}
        return act

    def form_matrix(self) -> np.ndarray:
        if self.form is not None:
            return self.form
        if KINDS[self.kind].skew_form:
            return J2n(self.n).astype(self.dtype)
        return np.eye(self.n, dtype=self.dtype)

    def cache_key(self):
        fk = None if self.form is None else self.form.tobytes()
        return (self.kind, self.n, self.field, self.k, fk)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "field": self.field,
            "k": self.k,
            "form": None if self.form is None else mat_to_json(self.form),
        }

    @staticmethod
    def from_json(obj: dict) -> "ModuleDescriptor":
        return ModuleDescriptor(
            kind=obj.get("kind"),
            n=obj.get("n"),
            field=obj.get("field", REAL),
            k=obj.get("k"),
            form=None if obj.get("form") is None else mat_from_json(obj["form"]),
        )


def module_dim(m: ModuleDescriptor) -> int:
    return KINDS[m.kind].dim(m.n, m.k)


def canonical_witness(m: ModuleDescriptor) -> np.ndarray:
    """The generic witness of a classification factor: full rank, all spectral values
    distinct."""
    witness = KINDS[m.kind].witness
    if witness is None:
        raise InvalidDescriptor(f"{m.kind} is not a classification factor")
    return witness(m)


def _conditions(m: ModuleDescriptor):
    """Residual maps that vanish exactly on the module."""
    F = m.form_matrix()
    if m.form is not None:  # the default forms I and J have largest entry 1
        # cF cuts out the module of F: dividing by pow2_below(F) keeps every digit and
        # scales each residual with X alone, whatever the size of F
        F = F / pow2_below(F)
    conds = [lambda X, c=c: c(X, F) for c in KINDS[m.kind].conditions]
    if KINDS[m.kind].traceless:
        conds.append(lambda X: np.trace(X, axis1=-2, axis2=-1))
    return conds


def contains(m: ModuleDescriptor, X: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    if not KINDS[m.kind].membership:
        raise InvalidDescriptor(f"{m.kind} supports no membership test")
    X = np.asarray(X)
    if X.shape != m.shape:
        raise SizeMismatch(f"expected shape {m.shape}, got {X.shape}")
    Xc = X.astype(complex)
    if m.dtype is float and np.abs(Xc.imag).max(initial=0.0) > tol.abs_eps:
        return False
    # dividing by the power of two below the largest entry, when that is at least 2, scales
    # each residual and the bound alike (rel_eps >= abs_eps), so frob(Xc) cannot overflow;
    # only scaling down, as a complex division by 1 would turn inf + 1j into inf + nan j
    scale = pow2_below(Xc)
    if scale > 1.0:
        Xc = Xc / scale
    bound = tol.cutoff(max(frob(Xc), 1.0))
    return all(frob(np.asarray(c(Xc))) <= bound for c in _conditions(m))


def basis(m: ModuleDescriptor) -> np.ndarray:
    """Orthonormal basis of the module under the (real) Frobenius pairing, as a read-only
    (module_dim, rows, cols) array.  A basis under a form is held by m (``numkit.cached_basis``)
    and freed with it: a later ``basis`` or ``project`` on m reuses it, another descriptor
    with the same form builds its own."""
    if not KINDS[m.kind].membership:
        raise InvalidDescriptor(f"{m.kind} has no matrix basis")
    return cached_basis(_basis, m)


def _basis(m: ModuleDescriptor) -> np.ndarray:
    kind = KINDS[m.kind]
    if kind.span in (SYM, SKEW):
        # X^T F = +-(FX)^T for F symmetric or skew: a form condition asks FX to be SYM or SKEW.
        # With F = U S V^H, F^-1 (u_i u_j^T +- u_j u_i^T) is a multiple of B_ij =
        # s_j v_i u_j^T +- s_i v_j u_i^T (u^T, not u^H), mutually orthogonal over R and C
        F = m.form_matrix()
        u, s, vh = np.linalg.svd(F / pow2_below(F))
        v, su = vh.conj(), s[:, None] * u.T  # rows v_i and s_i u_i
        i, j = np.triu_indices(m.n, 0 if kind.span == SYM else 1)
        sign = 1.0 if kind.span == SYM else -1.0
        gens = np.stack([v[i], v[j]], -1) @ np.stack([su[j], sign * su[i]], 1)
    else:
        gens = unit_stack(kind.span, *m.shape)
    rest = _conditions(m)[1 if kind.conditions else 0:]  # the span solves the first condition
    out = span_kernel(gens, rest, real=kind.real_structure)
    if len(out) != module_dim(m):
        raise ManirepError(f"basis of {m.kind}_{m.n} has the wrong length {len(out)}")
    return out


def project(m: ModuleDescriptor, X: np.ndarray) -> np.ndarray:
    """Frobenius-orthogonal projection of X onto the module."""
    X = np.asarray(X)
    if X.shape != m.shape:
        raise SizeMismatch(f"expected shape {m.shape}, got {X.shape}")
    B = basis(m).reshape(-1, X.size)
    coef = B.conj() @ X.ravel()
    if m.field == REAL:
        coef = coef.real
    out = (coef @ B).reshape(m.shape)
    return out if m.dtype is complex else out.real


def real_dim(m: ModuleDescriptor) -> int:
    """Dimension over R (doubles the complex-linear kinds)."""
    d = module_dim(m)
    return 2 * d if m.field == COMPLEX else d


#: each action as (A, X) -> A . X and its derivative at the identity
#: (Z, X) -> d/dt exp(tZ) . X, which also takes a stack of Z
_ACTIONS = {
    ActionKind.LEFT_MULT: (lambda A, X: A @ X, lambda Z, X: Z @ X),
    ActionKind.CONGRUENCE: (lambda A, X: A @ X @ A.T, lambda Z, X: Z @ X + X @ Z.mT),
    ActionKind.SIMILARITY: (lambda A, X: A @ X @ np.linalg.inv(A), lambda Z, X: Z @ X - X @ Z),
    ActionKind.CONGRUENCE_STAR: (lambda A, X: A @ X @ A.conj().T,
                                 lambda Z, X: Z @ X + X @ Z.conj().mT),
}


def dact(action: ActionKind, Z: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Derivative of the action at the identity: d/dt act(exp(tZ), X) at 0."""
    if action not in _ACTIONS:
        raise InvalidDescriptor(f"no infinitesimal action for {action}")
    return _ACTIONS[action][1](Z, X)


def act(action: ActionKind, A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Apply a matrix A to a module point X by the action's matrix products.  A is not
    checked for membership: a caller that takes A from outside checks it first."""
    if action not in _ACTIONS:
        raise InvalidDescriptor(f"unknown action {action}")
    return _ACTIONS[action][0](np.asarray(A), X)
