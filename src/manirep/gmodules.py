"""Matrix modules and the multiplication actions on them.

Each :class:`ModuleDescriptor` names a linear subspace of F^{n x n} (or the
rectangular slab F^{n x k}) cut out by transpose/adjoint conditions against
a bilinear form, optionally with a trace constraint.  Everything known about
a module kind is one :class:`Kind` row of ``KINDS``: its dimension formula,
its residual conditions, the unit-matrix span solving the first of them,
the flags below, and the action of its group.  A basis is that span cut by
the other conditions and the trace (``numkit.span_kernel``).
``module_dim`` reports the dimension over the descriptor's field: complex
kinds over C, and the real-structure kinds (su_n, u_n, traceless Hermitian,
compact sp, and the symmetric-traceless slice of su) over R, since those
are only real-linear subspaces of complex matrices.

``Alt^k`` for k >= 3 is carried for its dimension formula only; no
membership, projection, or action is defined for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import InvalidDescriptor, ModuleNotPreserved, NotInGroup, SizeMismatch
from .groups import GroupDescriptor, J2n, checked_form, contains as group_contains
from .numkit import (ALL, ANTI_HERMITIAN, COMPLEX, DEFAULT_TOL, HERMITIAN, REAL, SKEW, SYM,
                     Tolerance, cached_basis, frob, mat_from_json, mat_to_json, span_kernel,
                     unit_stack)

TRIVIAL = "Trivial"
RECT_NK = "RectNK"
ALT2 = "Alt2"
SYM2 = "Sym2"
SYM2_TRACELESS = "Sym2Traceless"
SLN_TRACELESS = "SLnTraceless"
SU_ALGEBRA = "SUAlgebra"
U_ALGEBRA = "UAlgebra"
HERM_TRACELESS = "HermTraceless"
ALT2_FORM = "Alt2Form"
SYM2_TRACELESS_FORM = "Sym2TracelessForm"
SP_ALGEBRA = "SpAlgebra"
SYM_TRACELESS_CAP_SU = "SymTracelessCapSU"
ALT_K = "AltK"


class ActionKind(Enum):
    LEFT_MULT = "left-mult"
    RIGHT_MULT_INV = "right-mult-inv"
    EQUIVALENCE = "equivalence"
    CONGRUENCE = "congruence"
    SIMILARITY = "similarity"
    CONGRUENCE_STAR = "congruence-star"


def _form_skew(X, F):
    return X.mT @ F + F @ X


def _form_symmetric(X, F):
    return X.mT @ F - F @ X


def _anti_hermitian(X, F):
    return X.conj().mT + X


def _hermitian(X, F):
    return X.conj().mT - X


@dataclass(frozen=True)
class Kind:
    """One module kind.

    ``dim(n, k)`` is the dimension over the descriptor's field.
    ``conditions`` are residual maps (X, F) -> matrix, F the descriptor's
    form, that vanish exactly on the module; a ``traceless`` kind also
    kills the trace.  ``span`` names the ``numkit.unit_stack`` spanning the
    solutions of the first condition (``ALL`` when there is none).
    ``real_structure`` kinds are complex matrices forming only a
    real-linear subspace; ``skew_form`` kinds take a skew form, so their
    size is even.  ``membership`` is False for the kinds carried for
    their dimension only; they have no ``action`` either.  ``action`` is
    how the kind's group acts on it (see :attr:`ModuleDescriptor.action`
    for the twist by a form).
    """

    dim: Callable[[int, int | None], int]
    conditions: tuple = ()
    span: str = ALL
    traceless: bool = False
    real_structure: bool = False
    skew_form: bool = False
    membership: bool = True
    action: ActionKind | None = None


KINDS = {
    TRIVIAL: Kind(lambda n, k: 1, membership=False),
    RECT_NK: Kind(lambda n, k: n * k, action=ActionKind.LEFT_MULT),
    ALT2: Kind(lambda n, k: n * (n - 1) // 2, (_form_skew,), SKEW, action=ActionKind.CONGRUENCE),
    SYM2: Kind(lambda n, k: n * (n + 1) // 2, (_form_symmetric,), SYM,
               action=ActionKind.CONGRUENCE),
    SYM2_TRACELESS: Kind(lambda n, k: (n + 2) * (n - 1) // 2, (_form_symmetric,), SYM,
                         traceless=True, action=ActionKind.CONGRUENCE),
    SLN_TRACELESS: Kind(lambda n, k: n * n - 1, traceless=True, action=ActionKind.SIMILARITY),
    SU_ALGEBRA: Kind(lambda n, k: n * n - 1, (_anti_hermitian,), ANTI_HERMITIAN, traceless=True,
                     real_structure=True, action=ActionKind.CONGRUENCE_STAR),
    U_ALGEBRA: Kind(lambda n, k: n * n, (_anti_hermitian,), ANTI_HERMITIAN, real_structure=True,
                    action=ActionKind.CONGRUENCE_STAR),
    HERM_TRACELESS: Kind(lambda n, k: n * n - 1, (_hermitian,), HERMITIAN, traceless=True,
                         real_structure=True, action=ActionKind.CONGRUENCE_STAR),
    ALT2_FORM: Kind(lambda n, k: n * (n + 1) // 2, (_form_skew,), SYM, skew_form=True,
                    action=ActionKind.SIMILARITY),
    SYM2_TRACELESS_FORM: Kind(lambda n, k: (n // 2 - 1) * (2 * (n // 2) + 1),
                              (_form_symmetric,), SKEW, traceless=True, skew_form=True,
                              action=ActionKind.SIMILARITY),
    SP_ALGEBRA: Kind(lambda n, k: 2 * (n // 2) ** 2 + n // 2, (_anti_hermitian, _form_skew),
                     ANTI_HERMITIAN, traceless=True, real_structure=True, skew_form=True,
                     action=ActionKind.CONGRUENCE_STAR),
    SYM_TRACELESS_CAP_SU: Kind(lambda n, k: (n // 2 - 1) * (2 * (n // 2) + 1),
                               (_anti_hermitian, _form_symmetric), ANTI_HERMITIAN,
                               traceless=True, real_structure=True, skew_form=True,
                               action=ActionKind.CONGRUENCE_STAR),
    ALT_K: Kind(lambda n, k: math.comb(n, k), membership=False),
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
        if self.kind in (RECT_NK, ALT_K):
            if self.k is None or not (0 < self.k <= self.n):
                raise InvalidDescriptor(f"{self.kind} needs 0 < k <= n")
        elif self.k is not None:
            raise InvalidDescriptor(f"{self.kind} takes no k")
        if KINDS[self.kind].skew_form and self.n % 2:
            raise InvalidDescriptor(f"{self.kind} needs even ambient size")
        if self.form is not None:
            self.form = checked_form(self.form, self.n, KINDS[self.kind].skew_form,
                                     complex if self._complex_entries else float)

    @property
    def _complex_entries(self) -> bool:
        return self.field == COMPLEX or KINDS[self.kind].real_structure

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.k) if self.kind == RECT_NK else (self.n, self.n)

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
        dt = complex if self._complex_entries else float
        if KINDS[self.kind].skew_form:
            return J2n(self.n).astype(dt)
        return np.eye(self.n, dtype=dt)

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
            kind=obj["kind"],
            n=int(obj["n"]),
            field=obj.get("field", REAL),
            k=obj.get("k"),
            form=None if obj.get("form") is None else mat_from_json(obj["form"]),
        )


def module_dim(m: ModuleDescriptor) -> int:
    return KINDS[m.kind].dim(m.n, m.k)


def _conditions(m: ModuleDescriptor):
    """Residual maps that vanish exactly on the module."""
    F = m.form_matrix()
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
    if not m._complex_entries and np.abs(Xc.imag).max(initial=0.0) > tol.abs_eps:
        return False
    bound = tol.cutoff(max(frob(Xc), 1.0))
    return all(frob(np.asarray(c(Xc))) <= bound for c in _conditions(m))


def basis(m: ModuleDescriptor) -> np.ndarray:
    """Orthonormal basis of the module under the (real) Frobenius pairing, as a read-only
    (module_dim, rows, cols) array."""
    if not KINDS[m.kind].membership:
        raise InvalidDescriptor(f"{m.kind} has no matrix basis")
    return cached_basis(_basis, m)


def _basis(m: ModuleDescriptor) -> np.ndarray:
    kind = KINDS[m.kind]
    gens = unit_stack(kind.span, *m.shape)
    if kind.span in (SYM, SKEW):
        # X^T F = +-(FX)^T for F symmetric or skew: a form condition asks FX to be SYM or SKEW
        gens = np.linalg.inv(m.form_matrix()) @ gens
    rest = _conditions(m)[1 if kind.conditions else 0:]  # the span solves the first condition
    return span_kernel(gens, rest, real=kind.real_structure)


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
    return out if m._complex_entries else out.real


def real_dim(m: ModuleDescriptor) -> int:
    """Dimension over R (doubles the complex-linear kinds)."""
    d = module_dim(m)
    return 2 * d if m.field == COMPLEX else d


#: each action as (A, X) -> A . X and its derivative at the identity
#: (Z, X) -> d/dt exp(tZ) . X, which also takes a stack of Z; EQUIVALENCE
#: takes a pair A = (A1, A2) acting by A1 X A2^{-1}
_ACTIONS = {
    ActionKind.LEFT_MULT: (lambda A, X: A @ X, lambda Z, X: Z @ X),
    ActionKind.RIGHT_MULT_INV: (lambda A, X: X @ np.linalg.inv(A), lambda Z, X: -X @ Z),
    ActionKind.EQUIVALENCE: (lambda A, X: A[0] @ X @ np.linalg.inv(A[1]),
                             lambda Z, X: Z @ X - X @ Z),
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


def act(
    g: GroupDescriptor,
    action: ActionKind,
    A,
    X: np.ndarray,
    module: ModuleDescriptor | None = None,
    tol: Tolerance = DEFAULT_TOL,
    check: bool = True,
):
    """Apply a group element to a module point by matrix multiplication.

    ``A`` is a single matrix, except for ``EQUIVALENCE`` which takes a pair
    ``(A1, A2)`` acting by A1 X A2^{-1}.  When ``module`` is supplied the
    result is checked to stay inside it.
    """
    if action not in _ACTIONS:
        raise InvalidDescriptor(f"unknown action {action}")
    if action == ActionKind.EQUIVALENCE:
        A1, A2 = A
        if check and not (group_contains(g, A1, tol) and group_contains(g, A2, tol)):
            raise NotInGroup("equivalence pair fails the group relations")
    else:
        A = np.asarray(A)
        if check and not group_contains(g, A, tol):
            raise NotInGroup(f"matrix is not in {g.family}_{g.n} to tolerance")
    out = _ACTIONS[action][0](A, X)
    if module is not None and check:
        if not contains(module, _cast_to_module(module, out), tol):
            raise ModuleNotPreserved(f"action moved the point out of {module.kind}")
        out = _cast_to_module(module, out)
    return out


def _cast_to_module(m: ModuleDescriptor, X: np.ndarray) -> np.ndarray:
    if not m._complex_entries and np.iscomplexobj(X):
        if np.abs(X.imag).max(initial=0.0) <= 1e-9 * max(frob(X), 1.0):
            return X.real
    return X
