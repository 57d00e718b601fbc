"""Which module sums admit a faithful orbit realization, and minimality sweeps.

For each supported group family there is a short list of low-dimensional
irreducible modules, so a candidate target is just a tuple of
multiplicities.  Each family is one :class:`GroupFamily` row of
``GROUP_FAMILIES``: the multiplicity names, factor kinds and ranges.  Unless
the family is ``compact``, the trivial and vector modules and its slot kinds
are the catalog of irreducibles of dimension <= n^2 that ``census`` prints,
complete from ``weyl.LOW_DIM_THRESHOLD`` on.  Each multiplicity must lie in
its range, and a target is admissible when its total module dimension dim W
stays within n^2; the exact value reported is (dim W - n^2) / divisor,
halved for Sp (the bound in its symplectic rank).
The unitary and compact symplectic families are ``compact``: they stack no
frames and admit no empty target.

``census`` reports, for each admissible target, the dimension of the
stabilizer in the group of a tuple of canonical witnesses, one per module
factor; ``FACTORS`` maps each factor kind to its canonical witness.  The
structured stabilizer of a single point lives in :mod:`manirep.stabilizers`.
A canonical witness depends only on its module, so ``census`` and
``minimality_certificate`` pool, once per call, the condition rows of the
frame at full width and of each distinct slot factor; each target is a set
of pool columns, a factor repeated in it counted once, and one
``numerical_ranks`` pass ranks them all.

``minimality_certificate`` checks, for a manifold family, that its target
dimension matches the family's closed form and that no admissible target
of strictly smaller dimension reproduces the stabilizer dimension at
canonical (generic-spectrum) witnesses.  Stabilizers are compared by
dimension only; a tie is recorded, not decided.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from typing import Callable

import numpy as np

from . import embeddings as E
from . import groups as G
from . import weyl
from .errors import InvalidDescriptor, NotMinimalFamily, UnsupportedGroup
from .gmodules import ModuleDescriptor, module_dim, real_dim
from .numkit import COMPLEX, DEFAULT_TOL, Tolerance, numerical_ranks, youla_blocks
from .stabilizers import stabilizer_rows


@dataclass(frozen=True)
class GroupFamily:
    """Candidate targets of one group family.

    Unless the family is ``compact``, the first multiplicity ``b`` (0..n)
    is the column count of one RectNK factor.  Each entry (name, kind,
    bound) of ``slots`` is a further multiplicity, 0..bound-1 copies of one
    factor kind; ``twisted`` factors carry the group's form.  The exact
    admissibility value is (dim W - n^2) / ``divisor`` for the total module
    dimension dim W.  A target (in range, else ``admissible`` raises) is
    admissible when the value is <= 0; a ``compact`` family also needs a
    nonempty target, and ``census`` reports no low-dimensional Weyl catalog
    for it.
    """

    name: str
    slots: tuple[tuple[str, str, int], ...]
    divisor: int = 1
    twisted: bool = False
    compact: bool = False

    @property
    def names(self) -> tuple[str, ...]:
        return (() if self.compact else ("b",)) + tuple(name for name, _, _ in self.slots)

    def ranges(self, n: int) -> list[range]:
        stack = [] if self.compact else [range(n + 1)]
        return stack + [range(bound) for _, _, bound in self.slots]


_SO = GroupFamily("SO", (("c", "Alt2", 3), ("d", "Sym2Traceless", 3)))
GROUP_FAMILIES = {
    G.SL: GroupFamily("SL", (("c", "Alt2", 3), ("d", "Sym2", 2), ("e", "SLnTraceless", 2))),
    G.SO: _SO,
    G.SOPQ: replace(_SO, twisted=True),
    G.SP: GroupFamily("Sp", (("c", "Sym2TracelessForm", 2), ("d", "Alt2Form", 2)), divisor=2),
    G.SU: GroupFamily("SU", (("a", "SUAlgebra", 2),), compact=True),
    G.SP_COMPACT: GroupFamily("SpC", (("c", "SymTracelessCapSU", 2), ("d", "SpAlgebra", 2)),
                              compact=True),
}


def _group_family(g: G.GroupDescriptor) -> GroupFamily:
    if g.family not in GROUP_FAMILIES:
        raise UnsupportedGroup(f"no classification for family {g.family!r}")
    return GROUP_FAMILIES[g.family]


def _slot_modules(g: G.GroupDescriptor) -> list[ModuleDescriptor]:
    """One module per slot of g's family, in slot order."""
    fam = _group_family(g)
    form = g.form_matrix() if fam.twisted else None
    return [ModuleDescriptor(kind, g.n, g.field, form=form) for _, kind, _ in fam.slots]


@dataclass(frozen=True)
class TargetSpec:
    """A candidate module sum for one group, as factor multiplicities in the
    order of its family's row in ``GROUP_FAMILIES``."""

    group: G.GroupDescriptor
    multiplicities: tuple[int, ...]

    def modules(self) -> list[ModuleDescriptor]:
        frame, counts = self.split()
        out = [] if frame is None else [frame]
        for m, count in zip(_slot_modules(self.group), counts):
            out += [m] * count
        return out

    def split(self) -> tuple[ModuleDescriptor | None, tuple[int, ...]]:
        """The frame (RectNK with ``b`` columns; None when b = 0 or the family is
        ``compact``) and the multiplicities of the family's slots."""
        g, mult = self.group, self.multiplicities
        if _group_family(g).compact:
            return None, mult
        frame = ModuleDescriptor("RectNK", g.n, g.field, k=mult[0]) if mult[0] else None
        return frame, mult[1:]

    def to_json(self) -> dict:
        mult = dict(zip(_group_family(self.group).names, self.multiplicities))
        return {"group": self.group.to_json(), "multiplicities": mult}


@dataclass
class AdmissibilityReport:
    spec: TargetSpec
    admissible: bool
    inequality_value: Fraction
    module_dim_total: int
    modules: list[ModuleDescriptor]

    def to_json(self) -> dict:
        return {**self.spec.to_json(), "admissible": self.admissible,
                "inequality_value": str(self.inequality_value),
                "dim_total": str(self.module_dim_total)}


def _verdict(fam: GroupFamily, n: int, dim_total: int, empty: bool) -> tuple[bool, Fraction]:
    """The family's admissibility rule for a target of total module dimension dim W, exactly
    over rationals: whether it admits the target (``empty`` when it has no factor), and the
    value (dim W - n^2) / divisor."""
    value = Fraction(dim_total - n**2, fam.divisor)
    return value <= 0 and not (fam.compact and empty), value


def admissible(spec: TargetSpec) -> AdmissibilityReport:
    """Evaluate the family's admissibility rule exactly over rationals.  A multiplicity out of
    its family's range is an :class:`InvalidDescriptor`."""
    g = spec.group
    fam = _group_family(g)
    mult = spec.multiplicities
    ranges = fam.ranges(g.n)
    if len(mult) != len(ranges):
        raise InvalidDescriptor(f"{fam.name} expects {len(ranges)} multiplicities")
    for name, m, r in zip(fam.names, mult, ranges):
        if m not in r:
            raise InvalidDescriptor(f"{fam.name} multiplicity {name} must be in 0..{r[-1]}")
    mods = spec.modules()
    dim_total = sum(module_dim(m) for m in mods)
    ok, value = _verdict(fam, g.n, dim_total, not mods)
    return AdmissibilityReport(spec, ok, value, dim_total, mods)


def enumerate_admissible(g: G.GroupDescriptor) -> list[AdmissibilityReport]:
    """All admissible multiplicity tuples, by total dimension then lex order.  A tuple's total
    dimension, from the dimensions of one frame column and of each slot module taken once per
    call, decides it before its ``TargetSpec`` and modules are built."""
    fam = _group_family(g)
    unit = [module_dim(m) for m in _slot_modules(g)]
    if not fam.compact:
        unit.insert(0, module_dim(ModuleDescriptor("RectNK", g.n, g.field, k=1)))
    reports = [admissible(TargetSpec(g, mult)) for mult in product(*fam.ranges(g.n))
               if _verdict(fam, g.n, sum(a * d for a, d in zip(mult, unit)), not any(mult))[0]]
    return sorted(reports, key=lambda r: (r.module_dim_total, r.spec.multiplicities))


# ---------------------------------------------------------------------------
# canonical witnesses and their stabilizer dimensions


def _stack_witness(m):
    X = np.zeros(m.shape, dtype=complex if m.field == COMPLEX else float)
    X[: m.k, : m.k] = np.eye(m.k)
    return X


def _skew_witness(m):
    r = m.n // 2
    S = youla_blocks([float(i) for i in range(r, 0, -1)], m.n)
    if m.form is not None:
        S = np.linalg.inv(m.form) @ S
    return S.astype(complex if m.field == COMPLEX else float)


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
        return np.diag(vals).astype(complex if m.field == COMPLEX else float)

    return witness


#: module kind -> its generic witness: full rank, all spectral values distinct
FACTORS: dict[str, Callable[[ModuleDescriptor], np.ndarray]] = {
    "RectNK": _stack_witness,
    "Alt2": _skew_witness,
    "Sym2": _diagonal_witness(centered=False),
    "Sym2Traceless": _diagonal_witness(centered=True),
    "SLnTraceless": _diagonal_witness(centered=True),
    "Sym2TracelessForm": _diagonal_witness(centered=True, pairing=1),
    "Alt2Form": _diagonal_witness(centered=False, pairing=-1),
    "SUAlgebra": _diagonal_witness(centered=True, imaginary=True),
    "SymTracelessCapSU": _diagonal_witness(centered=True, pairing=1, imaginary=True),
    "SpAlgebra": _diagonal_witness(centered=False, pairing=-1, imaginary=True),
}


def canonical_witness(module: ModuleDescriptor) -> np.ndarray:
    """The generic witness of a factor: full rank, all spectral values distinct."""
    if module.kind not in FACTORS:
        raise InvalidDescriptor(f"{module.kind} is not a classification factor")
    return FACTORS[module.kind](module)


def _canonical_h_dims(g: G.GroupDescriptor, specs: list[TargetSpec],
                      tol: Tolerance = DEFAULT_TOL) -> list[int]:
    """Stabilizer dimension in g at the canonical witnesses of each target.

    A canonical witness depends only on its module, so one pooled row matrix, built once per
    call, holds the condition rows of every target: joined column-wise, the frame's rows at
    full width b = n (witness I_n) and the rows of each distinct slot module, each built (and
    its witness checked) only if some target holds it.  A target is a set of pool columns:
    as Z [I_b; 0] is the first b columns of Z, the frame's columns of witness columns c < b,
    and the columns of each slot it holds; a module repeated in a target counts once, as
    equal rows cut out the same kernel.  ``numerical_ranks`` ranks every target in one
    batched pass, each as in ``intersect_stabilizer_dim``."""
    mods = [ModuleDescriptor("RectNK", g.n, g.field, k=g.n), *_slot_modules(g)]
    # per target: the frame width b (0 for a compact family), then each slot's multiplicity
    uses = np.array([[0 if frame is None else frame.k, *counts] for frame, counts
                     in map(TargetSpec.split, specs)], int).reshape(len(specs), len(mods))
    used = np.flatnonzero(uses.any(axis=0))
    pool = [stabilizer_rows(g, mods[i], mods[i].action, canonical_witness(mods[i]), tol)
            for i in used]
    # a pool column is in a target when its level, the witness column c for the frame and
    # 0 for a slot, is below the target's use of its factor
    factor = np.repeat(used, [B.shape[1] for B in pool])
    level = [np.arange(B.shape[1]) // (B.shape[1] // g.n**2) % g.n if i == 0
             else np.zeros(B.shape[1], int) for i, B in zip(used, pool)]
    level = np.concatenate([np.zeros(0, int), *level])
    A = np.concatenate([np.zeros((len(G.lie_algebra_basis(g)), 0)), *pool], axis=1)
    del pool  # frees the blocks: only their joined copy is ranked
    sets = [np.flatnonzero(level < u[factor]) for u in uses]
    return [len(A) - rank for rank in numerical_ranks(A, sets, tol)]


def census(g: G.GroupDescriptor) -> dict:
    """Every admissible target of g with its stabilizer dimension at canonical
    witnesses and, unless g's family is ``compact``, its catalog of irreducible
    modules of dimension <= n^2: the trivial and vector modules and the family's
    slot kinds, over C, flagged advisory below ``weyl.LOW_DIM_THRESHOLD``."""
    out = {"group": g.to_json(), "targets": []}
    reports = enumerate_admissible(g)
    for rep, h_dim in zip(reports, _canonical_h_dims(g, [rep.spec for rep in reports])):
        entry = rep.to_json()
        entry["canonical_h_dim"] = h_dim
        out["targets"].append(entry)
    fam = _group_family(g)
    if not fam.compact:
        algebra, n = G.algebra_of(g)
        weyl.rank_of(algebra, n)  # SL_1, SO_1 and SO_2 have no catalog
        mods = [ModuleDescriptor("Trivial", g.n, COMPLEX),
                ModuleDescriptor("RectNK", g.n, COMPLEX, k=1)]
        mods += [ModuleDescriptor(kind, g.n, COMPLEX) for _, kind, _ in fam.slots]
        out["low_dim_modules"] = [m.to_json() for m in mods]
        out["low_dim_advisory"] = n < weyl.LOW_DIM_THRESHOLD[algebra]
    return out


# ---------------------------------------------------------------------------
# the minimality sweep


@dataclass
class MinimalityReport:
    manifold: E.ManifoldDescriptor
    dim_v: int
    mp_dim: int
    h_dim: int
    advisory: bool
    candidates: list[tuple[tuple[int, ...], int, int]]  # (multiplicities, dim_total, stab_dim)
    dim_collisions: list[tuple[int, ...]]
    certified: bool

    def to_json(self) -> dict:
        return {
            "manifold": self.manifold.to_json(),
            "dim_v": self.dim_v,
            "mp_dim": self.mp_dim,
            "h_dim": self.h_dim,
            "advisory": self.advisory,
            "candidates": [
                {"multiplicities": list(m), "dim_total": d, "stab_dim": s}
                for m, d, s in self.candidates
            ],
            "dim_collisions": [list(m) for m in self.dim_collisions],
            "certified": self.certified,
        }


def _comparison_dim(g: G.GroupDescriptor, m: ModuleDescriptor) -> int:
    # complex groups compare complex dimensions, real groups real ones
    return module_dim(m) if g.is_complex_group else real_dim(m)


def minimality_certificate(md: E.ManifoldDescriptor, tol: Tolerance = DEFAULT_TOL) -> MinimalityReport:
    """Desk-scale minimality check for one manifold family.

    Asserts the target dimension equals the family's closed form (else
    :class:`NotMinimalFamily`), then sweeps every admissible target of
    strictly smaller dimension and compares stabilizer dimensions at
    canonical witnesses.  A candidate whose stabilizer dimension equals the
    family's is recorded in ``dim_collisions``; the dimension alone cannot
    tell the two stabilizers apart.
    """
    gp = E.group(md)
    mod = E.module(md)
    dim_v = module_dim(mod)
    mp = E.mp_dimension(md)
    if dim_v != mp:
        raise NotMinimalFamily(f"target dimension {dim_v} differs from closed form {mp}")
    h_dim = G.group_dim(gp) - E.tangent_dim(md)
    dim_v_cmp = _comparison_dim(gp, mod)

    smaller = [rep for rep in enumerate_admissible(gp)
               if rep.modules and sum(_comparison_dim(gp, m) for m in rep.modules) < dim_v_cmp]
    stabs = _canonical_h_dims(gp, [rep.spec for rep in smaller], tol)
    candidates = [(rep.spec.multiplicities, rep.module_dim_total, stab)
                  for rep, stab in zip(smaller, stabs)]
    collisions = [mult for mult, _, stab in candidates if stab == h_dim]
    return MinimalityReport(manifold=md, dim_v=dim_v, mp_dim=mp, h_dim=h_dim,
                            advisory=E.minimality_advisory(md), candidates=candidates,
                            dim_collisions=collisions, certified=True)
