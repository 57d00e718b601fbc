"""Which module sums admit a faithful orbit realization, and minimality sweeps.

For each supported group family there is a short list of low-dimensional
irreducible modules, so a candidate target is just a tuple of
multiplicities.  The family's row of ``groups.TRAITS`` holds them as
``slots``, each a (name, kind, bound) entry: a slot is 0..bound-1 copies of
one module kind, twisted by the group's form when the copy of the group
has a nonstandard form or a signature.  Unless the family is unitary, a
first multiplicity ``b`` (0..n) is the column count of one RectNK frame,
and the trivial and vector modules and the slot kinds are the catalog of
irreducibles of dimension <= n^2 that ``census`` prints, complete from
``weyl.LOW_DIM_THRESHOLD`` on.  Each multiplicity must lie in its range,
and a target is admissible when its total module dimension dim W stays
within n^2; the exact value reported is (dim W - n^2) / divisor, halved
for Sp (the bound in its symplectic rank).
The unitary families, SU and compact Sp, stack no frames and admit no
empty target.

``census`` reports, for each admissible target, the dimension of the
stabilizer in the group of a tuple of canonical witnesses, one per module
factor (``gmodules.canonical_witness``, read from each kind's row of
``gmodules.KINDS``), for a group with a form in its normal frame
(``groups.normal_frame``), to which the group is conjugate.  The structured
stabilizer of a single point lives in :mod:`manirep.stabilizers`.
A canonical witness depends only on its module, so ``census`` and
``minimality_certificate`` pool, once per call, the condition rows of the
frame at full width and of each distinct slot factor, on the columns that
hold a nonzero; each target is a set of pool columns, a factor repeated in
it counted once, and one ``numerical_ranks`` pass ranks them all, with the
base point's rows for ``minimality_certificate``.

``minimality_certificate`` checks, for a manifold family, that its target
dimension matches the family's closed form and that no admissible target
of strictly smaller dimension reproduces the stabilizer dimension at
canonical (generic-spectrum) witnesses.  Stabilizers are compared by
dimension only; a tie is recorded, not decided.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import embeddings as E
from . import groups as G
from . import weyl
from .errors import InvalidDescriptor, NotMinimalFamily, UnsupportedGroup
from .gmodules import ModuleDescriptor, canonical_witness, module_dim, real_dim
from .numkit import COMPLEX, DEFAULT_TOL, Tolerance, numerical_ranks
from .stabilizers import join_rows, stabilizer_rows


def _slots(g: G.GroupDescriptor) -> tuple[tuple[str, str, int], ...]:
    slots = G.TRAITS[g.family].slots
    if slots is None:
        raise UnsupportedGroup(f"no classification for family {g.family!r}")
    return slots


def _names(g: G.GroupDescriptor) -> tuple[str, ...]:
    """The frame width ``b`` unless g's family is unitary, then each slot's name."""
    frame = () if G.TRAITS[g.family].unitary else ("b",)
    return frame + tuple(name for name, _, _ in _slots(g))


def _ranges(g: G.GroupDescriptor) -> list[range]:
    """0..n frame columns unless g's family is unitary, then 0..bound-1 copies per slot."""
    frame = [] if G.TRAITS[g.family].unitary else [range(g.n + 1)]
    return frame + [range(bound) for _, _, bound in _slots(g)]


def _slot_modules(g: G.GroupDescriptor) -> list[ModuleDescriptor]:
    """One module per slot of g's family, in slot order, carrying g's form when g is a copy
    with a nonstandard form or a signature.  Each form-carrying module checks its form, so
    ``enumerate_admissible`` and ``_canonical_h_dims`` build them once per call."""
    form = g.form_matrix() if g.form is not None or g.signature is not None else None
    return [ModuleDescriptor(kind, g.n, g.field, form=form) for _, kind, _ in _slots(g)]


def _uses(spec: TargetSpec) -> list[int]:
    """The frame width b (a leading 0 for a unitary family), then each slot's multiplicity."""
    return [0] * G.TRAITS[spec.group.family].unitary + [*spec.multiplicities]


@dataclass(frozen=True)
class TargetSpec:
    """A candidate module sum for one group, as multiplicities: the frame width b unless
    the family is unitary, then one per slot of its ``TRAITS`` row."""

    group: G.GroupDescriptor
    multiplicities: tuple[int, ...]

    def modules(self) -> list[ModuleDescriptor]:
        """The RectNK frame of b columns (none when b = 0), then each slot's module once
        per copy."""
        return _modules(self, _slot_modules(self.group))

    def to_json(self) -> dict:
        return self._json(self.group.to_json())

    def _json(self, group: dict) -> dict:
        """``to_json`` with the group's own, which ``census`` builds once for every target."""
        mult = dict(zip(_names(self.group), self.multiplicities))
        return {"group": group, "multiplicities": mult}


def _modules(spec: TargetSpec, slots: list[ModuleDescriptor]) -> list[ModuleDescriptor]:
    """``spec.modules()`` from ``slots``, the ``_slot_modules`` of its group."""
    g = spec.group
    b, *counts = _uses(spec)
    frame = [ModuleDescriptor("RectNK", g.n, g.field, k=b)] if b else []
    return frame + [m for m, count in zip(slots, counts) for _ in range(count)]


@dataclass
class AdmissibilityReport:
    spec: TargetSpec
    admissible: bool
    inequality_value: Fraction
    module_dim_total: int
    modules: list[ModuleDescriptor]

    def to_json(self) -> dict:
        return self._json(self.spec.group.to_json())

    def _json(self, group: dict) -> dict:
        return {**self.spec._json(group), "admissible": self.admissible,
                "inequality_value": str(self.inequality_value),
                "dim_total": str(self.module_dim_total)}


def _verdict(g: G.GroupDescriptor, dim_total: int, empty: bool) -> tuple[bool, Fraction]:
    """g's admissibility rule for a target of total module dimension dim W, exactly over
    rationals: whether it admits the target (``empty`` when it has no factor), and the value
    (dim W - n^2) / divisor."""
    t = G.TRAITS[g.family]
    value = Fraction(dim_total - g.n**2, t.divisor)
    return value <= 0 and not (t.unitary and empty), value


def admissible(spec: TargetSpec) -> AdmissibilityReport:
    """Evaluate the family's admissibility rule exactly over rationals.  A multiplicity out of
    its family's range is an :class:`InvalidDescriptor`."""
    g = spec.group
    mult = spec.multiplicities
    ranges = _ranges(g)
    if len(mult) != len(ranges):
        raise InvalidDescriptor(f"{g.family} expects {len(ranges)} multiplicities")
    for name, m, r in zip(_names(g), mult, ranges):
        if m not in r:
            raise InvalidDescriptor(f"{g.family} multiplicity {name} must be in 0..{r[-1]}")
    mods = spec.modules()
    dim_total = sum(module_dim(m) for m in mods)
    ok, value = _verdict(g, dim_total, not mods)
    return AdmissibilityReport(spec, ok, value, dim_total, mods)


def enumerate_admissible(g: G.GroupDescriptor) -> list[AdmissibilityReport]:
    """All admissible multiplicity tuples, by total dimension then lex order, each reported
    as by ``admissible``.  The total dimensions of all tuples, from the dimensions of one frame
    column and of each slot module built once per call, decide them on integers in one array
    pass, before any value, ``TargetSpec`` or module list is built: as every divisor is
    positive, ``_verdict`` admits exactly the tuples with dim W <= n^2, apart from a unitary
    family's empty one."""
    slots = _slot_modules(g)
    unit = [module_dim(m) for m in slots]
    unitary = G.TRAITS[g.family].unitary
    if not unitary:
        unit.insert(0, module_dim(ModuleDescriptor("RectNK", g.n, g.field, k=1)))
    # every tuple, in lex order (each range starts at 0), and its dim W
    mults = np.indices([len(r) for r in _ranges(g)]).reshape(len(unit), -1).T
    dims = mults @ np.array(unit, int)
    keep = (dims <= g.n**2) & (mults.any(axis=1) | (not unitary))
    reports = []
    for mult, dim_total in zip(mults[keep].tolist(), dims[keep].tolist()):
        spec = TargetSpec(g, tuple(mult))
        value = Fraction(dim_total - g.n**2, G.TRAITS[g.family].divisor)  # as in _verdict
        reports.append(AdmissibilityReport(spec, True, value, dim_total, _modules(spec, slots)))
    return sorted(reports, key=lambda r: (r.module_dim_total, r.spec.multiplicities))


# ---------------------------------------------------------------------------
# stabilizer dimensions at canonical witnesses


def _canonical_h_dims(g: G.GroupDescriptor, specs: list[TargetSpec],
                      tol: Tolerance = DEFAULT_TOL, point=None) -> list[int]:
    """Stabilizer dimension in g at the canonical witnesses of each target, then, when a
    ``point`` (module, action, X) is given, at that point.

    A canonical witness depends only on its module, so one pool, built once per call, holds
    the condition rows of every target: joined column-wise (``join_rows``), the frame's rows
    at full width b = n (witness I_n) and the rows of each distinct slot module, each built
    (and its witness checked) only if some target holds it, and the point's rows, as a dense
    matrix on the rows and columns that hold a nonzero.  A target is a set of those columns:
    as Z [I_b; 0] is the first b columns of Z, the frame's columns of witness columns c < b,
    and the columns of each slot it holds; a module repeated in a target counts once, as
    equal rows cut out the same kernel.  The point's set is its own columns.
    ``numerical_ranks`` ranks every set in one batched pass, each as in
    ``intersect_stabilizer_dim``."""
    mods = [ModuleDescriptor("RectNK", g.n, g.field, k=g.n), *_slot_modules(g)]
    uses = np.array([_uses(spec) for spec in specs], int).reshape(len(specs), len(mods))
    used = np.flatnonzero(uses.any(axis=0))
    points = [(mods[i], mods[i].action, canonical_witness(mods[i])) for i in used]
    parts = [stabilizer_rows(g, *p, tol) for p in points + ([point] if point else [])]
    d = G.group_dim(g)
    A, cols = join_rows(d, parts)
    # the pool's columns come first, then the point's; a pool column is in a target when its
    # level, the witness column c for the frame (two columns per entry when split into
    # (re, im)) and 0 for a slot, is below the target's use of its factor
    widths = [p.width for p in parts]
    end = np.cumsum(widths[:len(used)], dtype=int)
    pool = cols[:cols.searchsorted(end[-1])] if len(used) else cols[:0]
    factor = used[end.searchsorted(pool, side="right")]
    level = np.where(factor == 0, pool // (widths[0] // g.n**2) % g.n, 0) if len(used) else pool
    sets = [row.nonzero()[0] for row in level < uses[:, factor]]
    if point:
        sets.append(np.arange(len(pool), len(cols)))
    return [d - rank for rank in numerical_ranks(A, sets, tol)]


def census(g: G.GroupDescriptor) -> dict:
    """Every admissible target of g with its stabilizer dimension at canonical
    witnesses and, unless g's family is unitary, its catalog of irreducible
    modules of dimension <= n^2: the trivial and vector modules and the family's
    slot kinds, over C, flagged advisory below ``weyl.LOW_DIM_THRESHOLD``.  When g has
    a form, the stabilizers are those of its normal frame (``groups.normal_frame``), to
    which g is conjugate; the report still names g, in one ``to_json`` object that the
    report and every target share."""
    group = g.to_json()
    out = {"group": group, "targets": []}
    reports = enumerate_admissible(g)
    g0 = G.normal_frame(g)[0]
    for rep, h_dim in zip(reports, _canonical_h_dims(g0, [rep.spec for rep in reports])):
        entry = rep._json(group)
        entry["canonical_h_dim"] = h_dim
        out["targets"].append(entry)
    if not G.TRAITS[g.family].unitary:
        weyl.rank_of(*G.algebra_of(g))  # SL_1, SO_1 and SO_2 have no catalog
        mods = [ModuleDescriptor("Trivial", g.n, COMPLEX),
                ModuleDescriptor("RectNK", g.n, COMPLEX, k=1)]
        mods += [ModuleDescriptor(kind, g.n, COMPLEX) for _, kind, _ in _slots(g)]
        out["low_dim_modules"] = [m.to_json() for m in mods]
        out["low_dim_advisory"] = E.low_dim_advisory(g)
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
    canonical witnesses with the family's, dim H = group_dim - ``tangent_dim``, ranked at
    the base point in the same pass.  A candidate whose stabilizer dimension equals the
    family's is recorded in ``dim_collisions``; the dimension alone cannot
    tell the two stabilizers apart.
    """
    gp = E.group(md)
    mod = E.module(md)
    dim_v = module_dim(mod)
    mp = E.mp_dimension(md)
    if dim_v != mp:
        raise NotMinimalFamily(f"target dimension {dim_v} differs from closed form {mp}")
    dim_v_cmp = _comparison_dim(gp, mod)

    smaller = [rep for rep in enumerate_admissible(gp)
               if rep.modules and sum(_comparison_dim(gp, m) for m in rep.modules) < dim_v_cmp]
    base = E.base_point(md)
    *stabs, h_dim = _canonical_h_dims(gp, [rep.spec for rep in smaller], tol,
                                      (base.module, E.action(md), base.value))
    candidates = [(rep.spec.multiplicities, rep.module_dim_total, stab)
                  for rep, stab in zip(smaller, stabs)]
    collisions = [mult for mult, _, stab in candidates if stab == h_dim]
    return MinimalityReport(manifold=md, dim_v=dim_v, mp_dim=mp, h_dim=h_dim,
                            advisory=E.minimality_advisory(md), candidates=candidates,
                            dim_collisions=collisions, certified=True)
