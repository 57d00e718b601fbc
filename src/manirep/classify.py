"""Which module sums admit a faithful orbit realization, and minimality sweeps.

For each supported group family there is a short list of low-dimensional
irreducible modules (see :mod:`manirep.weyl`), so a candidate target is
just a tuple of multiplicities.  Each family is one :class:`GroupFamily`
row of ``GROUP_FAMILIES``: the multiplicity names, factor kinds and ranges.
A target is admissible when its total module dimension dim W stays within
n^2; the exact value reported is (dim W - n^2) / divisor, halved for Sp
(the bound in its symplectic rank).  The unitary and compact symplectic
families instead have hard-coded short lists.

``stabilizer_form`` assembles the subgroup realized by a tuple of witness
points, one per module factor: per-factor structured stabilizers plus the
exact dimension of their intersection inside the group.  Each factor kind
is one :class:`Factor` row of ``FACTORS``: its canonical witness, its
structured stabilizer and its block signature.  ``census`` reports only the
intersection dimension, so it builds no factor stabilizer.

``minimality_certificate`` checks, for a manifold family, that its target
dimension matches the family's closed form and that no admissible target
of strictly smaller dimension reproduces the stabilizer dimension at
canonical (generic-spectrum) witnesses.  Stabilizer identity is compared
at desk scale only: dimension first, block-structure signature on ties.
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
from .errors import (
    InvalidDescriptor,
    NotMinimalFamily,
    UnsupportedGroup,
    WitnessNotInModule,
)
from .gmodules import (
    ModuleDescriptor,
    module_dim,
    real_dim,
)
from .numkit import (
    COMPLEX,
    DEFAULT_TOL,
    REAL,
    Tolerance,
    clusters,
    mat_to_json,
    numerical_rank,
    takagi,
    youla_blocks,
)
from .stabilizers import (
    intersect_stabilizer_dim,
    stabilizer_congruence_skew,
    stabilizer_congruence_sym,
    stabilizer_left_mult,
    stabilizer_similarity,
)


@dataclass(frozen=True)
class GroupFamily:
    """Candidate targets of one group family.

    With ``stack`` the first multiplicity ``b`` (0..n) is the column count
    of one RectNK factor.  Each entry (name, kind, bound) of ``slots`` is a
    further multiplicity, 0..bound-1 copies of one factor kind; ``twisted``
    factors carry the group's form.  The exact admissibility value is
    (dim W - n^2) / ``divisor`` for the total module dimension dim W.  A
    target is admissible when it is in ``listed`` or, for a family without
    a list, when it is in range and the value is <= 0.  ``catalog`` says
    whether ``census`` reports the low-dimensional Weyl catalog.
    """

    name: str
    slots: tuple[tuple[str, str, int], ...]
    divisor: int = 1
    stack: bool = True
    twisted: bool = False
    listed: frozenset | None = None
    catalog: bool = True

    @property
    def names(self) -> tuple[str, ...]:
        return (("b",) if self.stack else ()) + tuple(name for name, _, _ in self.slots)

    def ranges(self, n: int) -> list[range]:
        stack = [range(n + 1)] if self.stack else []
        return stack + [range(bound) for _, _, bound in self.slots]


_SO = GroupFamily("SO", (("c", "Alt2", 3), ("d", "Sym2Traceless", 3)))
GROUP_FAMILIES = {
    G.SL: GroupFamily("SL", (("c", "Alt2", 3), ("d", "Sym2", 2), ("e", "SLnTraceless", 2))),
    G.SO: _SO,
    G.SOPQ: replace(_SO, twisted=True),
    G.SP: GroupFamily("Sp", (("c", "Sym2TracelessForm", 2), ("d", "Alt2Form", 2)), divisor=2),
    G.SU: GroupFamily("SU", (("a", "SUAlgebra", 2),), stack=False,
                      listed=frozenset({(1,)}), catalog=False),
    G.SP_COMPACT: GroupFamily("SpC", (("c", "SymTracelessCapSU", 2), ("d", "SpAlgebra", 2)),
                              stack=False, listed=frozenset({(0, 1), (1, 0), (1, 1)}),
                              catalog=False),
}


def _group_family(g: G.GroupDescriptor) -> GroupFamily:
    if g.family not in GROUP_FAMILIES:
        raise UnsupportedGroup(f"no classification for family {g.family!r}")
    return GROUP_FAMILIES[g.family]


@dataclass(frozen=True)
class TargetSpec:
    """A candidate module sum for one group, as factor multiplicities in the
    order of its family's row in ``GROUP_FAMILIES``."""

    group: G.GroupDescriptor
    multiplicities: tuple[int, ...]

    def modules(self) -> list[ModuleDescriptor]:
        g = self.group
        fam = _group_family(g)
        mult = self.multiplicities
        out: list[ModuleDescriptor] = []
        if fam.stack:
            b, *mult = mult
            if b:
                out.append(ModuleDescriptor("RectNK", g.n, g.field, k=b))
        form = g.form_matrix() if fam.twisted else None
        for (_, kind, _), count in zip(fam.slots, mult):
            out += [ModuleDescriptor(kind, g.n, g.field, form=form)] * count
        return out

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "multiplicities": dict(zip(_group_family(self.group).names, self.multiplicities)),
        }


@dataclass
class AdmissibilityReport:
    spec: TargetSpec
    admissible: bool
    inequality_value: Fraction
    module_dim_total: int
    modules: list[ModuleDescriptor]

    def to_json(self) -> dict:
        out = self.spec.to_json()
        out.update(
            {
                "admissible": self.admissible,
                "inequality_value": str(self.inequality_value),
                "dim_total": str(self.module_dim_total),
            }
        )
        return out


def admissible(spec: TargetSpec) -> AdmissibilityReport:
    """Evaluate the family's admissibility rule exactly over rationals."""
    g = spec.group
    fam = _group_family(g)
    mult = spec.multiplicities
    ranges = fam.ranges(g.n)
    if len(mult) != len(ranges):
        raise InvalidDescriptor(f"{fam.name} expects {len(ranges)} multiplicities")
    in_range = all(m in r for m, r in zip(mult, ranges))
    mods = spec.modules()
    dim_total = sum(module_dim(m) for m in mods)
    value = Fraction(dim_total - g.n**2, fam.divisor)
    if fam.listed is not None:
        ok = tuple(mult) in fam.listed
    else:
        ok = in_range and value <= 0
    return AdmissibilityReport(spec, ok, value, dim_total, mods)


def enumerate_admissible(g: G.GroupDescriptor) -> list[AdmissibilityReport]:
    """All admissible multiplicity tuples, by total dimension then lex order."""
    out = []
    for mult in product(*_group_family(g).ranges(g.n)):
        rep = admissible(TargetSpec(g, mult))
        if rep.admissible:
            out.append(rep)
    out.sort(key=lambda r: (r.module_dim_total, r.spec.multiplicities))
    return out


# ---------------------------------------------------------------------------
# stabilizers realized by witness tuples


@dataclass
class CompactBlocks:
    """Block stabilizer of a spectral witness inside a compact group."""

    conjugator: np.ndarray
    sizes: tuple[int, ...]
    flavor: str  # "s-unitary-product" | "unitary-product" | "sp-product"

    @property
    def dim(self) -> int:
        if self.flavor == "s-unitary-product":
            return sum(k * k for k in self.sizes) - 1
        if self.flavor == "unitary-product":
            return sum(k * k for k in self.sizes)
        if self.flavor == "sp-product":
            return sum(2 * k * k + k for k in self.sizes)
        raise InvalidDescriptor(self.flavor)

    def to_json(self) -> dict:
        return {
            "conjugator": mat_to_json(self.conjugator, COMPLEX),
            "sizes": list(self.sizes),
            "flavor": self.flavor,
            "dim": self.dim,
        }


def _group_eigs(vals: np.ndarray, tol: float) -> list[tuple[float, int]]:
    """(mean, multiplicity) of each ``clusters`` cluster of the sorted real values, ascending."""
    vals = np.sort(vals)
    return [(float(np.mean(vals[idx])), len(idx)) for idx in clusters(vals, tol)]


def _untwisted(m: ModuleDescriptor, X: np.ndarray) -> np.ndarray:
    """The form-twisted copy of a witness as a plain symmetric or skew matrix."""
    return X if m.form is None else m.form @ X


def _similarity_stabilizer(m, X, tol):
    Z = np.asarray(X, dtype=complex) * 16
    dyadic = bool(np.all(Z == np.round(Z.real) + 1j * np.round(Z.imag)))
    return stabilizer_similarity(X, "exact" if dyadic else "numeric", tol, field=m.field)


def _compact_blocks(flavor, sizes):
    """Stabilizer of a compact witness: ``sizes`` maps the eigenvalue
    clusters (value, multiplicity) of -iX to the block sizes."""

    def stabilizer(m, X, tol):
        vals, vecs = np.linalg.eigh(-1j * np.asarray(X, dtype=complex))
        classes = _group_eigs(vals, tol.cutoff(np.abs(vals).max(initial=1.0)))
        return CompactBlocks(vecs, sizes(classes), flavor)

    return stabilizer


def _quaternionic_sizes(classes):
    if any(k % 2 for _, k in classes):
        raise WitnessNotInModule("quaternionic witness spectra must pair up")
    return tuple(k // 2 for _, k in classes)


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


def _skew_signature(m, X):
    r = numerical_rank(_untwisted(m, X)) // 2
    return ("skew", r, m.n - 2 * r)


def _sym_signature(m, X):
    S = _untwisted(m, X)
    if m.field == REAL:
        vals = np.linalg.eigvalsh(np.asarray(S + S.T, dtype=complex).real / 2)
    else:
        _, vals = takagi(np.asarray(S, dtype=complex))
    nz = vals[np.abs(vals) > 1e-9 * max(np.abs(vals).max(initial=0.0), 1.0)]
    mult = tuple(sorted(k for _, k in _group_eigs(nz, 1e-7 * max(np.abs(nz).max(initial=1.0), 1.0))))
    return ("sym", mult, m.n - len(nz))


def _adjoint_signature(m, X):
    """Eigenvalue multiplicity pattern of an adjoint-type factor."""
    vals = np.linalg.eigvals(np.asarray(X, dtype=complex))
    re = np.sort(vals.imag if np.abs(vals.real).max(initial=0.0) < 1e-9 else vals.real)
    mult = tuple(sorted(k for _, k in _group_eigs(re, 1e-7 * max(np.abs(re).max(initial=1.0), 1.0))))
    return ("adjoint", mult)


@dataclass(frozen=True)
class Factor:
    """One factor kind: its generic witness (full rank, all spectral values
    distinct), the structured stabilizer of a witness matching the factor's
    action, and the coarse block signature that tells stabilizers of equal
    dimension apart."""

    witness: Callable[[ModuleDescriptor], np.ndarray]
    stabilizer: Callable[[ModuleDescriptor, np.ndarray, Tolerance], object]
    signature: Callable[[ModuleDescriptor, np.ndarray], tuple]


_SYMMETRIC = Factor(
    _diagonal_witness(centered=False),
    lambda m, X, tol: stabilizer_congruence_sym(_untwisted(m, X), tol, field=m.field),
    _sym_signature)
FACTORS = {
    "RectNK": Factor(_stack_witness,
                     lambda m, X, tol: stabilizer_left_mult(X, tol, field=m.field),
                     lambda m, X: ("stack", m.k)),
    "Alt2": Factor(
        _skew_witness,
        lambda m, X, tol: stabilizer_congruence_skew(_untwisted(m, X), tol, field=m.field),
        _skew_signature),
    "Sym2": _SYMMETRIC,
    "Sym2Traceless": replace(_SYMMETRIC, witness=_diagonal_witness(centered=True)),
    "SLnTraceless": Factor(_diagonal_witness(centered=True), _similarity_stabilizer,
                           _adjoint_signature),
    "Sym2TracelessForm": Factor(_diagonal_witness(centered=True, pairing=1),
                                _similarity_stabilizer, _adjoint_signature),
    "Alt2Form": Factor(_diagonal_witness(centered=False, pairing=-1), _similarity_stabilizer,
                       _adjoint_signature),
    "SUAlgebra": Factor(_diagonal_witness(centered=True, imaginary=True),
                        _compact_blocks("s-unitary-product", lambda c: tuple(k for _, k in c)),
                        _adjoint_signature),
    "SymTracelessCapSU": Factor(_diagonal_witness(centered=True, pairing=1, imaginary=True),
                                _compact_blocks("sp-product", _quaternionic_sizes),
                                _adjoint_signature),
    "SpAlgebra": Factor(_diagonal_witness(centered=False, pairing=-1, imaginary=True),
                        _compact_blocks("unitary-product",
                                        lambda c: tuple(k for lam, k in c if lam > 0)),
                        _adjoint_signature),
}


def _factor(m: ModuleDescriptor) -> Factor:
    if m.kind not in FACTORS:
        raise InvalidDescriptor(f"{m.kind} is not a classification factor")
    return FACTORS[m.kind]


def factor_stabilizer(module: ModuleDescriptor, X: np.ndarray, tol: Tolerance = DEFAULT_TOL):
    """Structured stabilizer of one witness, matching the factor's action."""
    return _factor(module).stabilizer(module, X, tol)


@dataclass
class StabilizerFormReport:
    spec: TargetSpec
    factors: list
    h_dim: int

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "factors": [f.to_json() for f in self.factors],
            "h_dim": self.h_dim,
        }


def stabilizer_form(
    spec: TargetSpec, witnesses: list[np.ndarray], tol: Tolerance = DEFAULT_TOL
) -> StabilizerFormReport:
    """Per-factor structured stabilizers and the intersection dimension in G."""
    mods = spec.modules()
    if len(witnesses) != len(mods):
        raise InvalidDescriptor(f"expected {len(mods)} witnesses, got {len(witnesses)}")
    constraints = [(m, m.action, X) for m, X in zip(mods, witnesses)]
    h_dim = intersect_stabilizer_dim(spec.group, constraints, tol)  # rejects non-members first
    factors = [factor_stabilizer(m, X, tol) for m, X in zip(mods, witnesses)]
    return StabilizerFormReport(spec=spec, factors=factors, h_dim=h_dim)


def canonical_witness(module: ModuleDescriptor) -> np.ndarray:
    """The generic witness of a factor: full rank, all spectral values distinct."""
    return _factor(module).witness(module)


def _canonical_h_dim(g: G.GroupDescriptor, mods: list[ModuleDescriptor],
                     tol: Tolerance = DEFAULT_TOL) -> int:
    """Stabilizer dimension in g at the canonical witnesses of ``mods``."""
    return intersect_stabilizer_dim(g, [(m, m.action, canonical_witness(m)) for m in mods], tol)


def census(g: G.GroupDescriptor) -> dict:
    """Every admissible target of g with its stabilizer dimension at canonical
    witnesses, plus the low-dimensional Weyl catalog for the split families."""
    out = {"group": g.to_json(), "targets": []}
    for rep in enumerate_admissible(g):
        entry = rep.to_json()
        entry["canonical_h_dim"] = _canonical_h_dim(g, rep.modules)
        out["targets"].append(entry)
    if _group_family(g).catalog:
        cat = weyl.low_dim_classification(*weyl.algebra_of(g))
        out["low_dim_modules"] = [m.to_json() for m in cat.modules]
        out["low_dim_advisory"] = cat.advisory
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

    Asserts the target dimension equals the family's closed form, then
    sweeps every admissible target of strictly smaller dimension and
    compares stabilizer dimensions at canonical witnesses.  A candidate
    matching both the dimension and the block signature of the family's
    stabilizer raises :class:`NotMinimalFamily`; a bare dimension tie is
    reported in ``dim_collisions`` (structure distinguishes the groups).
    """
    gp = E.group(md)
    mod = E.module(md)
    dim_v = module_dim(mod)
    mp = E.mp_dimension(md)
    if dim_v != mp:
        raise NotMinimalFamily(f"target dimension {dim_v} differs from closed form {mp}")
    h_dim = G.group_dim(gp) - E.tangent_dim(md)
    dim_v_cmp = _comparison_dim(gp, mod)

    target_sig = None
    base = E.base_point(md)
    if base.module.kind != "RectNK":
        target_sig = _factor(base.module).signature(base.module, base.value)

    candidates = []
    collisions = []
    for rep in enumerate_admissible(gp):
        mods = rep.modules
        if not mods:
            continue
        cmp_dim = sum(_comparison_dim(gp, m) for m in mods)
        if cmp_dim >= dim_v_cmp:
            continue
        stab = _canonical_h_dim(gp, mods, tol)
        candidates.append((rep.spec.multiplicities, rep.module_dim_total, stab))
        if stab == h_dim:
            sig = (_factor(mods[0]).signature(mods[0], canonical_witness(mods[0]))
                   if len(mods) == 1 else None)
            if sig is not None and target_sig is not None and sig == target_sig:
                raise NotMinimalFamily(
                    f"admissible target {rep.spec.multiplicities} of dimension "
                    f"{rep.module_dim_total} reproduces the stabilizer"
                )
            collisions.append(rep.spec.multiplicities)
    return MinimalityReport(
        manifold=md,
        dim_v=dim_v,
        mp_dim=mp,
        h_dim=h_dim,
        advisory=E.minimality_advisory(md),
        candidates=candidates,
        dim_collisions=collisions,
        certified=True,
    )
