from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from manirep import classify as C
from manirep import groups as G
from manirep.classify import (
    TargetSpec,
    admissible,
    census,
    enumerate_admissible,
    minimality_certificate,
)
from manirep.embeddings import ManifoldDescriptor
from manirep.errors import InvalidDescriptor, UnsupportedGroup, WitnessNotInModule
from manirep.gmodules import canonical_witness, module_dim
from manirep.numkit import dumps, youla_blocks
from manirep.stabilizers import intersect_stabilizer_dim, stabilizer_similarity


def h_dim(spec: TargetSpec, witnesses: list[np.ndarray]) -> int:
    """Stabilizer dimension in the spec's group of one witness per module factor."""
    mods = spec.modules()
    assert len(witnesses) == len(mods)
    return intersect_stabilizer_dim(spec.group, [(m, m.action, X) for m, X in zip(mods, witnesses)])


class TestAdmissible:
    def test_sl9_adjoint(self):
        rep = admissible(TargetSpec(G.sl(9, "C"), (0, 0, 0, 1)))
        assert rep.admissible and rep.inequality_value == -1
        assert rep.module_dim_total == 80

    def test_sl9_full_stack(self):
        rep = admissible(TargetSpec(G.sl(9, "C"), (9, 0, 0, 0)))
        assert rep.admissible and rep.inequality_value == 0
        assert rep.module_dim_total == 81

    def test_sl9_mixed_rejected(self):
        rep = admissible(TargetSpec(G.sl(9, "C"), (1, 1, 1, 0)))
        assert not rep.admissible and rep.inequality_value == 9

    def test_so19_pair(self):
        rep = admissible(TargetSpec(G.so(19, "C"), (0, 1, 1)))
        assert rep.admissible and rep.inequality_value == -1
        assert rep.module_dim_total == 171 + 189

    def test_sp_compact_pairs(self):
        for mult, ok in [((1, 1), True), ((0, 1), True), ((1, 0), True), ((0, 0), False)]:
            assert admissible(TargetSpec(G.sp_compact(10), mult)).admissible == ok

    @pytest.mark.parametrize("g", [G.su(2), G.su(3), G.su(9), G.sp_compact(2), G.sp_compact(4),
                                   G.sp_compact(10)], ids=lambda g: f"{g.family}{g.n}")
    def test_compact_families_admit_every_nonempty_target(self, g):
        """SU and compact Sp stack no frames: every in-range tuple but the empty one is
        admissible, and census reports neither the empty target nor a Weyl catalog."""
        for mult in product(*C._ranges(g)):
            assert admissible(TargetSpec(g, mult)).admissible == any(mult), mult
        out = census(g)
        assert out["targets"] and all(any(t["multiplicities"].values()) for t in out["targets"])
        assert "low_dim_modules" not in out and "low_dim_advisory" not in out

    def test_value_is_dim_gap(self):
        # for SL and SO the inequality value is exactly dim(W) - n^2
        for mult in [(0, 0, 0, 1), (3, 1, 0, 0), (9, 0, 0, 0), (0, 2, 1, 1)]:
            rep = admissible(TargetSpec(G.sl(9, "C"), mult))
            assert rep.inequality_value == rep.module_dim_total - 81
        for mult in [(0, 1, 1), (2, 0, 1), (19, 0, 0)]:
            rep = admissible(TargetSpec(G.so(19, "C"), mult))
            assert rep.inequality_value == rep.module_dim_total - 361

    def test_sp_value_is_half_dim_gap(self):
        for mult in [(0, 1, 1), (1, 0, 1), (10, 0, 0)]:
            rep = admissible(TargetSpec(G.sp(10, "C"), mult))
            assert rep.inequality_value == Fraction(rep.module_dim_total - 100, 2)

    @pytest.mark.parametrize("mult", [(0, 3, 0, 0), (0, 0, 2, 0), (0, -1, 0, 0), (4, 0, 0, 0),
                                      (0, 10**20, 0, 0)])
    def test_multiplicity_out_of_range_is_invalid(self, mult):
        """Out of its range a multiplicity is outside the classification, even where the
        dimension bound holds: 3 copies of Alt2 of SL_3 have dimension 9 = n^2."""
        with pytest.raises(InvalidDescriptor, match="multiplicity"):
            admissible(TargetSpec(G.sl(3, "C"), mult))

    def test_unsupported_group(self):
        with pytest.raises(UnsupportedGroup):
            admissible(TargetSpec(G.gl(5), (1,)))


class TestEnumerate:
    def test_su9_exactly_one(self):
        reps = enumerate_admissible(G.su(9))
        assert len(reps) == 1
        assert reps[0].spec.multiplicities == (1,)
        assert reps[0].module_dim_total == 80

    def test_sp_compact_exactly_three(self):
        reps = enumerate_admissible(G.sp_compact(10))
        assert [r.spec.multiplicities for r in reps] == [(1, 0), (0, 1), (1, 1)]

    def test_sl9_sweep(self):
        reps = enumerate_admissible(G.sl(9, "C"))
        mults = {r.spec.multiplicities for r in reps}
        for b in range(10):
            assert (b, 0, 0, 0) in mults
        assert (0, 0, 0, 1) in mults
        assert (1, 1, 1, 0) not in mults

    @pytest.mark.parametrize("g", [G.sl(9, "C"), G.so(19, "C"), G.sp(10, "C"), G.su(9),
                                   G.sp_compact(10), G.so_pq(2, 3)],
                             ids=lambda g: f"{g.family}{g.n}")
    def test_reports_are_those_of_admissible(self, g):
        """enumerate_admissible reports each tuple it keeps as admissible(spec) does."""
        for rep in enumerate_admissible(g):
            one = admissible(rep.spec)
            assert rep.to_json() == one.to_json()
            assert [(m.kind, m.k) for m in rep.modules] == [(m.kind, m.k) for m in one.modules]

    def test_sorted_by_dimension(self):
        reps = enumerate_admissible(G.so(19, "C"))
        dims = [r.module_dim_total for r in reps]
        assert dims == sorted(dims)

    def test_inadmissible_exceed_bound(self):
        # every rejected tuple in range overshoots the dimension bound
        from itertools import product

        for mult in product(range(10), range(3), range(2), range(2)):
            rep = admissible(TargetSpec(G.sl(9, "C"), mult))
            if not rep.admissible:
                assert rep.module_dim_total > 81
        for mult in product(range(20), range(3), range(3)):
            rep = admissible(TargetSpec(G.so(19, "C"), mult))
            if not rep.admissible:
                assert rep.module_dim_total > 361
        for mult in product(range(11), range(2), range(2)):
            rep = admissible(TargetSpec(G.sp(10, "C"), mult))
            if not rep.admissible:
                assert rep.module_dim_total > 100


class TestStabilizerForm:
    def test_sl9_adjoint_witness(self):
        spec = TargetSpec(G.sl(9, "C"), (0, 0, 0, 1))
        X = np.diag(np.arange(1.0, 10.0) - 5.0).astype(complex)
        # distinct spectrum: the commutant torus cut to determinant one
        assert h_dim(spec, [X]) == 8
        assert stabilizer_similarity(X, "exact", field="C").commutant_dim == 9

    def test_so9_vector_witness(self):
        spec = TargetSpec(G.so(9, "R"), (1, 0, 0))
        e1 = np.zeros((9, 1))
        e1[0, 0] = 1.0
        assert h_dim(spec, [e1]) == 28

    def test_sl9_adjoint_multiplicity_witness(self):
        # traceless spectrum 1,1,2,2,2,-2,-2,-2,-2: commutant blocks (2,3,4)
        spec = TargetSpec(G.sl(9, "C"), (0, 0, 0, 1))
        X = np.diag([1.0, 1, 2, 2, 2, -2, -2, -2, -2]).astype(complex)
        assert h_dim(spec, [X]) == 4 + 9 + 16 - 1

    def test_su9_witness(self):
        # eigenvalue clusters of sizes 2 and 7: S(U_2 x U_7)
        spec = TargetSpec(G.su(9), (1,))
        X = 1j * np.diag([7.0] * 2 + [-2.0] * 7)
        assert h_dim(spec, [X]) == 52

    def test_direct_sum_consistency(self):
        # two witnesses vs the stacked pair: identical dimensions
        rng = np.random.default_rng(0)
        from manirep.gmodules import ActionKind, ModuleDescriptor

        m = ModuleDescriptor("RectNK", 7, "R", k=1)
        mm = ModuleDescriptor("RectNK", 7, "R", k=2)
        for trial in range(50):
            v1 = rng.standard_normal((7, 1))
            v2 = rng.standard_normal((7, 1))
            two = intersect_stabilizer_dim(
                G.so(7), [(m, ActionKind.LEFT_MULT, v1), (m, ActionKind.LEFT_MULT, v2)]
            )
            stacked = intersect_stabilizer_dim(
                G.so(7), [(mm, ActionKind.LEFT_MULT, np.concatenate([v1, v2], axis=1))]
            )
            assert two == stacked

    def test_witness_validation(self):
        spec = TargetSpec(G.so(9, "R"), (0, 1, 0))
        with pytest.raises(WitnessNotInModule):
            h_dim(spec, [np.eye(9)])

    def test_intersection_dims_example(self):
        # stabilizers of (e1, e1) and (e1, e9): same factors, different H
        spec = TargetSpec(G.so(9, "R"), (2, 0, 0))
        Y_same = np.zeros((9, 2)); Y_same[0, 0] = Y_same[0, 1] = 1.0
        Y_diff = np.zeros((9, 2)); Y_diff[0, 0] = Y_diff[8, 1] = 1.0
        assert h_dim(spec, [Y_same]) == 28
        assert h_dim(spec, [Y_diff]) == 21


class TestMinimality:
    def test_gr_real_19(self):
        rep = minimality_certificate(ManifoldDescriptor("gr-real", n=19, k=2))
        assert rep.certified and not rep.advisory
        assert rep.dim_v == 189 and rep.h_dim == 137
        assert all(s != rep.h_dim for _, _, s in rep.candidates)

    def test_stiefel_19(self):
        rep = minimality_certificate(ManifoldDescriptor("stiefel-real", n=19, k=2))
        assert rep.certified and not rep.advisory
        assert rep.dim_v == 38

    def test_gr_real_9_advisory(self):
        rep = minimality_certificate(ManifoldDescriptor("gr-real", n=9, k=2))
        assert rep.certified and rep.advisory
        assert rep.dim_v == 44

    def test_su_families_trivial_sweep(self):
        rep = minimality_certificate(ManifoldDescriptor("gr-complex", n=9, k=2))
        assert rep.certified
        assert rep.candidates == []

    def test_quaternionic(self):
        rep = minimality_certificate(ManifoldDescriptor("gr-quaternionic", n=5, k=2))
        assert rep.certified and not rep.advisory

    def test_lgr(self):
        rep = minimality_certificate(ManifoldDescriptor("lgr-c", n=5))
        assert rep.certified and not rep.advisory

    def test_all_families_certify_at_smallest_legal(self):
        from manirep.embeddings import all_smallest_legal

        for md in all_smallest_legal():
            rep = minimality_certificate(md)
            assert rep.certified and rep.advisory, md.family

    @pytest.mark.parametrize("md", [
        ManifoldDescriptor("igr", n=19, k=3),
        ManifoldDescriptor("ifl-even", n=10, ks=(2, 5)),
        ManifoldDescriptor("gr-indefinite", n=19, pq=(2, 1), sizes=(10, 9)),
        ManifoldDescriptor("gr-sp-real", n=5, k=2),
        ManifoldDescriptor("fl-sp", n=5, ks=(1, 3), field="R"),
        ManifoldDescriptor("fl-complex", n=9, ks=(2, 5)),
        ManifoldDescriptor("lfl", n=5, ks=(2, 3)),
        ManifoldDescriptor("sogr-c", n=10),
        ManifoldDescriptor("gr-complex-locus", n=19, k=4),
        ManifoldDescriptor("ifl-odd", n=8, ks=(2, 5), p=3),
    ], ids=lambda m: m.family)
    def test_full_range_families_certify_cleanly(self, md):
        rep = minimality_certificate(md)
        assert rep.certified and not rep.advisory
        assert rep.dim_collisions == []

    def test_flag_stack_dimension_tie_is_recorded(self):
        # dim S(O_1 x O_1 x O_17) = dim SO_17: the 2-frame stack target ties
        # the flag stabilizer dimension; the two groups share a Lie algebra
        # and differ only in components, which a dimension cannot see
        rep = minimality_certificate(ManifoldDescriptor("fl-real", n=19, ks=(1, 2)))
        assert rep.certified and not rep.advisory
        assert rep.dim_collisions == [(2, 0, 0)]
        assert rep.h_dim == 136


@pytest.mark.parametrize("g", [G.sl(5, "C"), G.so(7, "C"), G.sp(6, "C"), G.sp(6, "R"), G.su(5),
                               G.sp_compact(6), G.so_pq(2, 3)],
                         ids=["SL5C", "SO7C", "Sp6C", "Sp6R", "SU5", "SpCompact6", "SOpq23"])
def test_census_h_dim_matches_the_structured_stabilizers(g):
    """census builds each distinct factor's rows once and counts a repeated factor once; its
    dimension must equal intersect_stabilizer_dim on the full constraint list at the same
    canonical witnesses, repeated factors kept (no constraint: the whole group)."""
    targets = census(g)["targets"]
    reports = enumerate_admissible(g)
    assert len(targets) == len(reports)
    for entry, rep in zip(targets, reports):
        assert entry["multiplicities"] == rep.to_json()["multiplicities"]
        witnesses = [canonical_witness(m) for m in rep.modules]
        assert entry["canonical_h_dim"] == h_dim(rep.spec, witnesses)


def _targets(out):
    return [{key: v for key, v in t.items() if key != "group"} for t in out["targets"]]


@pytest.mark.parametrize("n, field", [(5, "R"), (5, "C"), (6, "C")])
def test_census_of_a_diagonal_form_copy_matches_the_standard_group(n, field):
    """SO_n with a positive diagonal form D is conjugate to SO_n, and the two censuses agree
    target for target."""
    std = census(G.so(n, field))
    twisted = census(G.so(n, field, form=np.diag(np.arange(1.0, n + 1))))
    assert _targets(twisted) == _targets(std)
    assert twisted["low_dim_modules"] == std["low_dim_modules"]


def test_census_of_a_general_form_copy_matches_its_normal_frame():
    """A copy preserving F = P^T F0 P is P^-1 G0 P for the group G0 at the normal form F0
    (``groups.normal_frame``), and census ranks it in that frame: its targets are G0's, for a
    definite and an indefinite real form, a general and a Youla-block skew form, and complex
    forms, and it still prints the copy."""
    rng = np.random.default_rng(1)
    Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    P = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
    Pc = np.eye(10) + 0.3 * (rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10)))
    cases = [(G.so(5, form=Q @ np.diag(np.arange(1.0, 6)) @ Q.T), G.so(5)),
             (G.so(5, form=Q @ np.diag([3.0, -1, 2, -2, 1]) @ Q.T), G.so_pq(3, 2)),
             (G.so(5, "C", form=Pc[:5, :5].T @ Pc[:5, :5]), G.so(5, "C")),
             (G.sp(4, form=P.T @ G.J2n(4) @ P), G.sp(4)),
             (G.sp(4, form=youla_blocks([1.0, 2.0], 4)), G.sp(4)),
             (G.sp(10, "C", form=Pc.T @ G.J2n(10) @ Pc), G.sp(10, "C"))]
    for g, std in cases:
        out = census(g)
        assert dumps(out["group"]) == dumps(g.to_json())
        assert _targets(out) == _targets(census(std))


def test_census_of_a_form_copy_writes_its_group_once(monkeypatch):
    """Every target of a census names the same group, so a copy with a form converts its
    form to JSON once per call, not once per target, and the output is unchanged."""
    g = G.so(7, "C", form=np.diag(np.arange(1.0, 8.0)))
    want = dumps(census(g))
    calls = []
    to_json = G.GroupDescriptor.to_json
    monkeypatch.setattr(G.GroupDescriptor, "to_json", lambda self: calls.append(1) or to_json(self))
    out = census(g)
    assert len(calls) == 1 and len(out["targets"]) > 1
    assert dumps(out) == want


def test_slot_forms_are_checked_per_call_not_per_target(monkeypatch):
    """The slot modules of a copy with a signature carry its form, and building one checks
    the form; enumerate_admissible builds them once per call, not once per target, and
    census once more for its stabilizer ranks."""
    from manirep import gmodules

    checked, calls = gmodules.checked_form, []

    def counted(*args, **kwargs):
        calls.append(1)
        return checked(*args, **kwargs)

    monkeypatch.setattr(gmodules, "checked_form", counted)
    g = G.so_pq(9, 10)
    slots = len(G.TRAITS[g.family].slots)
    for run, builds in ((census, 2), (enumerate_admissible, 1)):
        calls.clear()
        run(g)
        assert 0 < len(calls) <= builds * slots, run.__name__


def test_census_builds_each_slot_factor_once(monkeypatch):
    """A canonical witness depends only on its module, so one census of SO_11(C) builds the
    congruence rows of each distinct slot module once, from the Lie basis's support, and
    checks each slot witness once, however many targets repeat it."""
    from manirep import stabilizers
    from manirep.gmodules import ActionKind

    g = G.so(11, "C")
    congruence, checked = [], []
    products, contains = stabilizers._products, stabilizers.module_contains

    def counted_products(action, support, X):
        if action == ActionKind.CONGRUENCE:
            congruence.append(np.asarray(X).tobytes())
        return products(action, support, X)

    def counted_contains(m, X, *args):
        if m.action != ActionKind.LEFT_MULT:
            checked.append((m.cache_key(), np.asarray(X).tobytes()))
        return contains(m, X, *args)

    monkeypatch.setattr(stabilizers, "_products", counted_products)
    monkeypatch.setattr(stabilizers, "module_contains", counted_contains)
    census(g)
    slots = {(m.cache_key(), canonical_witness(m).tobytes())
             for rep in enumerate_admissible(g) for m in rep.modules
             if m.action != ActionKind.LEFT_MULT}
    assert len(slots) == 2  # Alt2 and Sym2Traceless, each repeated across targets
    assert sorted(checked) == sorted(slots)
    assert len(congruence) == len(slots)


def test_census_builds_the_frame_once(monkeypatch):
    """One census of SO_11(C) builds the frame's rows once, at full width b = n with witness
    I_n: a target with a b-column frame ranks the pool columns of witness columns c < b, as
    Z [I_b; 0] is the first b columns of Z."""
    from manirep import stabilizers
    from manirep.gmodules import ActionKind

    frames, products = [], stabilizers._products

    def counted_products(action, support, X):
        if action == ActionKind.LEFT_MULT:
            frames.append(np.asarray(X))
        return products(action, support, X)

    monkeypatch.setattr(stabilizers, "_products", counted_products)
    census(G.so(11, "C"))
    assert len(frames) == 1
    np.testing.assert_array_equal(frames[0], np.eye(11))


def _classified_groups():
    """Every classified family at n = 2, 3, 4 and 6, where the family allows n, over each
    field it takes (SO_{p,q} at p = 1)."""
    for family, t in G.TRAITS.items():
        for n in (2, 3, 4, 6):
            if t.slots is None or (t.form == "skew" and n % 2):
                continue
            for field in ("R", "C") if t.field is None else (t.field,):
                yield G.so_pq(1, n - 1) if family == G.SOPQ else G.GroupDescriptor(family, n,
                                                                                   field)


@pytest.mark.parametrize("g", list(_classified_groups()),
                         ids=lambda g: f"{g.family}{g.n}{g.field}")
def test_enumerate_admissible_keeps_the_tuples_and_values_of_verdict(g):
    """The integer filter of ``enumerate_admissible`` keeps exactly the tuples that ``_verdict``
    admits, each with ``_verdict``'s exact value."""
    want = {}
    for mult in product(*C._ranges(g)):
        mods = TargetSpec(g, mult).modules()
        ok, value = C._verdict(g, sum(module_dim(m) for m in mods), not mods)
        if ok:
            want[mult] = value
    got = {r.spec.multiplicities: r.inequality_value for r in enumerate_admissible(g)}
    assert got == want
    assert all(type(v) is Fraction for v in got.values())


@pytest.mark.parametrize("g", [G.sl(9, "C"), G.so(19, "C"), G.sp(10, "C"), G.sp(6, "R"),
                               G.su(5), G.sp_compact(10), G.so_pq(2, 3)],
                         ids=["SL9C", "SO19C", "Sp10C", "Sp6R", "SU5", "SpCompact10", "SOpq23"])
def test_enumerate_admissible_keeps_what_admissible_admits(g):
    """enumerate_admissible decides a tuple from module dimensions before building its target;
    it keeps exactly the in-range tuples that ``admissible`` admits, with the same reports,
    by total dimension then lex order."""
    every = (admissible(TargetSpec(g, mult))
             for mult in product(*C._ranges(g)))
    want = sorted((r for r in every if r.admissible),
                  key=lambda r: (r.module_dim_total, r.spec.multiplicities))
    got = enumerate_admissible(g)
    assert [r.to_json() for r in got] == [r.to_json() for r in want]
    assert [[m.cache_key() for m in r.modules] for r in got] == \
        [[m.cache_key() for m in r.modules] for r in want]


def test_minimality_stab_dims_match_the_full_intersection():
    """Each candidate's stabilizer dimension, computed with every distinct factor built once
    and a repeated factor counted once, equals intersect_stabilizer_dim on the full constraint
    list at the canonical witnesses, repeated factors kept; the family's own, ranked in the
    same pass, is group_dim - tangent_dim."""
    from manirep.embeddings import all_smallest_legal, group, tangent_dim

    rows = all_smallest_legal()
    assert len(rows) == 25
    candidates = 0
    for md in rows:
        g = group(md)
        rep = minimality_certificate(md)
        # dim H, ranked in the candidates' pass, is group_dim - tangent_dim
        assert rep.h_dim == G.group_dim(g) - tangent_dim(md)
        for mult, _, stab in rep.candidates:
            mods = TargetSpec(g, mult).modules()
            assert stab == intersect_stabilizer_dim(
                g, [(m, m.action, canonical_witness(m)) for m in mods])
            candidates += 1
    assert candidates == 35
