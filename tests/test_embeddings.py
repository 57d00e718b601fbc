from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manirep import groups as G
from manirep.embeddings import (
    CARTAN_TYPES,
    FAMILIES,
    _same_eigenvalues,
    ManifoldDescriptor,
    all_smallest_legal,
    base_point,
    cartan_compare,
    check_equivariance,
    embed,
    group,
    lift_subspace,
    minimality_advisory,
    module,
    mp_dimension,
    on_orbit,
    smallest_legal,
    tangent_dim,
)
from manirep.errors import InvalidDescriptor, InvalidSpectrum, NotInGroup, SizeMismatch
from manirep.gmodules import contains as module_contains, module_dim
from manirep.numkit import DEFAULT_TOL, frob
from oracles import same_spectrum

ALL = all_smallest_legal()


def _ids(md):
    return md.family + ("-" + md.field if md.family == "fl-sp" and md.field else "")


def test_family_sweep_is_complete():
    assert len(FAMILIES) == 24
    assert len(ALL) == 25  # fl-sp contributes both fields


@pytest.mark.parametrize("md", ALL, ids=_ids)
def test_base_point_in_module(md):
    pt = base_point(md)
    if pt.module.kind != "RectNK":
        assert module_contains(pt.module, pt.value)
    assert on_orbit(md, pt.value)


@pytest.mark.parametrize("md", ALL, ids=_ids)
def test_embed_sample(md):
    gp = group(md)
    g = G.sample(gp, 3)
    pt = embed(md, g)
    assert on_orbit(md, pt.value)


@pytest.mark.parametrize("md", ALL, ids=_ids)
def test_equivariance_smallest_legal(md):
    assert check_equivariance(md, trials=25, seed=7) <= 1e-8


@pytest.mark.parametrize("md,bound", [
    (ManifoldDescriptor("gr-real", n=9, k=2), 1e-9),
    (ManifoldDescriptor("fl-sp", n=5, ks=(1, 2), field="R"), 1e-8),
    (ManifoldDescriptor("stiefel-quaternionic", n=5, k=1), 1e-9),
])
def test_equivariance_reference_sizes(md, bound):
    assert check_equivariance(md, trials=100, seed=3) <= bound


@pytest.mark.parametrize("md", ALL, ids=_ids)
def test_mp_dimension_equals_module_dim(md):
    assert mp_dimension(md) == module_dim(module(md))


@pytest.mark.parametrize("md", ALL, ids=_ids)
def test_tangent_dim_consistency(md):
    from manirep.embeddings import action
    from manirep.stabilizers import stabilizer_dim_in_group

    gp = group(md)
    stab = stabilizer_dim_in_group(gp, module(md), action(md), base_point(md).value)
    assert tangent_dim(md) == G.group_dim(gp) - stab


class TestKnownDimensions:
    def test_gr_real_9_2(self):
        md = ManifoldDescriptor("gr-real", n=9, k=2)
        assert tangent_dim(md) == 14
        assert mp_dimension(md) == 44

    def test_stiefel_9_2(self):
        md = ManifoldDescriptor("stiefel-real", n=9, k=2)
        assert tangent_dim(md) == 15
        assert mp_dimension(md) == 18

    def test_flag_124(self):
        md = ManifoldDescriptor("fl-real", n=4, ks=(1, 2))
        assert tangent_dim(md) == 5

    def test_gr19(self):
        assert mp_dimension(ManifoldDescriptor("gr-real", n=19, k=2)) == 189

    def test_stiefel_quaternionic(self):
        md = ManifoldDescriptor("stiefel-quaternionic", n=5, k=1)
        assert mp_dimension(md) == 20
        # dim Sp_10/Sp_8 = 55 - 36
        assert tangent_dim(md) == 19

    def test_lgr(self):
        md = ManifoldDescriptor("lgr-c", n=5)
        assert mp_dimension(md) == 55
        # dim Sp_10 - dim U_5
        assert tangent_dim(md) == 30


class TestBasePoints:
    def test_gr_real_base(self):
        pt = base_point(ManifoldDescriptor("gr-real", n=9, k=2))
        np.testing.assert_array_equal(pt.value, np.diag([7.0] * 2 + [-2.0] * 7))

    def test_stiefel_base(self):
        pt = base_point(ManifoldDescriptor("stiefel-real", n=9, k=2))
        expected = np.zeros((9, 2))
        expected[0, 0] = expected[1, 1] = 1.0
        np.testing.assert_array_equal(pt.value, expected)

    def test_igr_base(self):
        pt = base_point(ManifoldDescriptor("igr", n=9, k=2))
        assert frob(pt.value[:4, :4] - G.J2n(4)) == 0
        assert frob(pt.value[4:, 4:]) == 0

    def test_slgr_base(self):
        pt = base_point(ManifoldDescriptor("slgr", n=4))
        np.testing.assert_array_equal(pt.value, np.eye(4))

    def test_spectrum_validation(self):
        with pytest.raises(InvalidSpectrum):
            base_point(ManifoldDescriptor("gr-real", n=9, k=2, spectrum=(1.0, 1.0)))
        with pytest.raises(InvalidSpectrum):
            base_point(ManifoldDescriptor("fl-real", n=4, ks=(1, 2), spectrum=(1.0, 2.0, 3.0)))
        for value in (np.nan, np.inf, -np.inf):  # rejected by the descriptor itself
            with pytest.raises(InvalidSpectrum):
                ManifoldDescriptor("lgr-c", n=2, spectrum=(value,))
            with pytest.raises(InvalidSpectrum):
                ManifoldDescriptor("gr-real", n=4, k=2, spectrum=(2.0, value))

    def test_descriptor_validation(self):
        with pytest.raises(InvalidDescriptor):
            ManifoldDescriptor("gr-real", n=4, k=4)
        with pytest.raises(InvalidDescriptor):
            ManifoldDescriptor("fl-real", n=4, ks=(2, 1))
        with pytest.raises(InvalidDescriptor):
            ManifoldDescriptor("igr", n=4, k=3)
        with pytest.raises(InvalidDescriptor):
            ManifoldDescriptor("nonsense", n=4)


#: a legal-looking value for every optional size parameter
_PARAM_VALUES = dict(k=1, ks=(1,), p=1, pq=(1, 1), sizes=(2, 2), field="R")


@pytest.mark.parametrize("family,param", [
    (fam, param) for fam in FAMILIES for param in _PARAM_VALUES
    if getattr(smallest_legal(fam), param) is None
])
def test_rejects_parameters_the_family_does_not_take(family, param):
    md = smallest_legal(family)
    with pytest.raises(InvalidDescriptor):
        replace(md, **{param: _PARAM_VALUES[param]})


@pytest.mark.parametrize("family", [f for f, row in FAMILIES.items() if row.spectrum is None])
def test_rejects_a_spectrum_the_family_does_not_take(family):
    with pytest.raises(InvalidDescriptor):
        replace(smallest_legal(family), spectrum=(5.0,))


class TestEmbedProperties:
    def test_spectral_invariance(self):
        md = ManifoldDescriptor("gr-real", n=9, k=2)
        for seed in range(20):
            pt = embed(md, G.sample(group(md), seed))
            ev = np.sort(np.linalg.eigvalsh(pt.value))
            np.testing.assert_allclose(ev, [-2.0] * 7 + [7.0] * 2, atol=1e-9)

    def test_stiefel_columns(self):
        md = ManifoldDescriptor("stiefel-real", n=9, k=2)
        Q = G.sample(group(md), 4)
        pt = embed(md, Q)
        np.testing.assert_allclose(pt.value, Q[:, :2], atol=1e-12)

    def test_lgr_eigenvalues(self):
        md = ManifoldDescriptor("lgr-c", n=3)
        Q = G.sample(group(md), 5)
        pt = embed(md, Q)
        assert frob(pt.value + pt.value.conj().T) <= 1e-9
        ev = np.sort(np.linalg.eigvalsh(-1j * pt.value))
        np.testing.assert_allclose(ev, [-1.0] * 3 + [1.0] * 3, atol=1e-9)

    def test_rejects_non_members(self):
        md = ManifoldDescriptor("gr-real", n=5, k=1)
        with pytest.raises(NotInGroup):
            embed(md, 2.0 * np.eye(5))

    def test_frame_rows_test_module_membership(self):
        """A frame that is complex for a real row, or not n x k, is off the orbit."""
        md = ManifoldDescriptor("stiefel-real", n=4, k=2)
        assert on_orbit(md, base_point(md).value)
        assert not on_orbit(md, 1j * base_point(md).value)
        with pytest.raises(SizeMismatch):
            on_orbit(md, np.eye(4))
        with pytest.raises(SizeMismatch):
            on_orbit(ManifoldDescriptor("st-noncompact-real", n=3, k=2), np.eye(3))


class TestInjectivityDeskScale:
    def test_coordinate_planes_distinct(self):
        md = ManifoldDescriptor("gr-real", n=6, k=2)
        points = []
        for cols in combinations(range(6), 2):
            Y = np.zeros((6, 2))
            Y[cols[0], 0] = Y[cols[1], 1] = 1.0
            points.append(embed(md, lift_subspace(md, Y)).value)
        for a, b in combinations(points, 2):
            assert frob(a - b) > 0.1

    def test_signed_frames_distinct(self):
        md = ManifoldDescriptor("stiefel-real", n=5, k=2)
        points = []
        for cols in combinations(range(5), 2):
            for s1 in (1.0, -1.0):
                Y = np.zeros((5, 2))
                Y[cols[0], 0] = s1
                Y[cols[1], 1] = 1.0
                points.append(embed(md, lift_subspace(md, Y)).value)
        for a, b in combinations(points, 2):
            assert frob(a - b) > 0.1


class TestLift:
    def test_gr_plane_roundtrip(self):
        md = ManifoldDescriptor("gr-real", n=7, k=3)
        rng = np.random.default_rng(0)
        Y = rng.standard_normal((7, 3))
        g = lift_subspace(md, Y)
        assert G.contains(group(md), g)
        pt = embed(md, g)
        # the +7 eigenspace of the image is exactly col(Y)
        w, V = np.linalg.eigh(pt.value)
        plane = V[:, w > 0]
        P1 = plane @ plane.T
        Q1, _ = np.linalg.qr(Y)
        assert frob(P1 - Q1 @ Q1.T) <= 1e-8

    def test_stiefel_frame_roundtrip(self):
        md = ManifoldDescriptor("stiefel-complex", n=5, k=2)
        rng = np.random.default_rng(1)
        Y = np.linalg.qr(rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)))[0]
        g = lift_subspace(md, Y)
        assert G.contains(group(md), g)
        np.testing.assert_allclose(embed(md, g).value, Y, atol=1e-10)

    def test_a_nearly_rank_deficient_plane_is_refused(self):
        """Full column rank is decided by ``numerical_rank``, so a column 1e-13 off the span of
        the others does not span a plane."""
        md = ManifoldDescriptor("gr-real", n=5, k=2)
        Y = np.array([[1.0, 1.0], [0.0, 1e-13], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(SizeMismatch, match="full column rank"):
            lift_subspace(md, Y)

    def test_noncompact_frame(self):
        md = ManifoldDescriptor("st-noncompact-real", n=5, k=2)
        rng = np.random.default_rng(2)
        Y = rng.standard_normal((5, 2))
        g = lift_subspace(md, Y)
        assert abs(np.linalg.det(g) - 1) <= 1e-9
        np.testing.assert_allclose(embed(md, g).value, Y, atol=1e-10)


class TestAdvisory:
    def test_flags(self):
        assert minimality_advisory(ManifoldDescriptor("gr-real", n=9, k=2))
        assert not minimality_advisory(ManifoldDescriptor("gr-real", n=19, k=2))
        assert not minimality_advisory(ManifoldDescriptor("gr-quaternionic", n=5, k=1))
        assert minimality_advisory(ManifoldDescriptor("gr-quaternionic", n=4, k=1))
        assert not minimality_advisory(ManifoldDescriptor("stiefel-complex", n=9, k=2))


class TestCartan:
    @pytest.mark.parametrize("ctype,kwargs", [
        ("AI", dict(n=9)),
        ("AII", dict(n=3)),
        ("AIII", dict(n=9, k=2)),
        ("BDI", dict(n=9, k=2)),
        ("DIII", dict(n=3)),
        ("CI", dict(n=3)),
        ("CII", dict(n=3, k=1)),
    ])
    def test_types(self, ctype, kwargs):
        rep = cartan_compare(ctype, trials=20, seed=1, **kwargs)
        assert rep.residual <= 1e-8
        if ctype == "AI":
            assert rep.identical
        else:
            assert not rep.identical

    def test_aii_factor_is_j_transpose(self):
        rep = cartan_compare("AII", n=3, trials=10, seed=0)
        J6 = G.J2n(6)
        assert frob(rep.right_factor - J6.T) <= 1e-8

    def test_bdi_factor(self):
        rep = cartan_compare("BDI", n=9, k=2, trials=10, seed=0)
        D = np.diag([1.0] * 2 + [-1.0] * 7)
        assert frob(rep.right_factor - D) <= 1e-8

    def test_all_types_listed(self):
        assert set(CARTAN_TYPES) == {"AI", "AII", "AIII", "BDI", "DIII", "CI", "CII"}


@given(st.integers(min_value=2, max_value=20), st.data())
@settings(max_examples=15, deadline=None)
def test_real_grassmannian_tangent_dim_property(n, data):
    k = data.draw(st.integers(min_value=1, max_value=n - 1))
    assert tangent_dim(ManifoldDescriptor(family="gr-real", n=n, k=k)) == k * (n - k)


#: the rows whose orbit invariant is the spectrum, all of size at most 6 x 6
SPECTRAL = [md for md in ALL if FAMILIES[md.family].orbit is _same_eigenvalues]


@given(st.sampled_from(SPECTRAL), st.integers(min_value=0, max_value=2**32 - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_spectrum_match_agrees_with_brute_force(md, seed, data):
    """g . X0 is on the orbit; moving one eigenvalue onto another's value, which changes
    the multiplicities, takes it off, and a brute-force multiset match agrees both times."""
    X0 = base_point(md).value
    g = G.sample(group(md), seed)
    X = embed(md, g).value
    atol = DEFAULT_TOL.cutoff(max(frob(X0), 1.0))
    radius = max(atol, 1e-7 * max(frob(X0), 1.0))
    ev0, V = np.linalg.eig(X0.astype(complex))
    assert on_orbit(md, X)
    assert same_spectrum(np.linalg.eigvals(X), ev0, radius)

    i, j = data.draw(st.sampled_from([(i, j) for i in range(len(ev0)) for j in range(len(ev0))
                                      if abs(ev0[i] - ev0[j]) > 0.5]))
    moved = ev0.copy()
    moved[i] = ev0[j]
    P = g @ V  # g X0 g^{-1} on every spectral row
    Y = P @ np.diag(moved) @ np.linalg.inv(P)
    assert not _same_eigenvalues(Y, X0, atol)
    assert not same_spectrum(np.linalg.eigvals(Y), ev0, radius)
