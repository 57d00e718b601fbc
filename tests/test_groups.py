import json

import numpy as np
import pytest
import scipy.linalg

from manirep import groups
from manirep.errors import InvalidDescriptor, NonFinite, UnsupportedGroup
from manirep.gmodules import ModuleDescriptor
from manirep.groups import (
    GroupDescriptor,
    algebra_of,
    contains,
    gl,
    group_dim,
    lie_algebra_basis,
    orth,
    sample,
    sl,
    so,
    so_pq,
    sp,
    sp_compact,
    su,
)
from manirep.numkit import Tolerance, dumps, frob, youla_blocks

ALL_SMALL = [
    sl(4, "R"), sl(4, "C"),
    so(5, "R"), so(5, "C"),
    sp(6, "R"), sp(6, "C"),
    su(4), so_pq(2, 3), sp_compact(6),
    gl(4, "R"), orth(4, "R"),
]


def test_dimensions():
    assert group_dim(su(9)) == 80
    assert group_dim(so(9)) == 36
    assert group_dim(sp_compact(10)) == 55
    assert group_dim(sl(5, "C")) == 24
    assert group_dim(sp(10, "R")) == 55
    assert group_dim(so_pq(2, 3)) == 10


def test_descriptor_validation():
    with pytest.raises(InvalidDescriptor):
        sp(5, "R")
    with pytest.raises(InvalidDescriptor):
        GroupDescriptor("SO", 3, "R", signature=(1, 2))
    with pytest.raises(InvalidDescriptor):
        GroupDescriptor("SOpq", 5, "R", signature=(1, 2))
    with pytest.raises(InvalidDescriptor):
        so(3, "R", form=np.array([[0.0, 1.0, 0], [-1.0, 0, 0], [0, 0, 1]]))
    # a unitary family takes no form, not even its standard one
    with pytest.raises(InvalidDescriptor, match="takes no form"):
        GroupDescriptor("SpCompact", 4, form=groups.J2n(4))


@pytest.mark.parametrize("obj", [
    {"family": "SOpq", "n": 3, "signature": [1, 1, 1]},
    {"family": "SOpq", "n": 3, "signature": ["a", "b"]},
    {"family": "SOpq", "n": 3, "signature": [1.5, 1.5]},
    {"family": "SOpq", "n": 3, "signature": [True, 2]},
    {"family": "SOpq", "n": 3, "signature": 3},
    {"family": "SO", "n": 3.0},
    {"family": "SO", "n": 3.7},
    {"family": "SO", "n": "3"},
    {"family": "SO", "n": True},
    {"family": "SO"},
], ids=lambda obj: repr(obj.get("signature", obj.get("n"))))
def test_sizes_must_be_integers(obj):
    with pytest.raises(InvalidDescriptor):
        GroupDescriptor.from_json(obj)


def test_a_signature_list_becomes_a_hashable_tuple():
    g = GroupDescriptor("SOpq", 3, "R", signature=[1, 2])
    assert g.signature == (1, 2)
    hash(g.cache_key())


def test_algebra_of_names_each_complexified_algebra():
    """n is the matrix size for SL and SO and the rank for SP; GL, O and U have none."""
    assert [algebra_of(g) for g in (sl(9, "C"), su(9), so(19, "C"), so_pq(2, 3), sp(10, "R"),
                                    sp_compact(10))] == [
        ("SL", 9), ("SL", 9), ("SO", 19), ("SO", 5), ("SP", 5), ("SP", 5)]
    for g in (gl(3), orth(3), groups.unitary(3)):
        with pytest.raises(UnsupportedGroup):
            algebra_of(g)


def test_unknown_family_is_rejected():
    with pytest.raises(InvalidDescriptor):
        GroupDescriptor.from_json({"family": "XYZ", "n": 3})
    with pytest.raises(InvalidDescriptor):
        GroupDescriptor("so", 3)


#: (family, field) for every row of TRAITS, both fields where the algebra is complex-linear
FAMILY_FIELDS = [(family, field) for family, t in groups.TRAITS.items()
                 for field in ((t.field,) if t.field else ("R", "C"))]


@pytest.mark.parametrize("family, field", FAMILY_FIELDS, ids=lambda v: str(v))
def test_contains_reads_every_trait(family, field):
    g = GroupDescriptor(family, 4, field, signature=(1, 3) if family == groups.SOPQ else None)
    t = groups.TRAITS[family]
    A = sample(g, 7)
    assert contains(g, A)
    # det -1, preserving I, I_pq and unitarity but not J_4: a reflection
    assert contains(g, A @ np.diag([-1.0, 1, 1, 1])) == (not t.special)
    # det 1, preserving J_4 but not I, I_pq or unitarity
    assert contains(g, A @ np.diag([2.0, 1, 0.5, 1])) == (t.form != groups.SYM and not t.unitary)
    # det 1, preserving no form and not unitary
    assert contains(g, A @ np.diag([2.0, 0.5, 1, 1])) == (t.form is None and not t.unitary)
    # det 2: only GL
    assert contains(g, A @ np.diag([2.0, 1, 1, 1])) == (family == groups.GL)


def test_contains_basics():
    assert contains(so(5), np.eye(5))
    assert not contains(sl(3), np.diag([2.0, 1.0, 1.0]))
    Z = lie_algebra_basis(sp(4, "R"))[3]
    assert contains(sp(4, "R"), scipy.linalg.expm(0.3 * Z))


def test_contains_rejects_non_finite_matrices():
    """NaN, an infinity, or a squared norm beyond the float range is NonFinite, not a bare
    numpy or Python error."""
    for big in (np.nan, np.inf, 1e160):
        with pytest.raises(NonFinite):
            contains(so(3), np.diag([big, 1.0, 1.0]))


def test_form_symmetry_is_checked_at_every_scale():
    """The symmetry bound is relative to the form, so a scaled non-symmetric form fails."""
    A = np.array([[2.0, 1, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    builds = (lambda F: so(4, form=F), lambda F: ModuleDescriptor("Sym2Traceless", 4, form=F))
    for k in range(-60, 61):
        for build in builds:
            with pytest.raises(InvalidDescriptor):
                build(np.ldexp(A, k))
            build(np.ldexp(A + A.T, k))


_FORM_BUILDS = {
    "SO": lambda F: so(len(F), form=F),
    "SO-C": lambda F: so(len(F), "C", form=F),
    "Sym2Traceless": lambda F: ModuleDescriptor("Sym2Traceless", len(F), form=F),
    "Sym2Traceless-C": lambda F: ModuleDescriptor("Sym2Traceless", len(F), "C", form=F),
}


@pytest.mark.parametrize("build", _FORM_BUILDS.values(), ids=list(_FORM_BUILDS))
def test_forms_near_the_ends_of_the_float_range_get_the_verdict_of_any_scale(build):
    """The form is divided by the power of two below its largest entry before any norm is
    taken, so no norm overflows (a RuntimeWarning) or underflows to a vacuous 0 <= 0."""
    A = np.array([[2.0, 1, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    for k in (-1070, -1060, -1000, -600, 600, 1000, 1020):
        with pytest.raises(InvalidDescriptor, match="symmetric"):
            build(np.ldexp(A, k))
        with pytest.raises(InvalidDescriptor, match="nondegenerate"):
            build(np.ldexp(np.diag([1.0, 1, 1, 0]), k))
        build(np.ldexp(A + A.T, k))


@pytest.mark.parametrize("build", _FORM_BUILDS.values(), ids=list(_FORM_BUILDS))
@pytest.mark.parametrize("form, error", [
    ([[np.nan, 0.0], [0.0, 1.0]], NonFinite),
    ([[1.0, 0.0], [0.0, np.inf]], NonFinite),
    ([[1.0, -np.inf], [-np.inf, 1.0]], NonFinite),
    ([["a", "b"], ["c", "d"]], InvalidDescriptor),
    ([[1.0, 0.0], [0.0]], InvalidDescriptor),
], ids=["nan", "inf", "-inf", "strings", "ragged"])
def test_non_finite_or_non_numeric_forms_are_typed_errors(build, form, error):
    with pytest.raises(error):
        build(form)


def test_nearly_degenerate_forms_are_refused_by_the_rank_rule():
    """Nondegeneracy is decided by ``numerical_rank``, the rule that Youla and Takagi rank by,
    so a form with a Youla pair or an eigenvalue far below its rank cutoff is refused; its
    normal frame would be built from fewer pairs or values than its size."""
    with pytest.raises(InvalidDescriptor, match="nondegenerate"):
        sp(4, form=youla_blocks([1.0, 1e-12], 4))
    with pytest.raises(InvalidDescriptor, match="nondegenerate"):
        so(3, form=np.diag([1.0, 1.0, 1e-13]))


def test_complex_forms_whose_moduli_overflow_are_checked():
    """Entries with finite parts but moduli beyond the float range are scaled by their parts."""
    F = np.array([[1e308 + 1e308j, 0], [0, 1e308]])
    for build in (_FORM_BUILDS["SO-C"], _FORM_BUILDS["Sym2Traceless-C"]):
        build(F)
        with pytest.raises(InvalidDescriptor, match="symmetric"):
            build(F + np.array([[0, 1e300], [0, 0]]))


def test_membership_is_checked_at_every_scale_of_the_form():
    """The form residual is bounded relative to the form, so however small or large the form,
    a non-member of the conjugated copy stays out and a member stays in."""
    A = np.array([[2.0, 1, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    c, s = np.cos(0.3), np.sin(0.3)
    member = np.array([[1.0, 0, 0, 0], [0, 1, 0, 0], [0, 0, c, -s], [0, 0, s, c]])
    for k in range(-60, 61):
        g = so(4, form=np.ldexp(A + A.T, k))
        assert not contains(g, np.diag([2.0, 0.5, 1.0, 1.0]))
        assert contains(g, member)


def test_descriptor_json_roundtrip():
    g = so(4, "R", form=np.diag([2.0, 1.0, 1.0, 3.0]))
    for obj in (g.to_json(), json.loads(dumps(g.to_json()))):  # the Mat leaf and the dict
        g2 = GroupDescriptor.from_json(obj)
        assert g2.family == g.family and g2.n == g.n
        np.testing.assert_array_equal(g2.form, g.form)


@pytest.mark.parametrize("g", ALL_SMALL, ids=lambda g: f"{g.family}{g.n}{g.field}")
def test_basis_matches_dim_and_exponentiates(g):
    lab = lie_algebra_basis(g)
    assert len(lab) == group_dim(g)
    # linear independence via the Gram matrix of realified coordinates
    V = np.array([np.concatenate([b.ravel().real, b.ravel().imag]) for b in lab])
    assert np.linalg.matrix_rank(V) == len(lab)
    for t in (0.1, 0.7):
        for Z in lab:
            A = scipy.linalg.expm(t * Z)
            assert contains(g, A, Tolerance(1e-8, 1e-8))


@pytest.mark.parametrize("g", ALL_SMALL, ids=lambda g: f"{g.family}{g.n}{g.field}")
def test_sampling_lands_in_group(g):
    for seed in range(50):
        A = sample(g, seed)
        assert contains(g, A, Tolerance(1e-8, 1e-8))


LARGER = [
    sl(10, "R"), sl(10, "C"), so(10, "R"), so(9, "C"), sp(10, "R"),
    sp(10, "C"), su(10), so_pq(4, 6), sp_compact(10),
]


@pytest.mark.parametrize("g", LARGER, ids=lambda g: f"{g.family}{g.n}{g.field}")
def test_sampling_larger_sizes(g):
    for seed in range(50):
        assert contains(g, sample(g, seed), Tolerance(1e-8, 1e-8))


@pytest.mark.parametrize("g", ALL_SMALL, ids=lambda g: f"{g.family}{g.n}{g.field}")
def test_closure_of_products(g):
    for seed in range(10):
        A = sample(g, seed) @ sample(g, 1000 + seed)
        assert contains(g, A, Tolerance(1e-8, 1e-8))


def test_sample_examples():
    Q = sample(so(9), 1)
    assert frob(Q.T @ Q - np.eye(9)) <= 1e-12
    assert abs(np.linalg.det(Q) - 1) <= 1e-12
    A = sample(sl(5, "C"), 2)
    assert abs(np.linalg.det(A) - 1) <= 1e-10
    V = sample(so_pq(2, 3), 3, scale=0.5)
    I23 = np.diag([1.0, 1.0, -1.0, -1.0, -1.0])
    assert frob(V.T @ I23 @ V - I23) <= 1e-9


def test_sample_deterministic():
    a = sample(su(5), 42)
    b = sample(su(5), 42)
    np.testing.assert_array_equal(a, b)


def test_conjugated_copy():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((4, 4))
    B = M @ M.T + 4 * np.eye(4)
    g = so(4, "R", form=B)
    for Z in lie_algebra_basis(g):
        assert frob(Z.T @ B + B @ Z) <= 1e-10
    A = sample(g, 7)
    assert contains(g, A)


def _normal_frame_cases():
    """SO, Sp and O over R and C at J or I, at an indefinite diagonal form, and at a dense
    form; each already at its normal form or carried to it."""
    rng = np.random.default_rng(3)
    Q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    forms = {"I": np.eye(4), "Ipq": groups.Ipq(1, 3), "diag": np.diag([2.0, -1.0, 3.0, -0.5]),
             "dense": Q @ np.diag([1.0, 2.0, -3.0, 4.0]) @ Q.T}
    for field in ("R", "C"):
        yield f"Sp-{field}-J", sp(4, field, form=groups.J2n(4))
        yield f"Sp-{field}-dense", sp(4, field, form=Q.T @ groups.J2n(4) @ Q * 3.0)
        for family in (groups.SO, groups.O):
            for name, F in forms.items():
                yield f"{family}-{field}-{name}", GroupDescriptor(family, 4, field, form=F)


_NORMAL_FRAME_CASES = dict(_normal_frame_cases())


@pytest.mark.parametrize("g", _NORMAL_FRAME_CASES.values(), ids=list(_NORMAL_FRAME_CASES))
def test_normal_frame_is_idempotent(monkeypatch, g):
    """A normal frame is its own: ``normal_frame`` of a g0 takes no P and no decomposition,
    decided on the form's entries exactly; J and I give the descriptor without a form, and
    I_{p,q} with its positive entries first, the real normal form of an indefinite form, g0
    itself."""
    def refused(*args, **kwargs):
        raise AssertionError("a normal form was decomposed")

    g0, P = groups.normal_frame(g)
    for name in ("takagi", "youla_skew"):
        monkeypatch.setattr(groups, name, refused)
    monkeypatch.setattr(np.linalg, "eigh", refused)
    again, Q = groups.normal_frame(g0)
    assert Q is None
    assert again.cache_key() == g0.cache_key()
    assert again is g0 or g0.form is None
    if P is None:  # g already at its normal form
        np.testing.assert_array_equal(g.form, g0.form_matrix())


def test_near_normal_forms_are_carried():
    """The test is exact: I_{p,q} with its negative entries first, or J times 1 + 2^-52,
    is carried to the normal form by a P."""
    for g in (so(3, form=np.diag([-1.0, 1.0, 1.0])), sp(2, form=(1 + 2**-52) * groups.J2n(2))):
        g0, P = groups.normal_frame(g)
        assert P is not None
        assert frob(P.T @ g0.form_matrix() @ P - g.form) <= 1e-12
