import numpy as np
import pytest
import scipy.linalg

from manirep import groups
from manirep.errors import InvalidDescriptor
from manirep.groups import (
    GroupDescriptor,
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
from manirep.numkit import Tolerance, frob

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


def test_descriptor_json_roundtrip():
    g = so(4, "R", form=np.diag([2.0, 1.0, 1.0, 3.0]))
    g2 = GroupDescriptor.from_json(g.to_json())
    assert g2.family == g.family and g2.n == g.n
    np.testing.assert_allclose(g2.form, g.form)


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


def test_conjugated_sp_compact():
    J4 = groups.J2n(4)
    Q = sample(so(4), 11)
    Om = Q @ J4 @ Q.T
    g = sp_compact(4, form=Om)
    lab = lie_algebra_basis(g)
    assert len(lab) == group_dim(g) == 10
    for Z in lab:
        assert frob(Z.conj().T + Z) <= 1e-9
        assert frob(Z.T @ Om + Om @ Z) <= 1e-9
    assert contains(g, sample(g, 3))

    # forms with unequal singular values cut SU down to a smaller group
    lam = np.diag([2.0, 1.0])
    bad = np.zeros((4, 4))
    bad[:2, 2:] = lam
    bad[2:, :2] = -lam
    with pytest.raises(InvalidDescriptor):
        sp_compact(4, form=bad)
