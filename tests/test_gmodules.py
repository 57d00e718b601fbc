import json

import numpy as np
import pytest

from manirep import gmodules, groups
from manirep.classify import census
from manirep.embeddings import all_smallest_legal, module
from manirep.errors import InvalidDescriptor
from manirep.gmodules import (KINDS, ActionKind, ModuleDescriptor, act, basis, contains,
                              module_dim, project)
from manirep.groups import J2n, sample, so, so_pq, su
from manirep.numkit import SKEW, SYM, dumps, frob, youla_blocks


def md(kind, n, field="R", k=None, form=None):
    return ModuleDescriptor(kind, n, field, k, form)


def test_table_dimensions():
    assert module_dim(md("Alt2", 9)) == 36
    assert module_dim(md("Sym2Traceless", 19)) == 189
    assert module_dim(md("Sym2TracelessForm", 10, "C")) == 44
    assert module_dim(md("Alt2Form", 10, "C")) == 55
    assert module_dim(md("RectNK", 9, "R", k=2)) == 18
    assert module_dim(md("SUAlgebra", 9)) == 80
    assert module_dim(md("SpAlgebra", 10)) == 55
    assert module_dim(md("SymTracelessCapSU", 10)) == 44
    assert module_dim(md("Trivial", 7)) == 1


MEMBER_KINDS = [
    md("Alt2", 5), md("Alt2", 5, "C"),
    md("Sym2", 5), md("Sym2", 4, "C"),
    md("Sym2Traceless", 5), md("Sym2Traceless", 5, "C"),
    md("SLnTraceless", 4), md("SLnTraceless", 4, "C"),
    md("SUAlgebra", 4),
    md("Alt2Form", 6), md("Alt2Form", 6, "C"),
    md("Sym2TracelessForm", 6), md("Sym2TracelessForm", 6, "C"),
    md("SpAlgebra", 6), md("SymTracelessCapSU", 6),
    md("Alt2", 5, form=np.diag([1.0, 1, -1, -1, -1])),
    md("Sym2Traceless", 5, form=np.diag([1.0, 1, -1, -1, -1])),
]


@pytest.mark.parametrize("m", MEMBER_KINDS, ids=lambda m: f"{m.kind}-{m.n}{m.field}")
def test_basis_spans_dimension(m):
    bs = basis(m)
    assert len(bs) == module_dim(m)
    for b in bs:
        assert contains(m, b)


@pytest.mark.parametrize("m", MEMBER_KINDS, ids=lambda m: f"{m.kind}-{m.n}{m.field}")
def test_projection_idempotent_and_orthogonal(m):
    rng = np.random.default_rng(1)
    for _ in range(10):
        X = rng.standard_normal(m.shape)
        if m.dtype is complex:
            X = X + 1j * rng.standard_normal(m.shape)
        P = project(m, X)
        assert contains(m, P)
        np.testing.assert_allclose(project(m, P), P, atol=1e-10)
        # residual orthogonal to the module (real Frobenius pairing)
        R = X.astype(complex) - P.astype(complex)
        for b in basis(m)[:5]:
            assert abs(np.vdot(b.astype(complex), R).real) <= 1e-9


def test_known_projectors():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((3, 3))
    np.testing.assert_allclose(project(md("Alt2", 3), X), (X - X.T) / 2, atol=1e-12)
    np.testing.assert_allclose(project(md("Sym2Traceless", 3), np.eye(3)), np.zeros((3, 3)), atol=1e-12)


def test_membership_examples():
    X = np.diag([7.0, 7, -2, -2, -2, -2, -2, -2, -2])
    assert contains(md("Sym2Traceless", 9), X)
    assert not contains(md("Alt2", 9), np.eye(9))
    rng = np.random.default_rng(3)
    H = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    H = H + H.conj().T
    H = H - np.trace(H) / 4 * np.eye(4)
    assert contains(md("SUAlgebra", 4), 1j * H)


def test_traceless_kinds_have_zero_trace():
    for m in MEMBER_KINDS:
        if "Traceless" in m.kind or m.kind in ("SUAlgebra", "SpAlgebra"):
            for b in basis(m):
                assert abs(np.trace(b)) <= 1e-12


def test_act_congruence_preserves_module():
    m = md("Sym2Traceless", 9)
    g = so(9)
    X = np.diag([7.0, 7, -2, -2, -2, -2, -2, -2, -2])
    Q = sample(g, 5)
    Y = act(ActionKind.CONGRUENCE, Q, X)
    assert contains(m, Y)
    ev = np.sort(np.linalg.eigvalsh(Y))
    np.testing.assert_allclose(ev, sorted([7.0] * 2 + [-2.0] * 7), atol=1e-9)


def test_act_identity_left():
    m = md("RectNK", 5, k=2)
    X = np.zeros((5, 2))
    X[0, 0] = X[1, 1] = 1.0
    out = act(ActionKind.LEFT_MULT, np.eye(5), X)
    np.testing.assert_array_equal(out, X)
    assert contains(m, out)


def test_act_similarity_indefinite():
    m = md("Sym2Traceless", 5, form=np.diag([1.0, 1, -1, -1, -1]))
    g = so_pq(2, 3)
    X = np.diag([3.0, 3, -2, -2, -2])
    V = sample(g, 4, scale=0.5)
    Y = act(ActionKind.SIMILARITY, V, X)
    assert contains(m, Y)


def test_action_law_composition():
    rng = np.random.default_rng(0)
    cases = [
        (so(6), ActionKind.CONGRUENCE, md("Sym2Traceless", 6)),
        (su(4), ActionKind.CONGRUENCE_STAR, md("SUAlgebra", 4)),
        (groups.sp(6, "R"), ActionKind.SIMILARITY, md("Sym2TracelessForm", 6)),
        (so(6), ActionKind.LEFT_MULT, md("RectNK", 6, k=2)),
    ]
    for g, action, m in cases:
        for trial in range(25):
            A1 = sample(g, 3 * trial)
            A2 = sample(g, 3 * trial + 1)
            X = project(m, rng.standard_normal(m.shape) + (1j * rng.standard_normal(m.shape) if m.dtype is complex else 0))
            lhs = act(action, A1, act(action, A2, X))
            rhs = act(action, A1 @ A2, X)
            assert frob(lhs - rhs) <= 1e-9 * max(1.0, frob(rhs))


def test_altk_and_trivial_unsupported():
    with pytest.raises(InvalidDescriptor, match="unknown module kind"):
        md("AltK", 5, k=3)
    with pytest.raises(InvalidDescriptor):
        basis(md("Trivial", 5))


def test_module_json_roundtrip():
    for form in (None, 1j * J2n(6)):
        m = md("Sym2TracelessForm", 6, "C", form=form)
        for obj in (m.to_json(), json.loads(dumps(m.to_json()))):  # the Mat leaf and the dict
            m2 = ModuleDescriptor.from_json(obj)
            assert (m2.kind, m2.n, m2.field, m2.k) == (m.kind, m.n, m.field, m.k)
            assert (m2.form is None) if form is None else np.array_equal(m2.form, form)


@pytest.mark.parametrize("obj", [
    {"kind": "Alt2", "n": 3.7},
    {"kind": "Alt2", "n": 3.0},
    {"kind": "Alt2", "n": "3"},
    {"kind": "Alt2", "n": False},
    {"kind": "Alt2", "n": 0},
    {"kind": "Alt2", "n": -2},
    {"kind": "Alt2"},
    {"kind": "RectNK", "n": 3, "k": 2.5},
    {"kind": "RectNK", "n": 3, "k": "2"},
    {"kind": "RectNK", "n": 3, "k": True},
    {"n": 3},
], ids=repr)
def test_module_sizes_must_be_positive_integers(obj):
    with pytest.raises(InvalidDescriptor):
        ModuleDescriptor.from_json(obj)


@pytest.mark.parametrize("kind, form", [
    ("Sym2TracelessForm", J2n(4)), ("Alt2Form", J2n(4)), ("Sym2Traceless", np.eye(4)),
    ("Alt2", np.diag([1.0, 1, -1, -1])),
])
def test_membership_ignores_the_scale_of_the_form(kind, form):
    """cF cuts out the module F does, for every power of two c."""
    rng = np.random.default_rng(7)
    for e in range(-40, 61):
        m = md(kind, 4, form=np.ldexp(form, e))
        bs = basis(m)
        assert len(bs) == module_dim(m)
        assert all(contains(m, b) for b in bs)
        assert not contains(m, rng.standard_normal((4, 4)))


@pytest.mark.parametrize("kind", ["Sym2", "Sym2Traceless", "Alt2"])
def test_membership_of_huge_matrices(kind):
    """Entries near the float limit overflow frob(X) unless X is scaled down first."""
    m = md(kind, 3)
    skew = np.array([[0.0, 1e154, 0], [-1e154, 0, 0], [0, 0, 0]])
    assert contains(m, skew) == (kind == "Alt2")
    rng = np.random.default_rng(3)
    for e in (0, 500, 1000, 1020):
        assert all(contains(m, np.ldexp(b, e)) for b in basis(m))
        assert not contains(m, np.ldexp(rng.standard_normal((3, 3)), e))


def test_membership_of_a_complex_entry_whose_modulus_overflows():
    """|1.3e308 (1 + i)| overflows, so X is scaled by its largest part: the asymmetric entry
    1e303 is seen over C as it is for the real entry 1.3e308, not lost in an inf bound."""
    m = md("Sym2", 3, "C")
    for big in (1.3e308 * (1 + 1j), 1.3e308):
        X = np.zeros((3, 3), complex)
        X[0, 0], X[1, 2] = big, 1e303
        assert not contains(m, X)
        X[2, 1] = 1e303
        assert contains(m, X)


@pytest.mark.parametrize("kind", [kind for kind, row in KINDS.items()
                                  if row.span in (SYM, SKEW)])
@pytest.mark.parametrize("field", ["R", "C"])
@pytest.mark.parametrize("e", [-1070, 1000])
def test_twisted_bases_under_forms_near_the_ends_of_the_float_range(kind, field, e):
    """The form is brought to unit scale by a product by powers of two, not by a complex
    division, whose reciprocal of a subnormal scale overflows: every twisted kind builds under
    a form scaled by 2^-1070 or 2^1000, over C as over R, with the basis of the unscaled
    form."""
    skew = KINDS[kind].skew_form
    form = youla_blocks([1.0, 2.0], 4) if skew else np.diag([1.0, 2.0, -1.0, 3.0])
    want = basis(md(kind, 4, field, form=form))
    got = basis(md(kind, 4, field, form=np.ldexp(form, e)))
    np.testing.assert_array_equal(got, want)


def test_every_kind_and_action_is_used():
    """Each kind is a manifold row's module, a classification factor, a family's slot kind or
    in census's low-dimension catalog, and each action is some kind's.  Every slot kind of a
    ``TRAITS`` row has a witness, and every family with slots an algebra for its catalog."""
    slotted = {family: t for family, t in groups.TRAITS.items() if t.slots is not None}
    slot_kinds = {kind for t in slotted.values() for _, kind, _ in t.slots}
    used = {module(md).kind for md in all_smallest_legal()} | slot_kinds
    used |= {kind for kind, row in KINDS.items() if row.witness is not None}
    used |= {m["kind"] for m in census(groups.sl(3, "C"))["low_dim_modules"]}
    assert used == set(KINDS)
    assert {row.action for row in KINDS.values()} - {None} == set(ActionKind)
    assert all(KINDS[kind].witness is not None for kind in slot_kinds)
    assert all(t.algebra is not None for t in slotted.values())


def test_real_dim_doubles_complex_kinds():
    assert gmodules.real_dim(md("Alt2", 5, "C")) == 20
    assert gmodules.real_dim(md("Alt2", 5, "R")) == 10
    assert gmodules.real_dim(md("SUAlgebra", 5)) == 24
