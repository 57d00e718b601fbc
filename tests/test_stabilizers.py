import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manirep import groups
from manirep.errors import IllConditioned, NonFinite, WitnessNotInModule
from manirep.gmodules import ActionKind, ModuleDescriptor, dact
from manirep.groups import gl, so, su
from manirep.numkit import OMEGA2, Tolerance, above_cutoff, frob, youla_blocks
from manirep.stabilizers import (
    IdentityBlock,
    _segre,
    intersect_stabilizer_dim,
    stabilizer_congruence_skew,
    stabilizer_congruence_sym,
    stabilizer_dim_in_group,
    stabilizer_left_mult,
    stabilizer_similarity,
)
from oracles import commutant_sample


def gl_kernel_dim(X, action, field):
    """Numeric oracle: stabilizer dimension inside GL_n over the base field."""
    n = X.shape[0]
    g = gl(n, field)
    kind = {"R": "RectNK", "C": "RectNK"}
    if action == ActionKind.LEFT_MULT:
        m = ModuleDescriptor("RectNK", n, field, k=X.shape[1])
    elif action == ActionKind.CONGRUENCE:
        m = ModuleDescriptor("Alt2" if frob(X + X.T) < 1e-9 else "Sym2", n, field)
    else:
        m = ModuleDescriptor("SLnTraceless", n, field) if abs(np.trace(X)) < 1e-9 else None
        if m is None:
            # embed in the full matrix space via a traceless shift
            m = ModuleDescriptor("Sym2", n, field)  # unused fallback
    return stabilizer_dim_in_group(g, m, action, X)


class TestLeftMult:
    def test_embedded_identity(self):
        X = np.zeros((9, 2))
        X[0, 0] = X[1, 1] = 1.0
        bp = stabilizer_left_mult(X)
        assert isinstance(bp.top, IdentityBlock) and bp.top.size == 2
        assert bp.bottom.family == "GL" and bp.bottom.n == 7
        assert bp.dim == 63

    def test_zero(self):
        bp = stabilizer_left_mult(np.zeros((9, 2)))
        assert bp.dim == 81

    def test_rank_one(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(9)
        X = np.outer(u, [1.0, 2.0])
        bp = stabilizer_left_mult(X)
        assert bp.dim == 72

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_numeric_kernel(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 10))
        k = int(rng.integers(1, n + 1))
        r = int(rng.integers(0, k + 1))
        X = rng.standard_normal((n, r)) @ rng.standard_normal((r, k)) if r else np.zeros((n, k))
        field = "R" if seed % 2 == 0 else "C"
        if field == "C" and r:
            X = X + 1j * (rng.standard_normal((n, r)) @ rng.standard_normal((r, k)))
        bp = stabilizer_left_mult(X)
        m = ModuleDescriptor("RectNK", n, field, k=k)
        numeric = stabilizer_dim_in_group(gl(n, field), m, ActionKind.LEFT_MULT, X)
        assert bp.dim == numeric

    @pytest.mark.parametrize("field", ["R", "C"])
    @pytest.mark.parametrize("n, k, r", [(6, 3, 1), (7, 4, 2), (5, 5, 4)])
    def test_conjugator_is_unitary_and_leads_with_the_column_span(self, n, k, r, field):
        rng = np.random.default_rng(n * k + r)
        A, B = rng.standard_normal((n, r)), rng.standard_normal((r, k))
        if field == "C":
            A, B = A + 1j * rng.standard_normal((n, r)), B + 1j * rng.standard_normal((r, k))
        X = A @ B
        bp = stabilizer_left_mult(X)
        Q = bp.conjugator
        assert bp.p == r and Q.shape == (n, n)
        assert np.iscomplexobj(Q) == (field == "C")
        assert frob(Q.conj().T @ Q - np.eye(n)) <= 1e-12
        assert frob(Q[:, r:].conj().T @ X) <= Tolerance().cutoff(frob(X))

    def test_samples_fix_the_point(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((7, 3))
        bp = stabilizer_left_mult(X)
        for seed in range(20):
            A = bp.sample(seed)
            assert frob(A @ X - X) <= 1e-8 * max(frob(X), 1.0)


class TestCongruenceSkew:
    def test_canonical_example(self):
        X = np.zeros((9, 9))
        X[:2, :2] = OMEGA2
        bp = stabilizer_congruence_skew(X)
        assert bp.top.family == "Sp" and bp.top.n == 2
        assert bp.bottom.n == 7
        assert bp.dim == 66

    def test_zero_gives_gl(self):
        bp = stabilizer_congruence_skew(np.zeros((9, 9)))
        assert bp.dim == 81

    def test_full_rank_j4(self):
        J4 = groups.J2n(4)
        bp = stabilizer_congruence_skew(J4)
        assert bp.bottom is None
        assert bp.dim == 10

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_numeric_kernel(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(3, 10))
        field = "R" if seed % 2 == 0 else "C"
        r = int(rng.integers(0, n // 2 + 1))
        lams = rng.uniform(0.5, 3.0, size=r)
        core = youla_blocks(list(lams), n)
        S = rng.standard_normal((n, n))
        if field == "C":
            S = S + 1j * rng.standard_normal((n, n))
        Qr, _ = np.linalg.qr(S)
        X = Qr @ core.astype(Qr.dtype) @ Qr.T
        X = (X - X.T) / 2
        bp = stabilizer_congruence_skew(X)
        m = ModuleDescriptor("Alt2", n, field)
        numeric = stabilizer_dim_in_group(gl(n, field), m, ActionKind.CONGRUENCE, X)
        assert bp.dim == numeric

    def test_samples_fix_the_point(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((6, 6))
        X = M - M.T
        bp = stabilizer_congruence_skew(X)
        for seed in range(20):
            A = bp.sample(seed)
            assert frob(A @ X @ A.T - X) <= 1e-7 * max(frob(X), 1.0)


class TestCongruenceSym:
    def test_indefinite_rank2(self):
        X = np.diag([1.0, -1.0] + [0.0] * 7)
        bp = stabilizer_congruence_sym(X)
        assert bp.top.family == "O" and bp.top.n == 2
        assert bp.dim == 64

    def test_identity_gives_orthogonal(self):
        bp = stabilizer_congruence_sym(np.eye(9))
        assert bp.bottom is None
        assert bp.dim == 36

    def test_repeated_eigenvalue(self):
        X = np.diag([2.0, 2.0] + [0.0] * 7)
        bp = stabilizer_congruence_sym(X)
        assert bp.dim == 64

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_numeric_kernel(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(3, 10))
        field = "R" if seed % 2 == 0 else "C"
        r = int(rng.integers(0, n + 1))
        vals = rng.uniform(0.5, 3.0, size=r) * rng.choice([-1.0, 1.0], size=r)
        S = rng.standard_normal((n, n))
        if field == "C":
            S = S + 1j * rng.standard_normal((n, n))
            vals = vals.astype(complex) * np.exp(1j * rng.uniform(0, np.pi, size=r))
        Qr, _ = np.linalg.qr(S)
        X = Qr @ np.diag(np.concatenate([vals, np.zeros(n - r)])).astype(Qr.dtype) @ Qr.T
        X = (X + X.T) / 2
        bp = stabilizer_congruence_sym(X)
        m = ModuleDescriptor("Sym2", n, field)
        numeric = stabilizer_dim_in_group(gl(n, field), m, ActionKind.CONGRUENCE, X)
        assert bp.dim == numeric

    def test_samples_fix_the_point(self):
        X = np.diag([3.0, 1.0, 1.0, -2.0, 0.0, 0.0])
        bp = stabilizer_congruence_sym(X)
        for seed in range(20):
            A = bp.sample(seed)
            assert frob(A @ X @ A.T - X) <= 1e-7 * max(frob(X), 1.0)


class TestSimilarity:
    def test_diag_001_complex(self):
        td = stabilizer_similarity(np.diag([0.0, 0.0, 1.0]).astype(complex), "exact", field="C")
        assert td.commutant_dim == 5
        assert sorted(tuple(c.blocks) for c in td.classes) == [(1,), (1, 1)]

    def test_identity(self):
        td = stabilizer_similarity(np.eye(4), "exact")
        assert td.commutant_dim == 16

    def test_jordan_block(self):
        Jb = np.zeros((3, 3))
        Jb[0, 1] = Jb[1, 2] = 1.0
        td = stabilizer_similarity(Jb, "exact")
        assert td.commutant_dim == 3
        assert td.classes[0].blocks == (3,)

    def test_rotation_pair(self):
        R = np.array([[0.0, -1.0], [1.0, 0.0]])
        td = stabilizer_similarity(R, "exact")
        assert td.classes[0].kind == "complex-pair"
        assert td.commutant_dim == 2

    def test_rotation_pair_numeric(self):
        R = np.array([[0.0, -1.0], [1.0, 0.0]])
        td = stabilizer_similarity(R, "numeric")
        assert td.classes[0].kind == "complex-pair"
        assert td.commutant_dim == 2

    def test_gaussian_entries_exact(self):
        X = np.array([[1 + 1j, 1.0], [0.0, 1 + 1j]])
        td = stabilizer_similarity(X, "exact", field="C")
        assert td.classes[0].blocks == (2,)
        assert td.commutant_dim == 2
        Y = np.diag([1j, 0.0])
        td = stabilizer_similarity(Y, "exact", field="C")
        assert td.commutant_dim == 2
        assert {complex(c.value) for c in td.classes} == {0j, 1j}

    def test_gaussian_integer_5x5_exact_finishes(self):
        """The Horner powers of p(X) are expanded at each step; left as nested sums, the
        rank of this 5 x 5 matrix took minutes."""
        rng = np.random.default_rng(2002)
        X = rng.integers(-2, 3, (5, 5)) + 1j * rng.integers(-2, 3, (5, 5))
        exact = stabilizer_similarity(X, "exact")
        assert exact.commutant_dim == stabilizer_similarity(X, "numeric").commutant_dim == 5

    def test_block_sizes_with_conjugate_pairs(self):
        # a defective complex pair: J_2(i) + J_2(-i) realized over R
        R = np.array([[0.0, -1.0], [1.0, 0.0]])
        X = np.zeros((4, 4))
        X[:2, :2] = R
        X[2:, 2:] = R
        X[:2, 2:] = np.eye(2)
        td = stabilizer_similarity(X, "exact")
        assert td.classes[0].kind == "complex-pair"
        assert td.classes[0].blocks == (2,)
        assert td.commutant_dim == 4

    def test_numeric_matches_exact(self):
        rng = np.random.default_rng(0)
        X = np.diag([1.0, 1.0, 2.0, 3.0])
        S = rng.integers(-3, 4, size=(4, 4)).astype(float) + 4 * np.eye(4)
        Y = S @ X @ np.linalg.inv(S)
        exact = stabilizer_similarity(np.round(Y * 2) / 2, "exact")  # keep entries dyadic
        numeric = stabilizer_similarity(Y, "numeric")
        assert numeric.commutant_dim == 6

    def test_numeric_ill_conditioned(self):
        X = np.diag([1.0, 1.0 + 1e-9, 2.0])
        with pytest.raises(IllConditioned):
            stabilizer_similarity(X, "numeric", Tolerance(1e-10, 1e-10))

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_numeric_kernel(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(3, 8))
        # random rational Jordan structure via a unimodular conjugation
        vals = rng.choice([-1, 0, 1, 2], size=n)
        J = np.diag(vals.astype(float))
        for i in range(n - 1):
            if vals[i] == vals[i + 1] and rng.random() < 0.5:
                J[i, i + 1] = 1.0
        L = np.tril(rng.integers(-2, 3, size=(n, n)), -1) + np.eye(n)
        U = np.triu(rng.integers(-2, 3, size=(n, n)), 1) + np.eye(n)
        S = L @ U
        X = S @ J @ np.linalg.inv(S)
        td = stabilizer_similarity(np.round(X * 16) / 16, "exact")
        Xe = np.round(X * 16) / 16
        m = ModuleDescriptor("Sym2", n, "R")  # module unused by the oracle below
        gens = []
        for t in range(n * n):
            E = np.zeros((n, n))
            E[t // n, t % n] = 1.0
            gens.append((E @ Xe - Xe @ E).ravel())
        from manirep.numkit import numerical_rank

        numeric = n * n - numerical_rank(np.array(gens).T)
        assert td.commutant_dim == numeric

    def test_commutant_samples_fix_point(self):
        X = np.diag([1.0, 1.0, 3.0])
        for seed in range(10):
            A = commutant_sample(X, seed)
            assert frob(A @ X @ np.linalg.inv(A) - X) <= 1e-8


class TestGroupStabilizerDims:
    def test_so9_vector(self):
        e1 = np.zeros((9, 1))
        e1[0, 0] = 1.0
        m = ModuleDescriptor("RectNK", 9, "R", k=1)
        assert stabilizer_dim_in_group(so(9), m, ActionKind.LEFT_MULT, e1) == 28

    def test_so9_two_columns(self):
        X = np.zeros((9, 2))
        X[0, 0] = X[8, 1] = 1.0
        m = ModuleDescriptor("RectNK", 9, "R", k=2)
        assert stabilizer_dim_in_group(so(9), m, ActionKind.LEFT_MULT, X) == 21

    def test_su9_adjoint(self):
        X = 1j * np.diag([7.0] * 2 + [-2.0] * 7)
        m = ModuleDescriptor("SUAlgebra", 9)
        assert stabilizer_dim_in_group(su(9), m, ActionKind.CONGRUENCE_STAR, X) == 52

    def test_intersection_example(self):
        e1 = np.zeros((9, 1)); e1[0, 0] = 1.0
        e9 = np.zeros((9, 1)); e9[8, 0] = 1.0
        m = ModuleDescriptor("RectNK", 9, "R", k=1)
        same = intersect_stabilizer_dim(so(9), [(m, ActionKind.LEFT_MULT, e1)] * 2)
        diff = intersect_stabilizer_dim(
            so(9), [(m, ActionKind.LEFT_MULT, e1), (m, ActionKind.LEFT_MULT, e9)]
        )
        assert (same, diff) == (28, 21)

    def test_empty_intersection_is_group_dim(self):
        assert intersect_stabilizer_dim(so(9), []) == 36

    def test_witness_validation(self):
        m = ModuleDescriptor("Alt2", 4, "R")
        with pytest.raises(WitnessNotInModule):
            stabilizer_dim_in_group(so(4), m, ActionKind.CONGRUENCE, np.eye(4))


class TestConjugationCovariance:
    @pytest.mark.parametrize("seed", range(8))
    def test_skew_dim_invariant(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((7, 7))
        X = M - M.T
        A = groups.sample(gl(7, "R"), seed) + 3 * np.eye(7)
        bp1 = stabilizer_congruence_skew(X)
        bp2 = stabilizer_congruence_skew(A @ X @ A.T)
        assert bp1.dim == bp2.dim
        assert isinstance(bp2.top, type(bp1.top))

    @pytest.mark.parametrize("seed", range(8))
    def test_sym_dim_invariant(self, seed):
        rng = np.random.default_rng(100 + seed)
        X = np.diag([3.0, 3.0, 1.0, -2.0, 0.0, 0.0, 0.0])
        Q = groups.sample(groups.so(7), seed)
        bp1 = stabilizer_congruence_sym(X)
        bp2 = stabilizer_congruence_sym(Q @ X @ Q.T)
        # rank-4 block O(B) + free 4x3 strip + GL_3 tail
        assert bp1.dim == bp2.dim == 6 + 12 + 9

    @pytest.mark.parametrize("seed", range(8))
    def test_left_dim_invariant(self, seed):
        rng = np.random.default_rng(200 + seed)
        X = rng.standard_normal((7, 2))
        A = groups.sample(gl(7, "R"), seed) + 3 * np.eye(7)
        assert stabilizer_left_mult(X).dim == stabilizer_left_mult(A @ X).dim


def test_irreducible_cubic_factor():
    # companion matrix of t^3 - 2: one real and one conjugate-pair class
    C = np.zeros((3, 3))
    C[1, 0] = C[2, 1] = 1.0
    C[0, 2] = 2.0
    td = stabilizer_similarity(C, "exact")
    kinds = sorted(c.kind for c in td.classes)
    assert kinds == ["complex-pair", "real"]
    assert td.commutant_dim == 3
    assert td.total_size == 3


@given(st.integers(min_value=2, max_value=7), st.data())
@settings(max_examples=30, deadline=None)
def test_real_witness_passed_as_complex_gives_the_same_dimension(n, data):
    """For a real and a complex group, a real witness and its complex copy with zero imaginary
    part have stabilizers of the same dimension: that of a rank-r form in SL_n."""
    rank = data.draw(st.integers(min_value=0, max_value=n))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=10**6)))
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    X = Q @ np.diag([1.0 + i for i in range(rank)] + [0.0] * (n - rank)) @ Q.T
    for field in ("R", "C"):
        g = groups.sl(n, field)
        m = ModuleDescriptor("Sym2", n, field)
        dims = [intersect_stabilizer_dim(g, [(m, m.action, W)]) for W in (X, X.astype(complex))]
        gl_dim = n * n - rank * (rank + 1) // 2 - rank * (n - rank)
        assert dims == [gl_dim - (rank < n)] * 2


@pytest.mark.parametrize("g", [groups.sl(7, "C"), groups.so(11, "C"), groups.sp(8, "C"),
                               groups.sp(8, "R"), groups.su(7), groups.sp_compact(8),
                               groups.so_pq(3, 4)],
                         ids=["SL7C", "SO11C", "Sp8C", "Sp8R", "SU7", "SpCompact8", "SOpq34"])
def test_intersection_dim_equals_the_dense_rank(g):
    """At the canonical witnesses of every admissible target, the block-by-block rank agrees
    with len(basis) minus the rank of one dense SVD of the dact rows, stacked in
    complex arithmetic and split into (re, im) columns for a real form."""
    from manirep.classify import canonical_witness, enumerate_admissible

    basis = groups.lie_algebra_basis(g).astype(complex)
    for rep in enumerate_admissible(g):
        witnesses = [canonical_witness(m) for m in rep.modules]
        rows = [dact(m.action, basis, W).reshape(len(basis), -1)
                for m, W in zip(rep.modules, witnesses)]
        if not g.is_complex_group:
            rows = [part for D in rows for part in (D.real, D.imag)]
        A = np.concatenate(rows, axis=1) if rows else np.zeros((len(basis), 0))
        s = np.linalg.svd(A, compute_uv=False) if A.size else np.zeros(0)
        want = len(basis) - int(above_cutoff(s).sum())
        got = intersect_stabilizer_dim(g, [(m, m.action, W)
                                           for m, W in zip(rep.modules, witnesses)])
        assert got == want


def _companion(*c):
    """Companion matrix of the monic x^n + c[0] x^(n-1) + ... + c[n-1]."""
    n = len(c)
    M = np.zeros((n, n))
    M[1:, :-1] = np.eye(n - 1)
    M[:, -1] = -np.array(c[::-1], dtype=float)
    return M


@pytest.mark.parametrize("coeffs, kinds, blocks, dim", [
    ((0, -2), ["real", "real"], [(1,), (1,)], 2),                           # x^2 - 2
    ((0, 0, -2), ["complex-pair", "real"], [(1,), (1,)], 3),                # x^3 - 2
    ((0, 0, 0, 1), ["complex-pair", "complex-pair"], [(1,), (1,)], 4),      # x^4 + 1
    ((0, 2, 0, 1), ["complex-pair"], [(2,)], 4),                            # (x^2 + 1)^2
], ids=["x2-2", "x3-2", "x4+1", "(x2+1)^2"])
def test_exact_similarity_of_companion_matrices(coeffs, kinds, blocks, dim):
    """A companion matrix has one Jordan block per root; over R an irreducible factor gives
    one real class per real root and one complex-pair class per root of positive imag."""
    C = _companion(*coeffs)
    td = stabilizer_similarity(C, "exact")
    assert sorted(c.kind for c in td.classes) == kinds
    assert sorted(c.blocks for c in td.classes) == blocks
    assert td.commutant_dim == dim and td.total_size == len(coeffs)
    assert all(c.value.imag > 0 for c in td.classes if c.kind == "complex-pair")
    assert all(c.value.imag == 0 for c in td.classes if c.kind == "real")
    roots = np.roots([1, *coeffs])
    for c in td.classes:
        assert np.abs(roots - c.value).min() < 1e-7


@pytest.mark.parametrize("x", [1e-300, 1e300])
def test_exact_similarity_reports_extreme_eigenvalues(x):
    """The factor of a float eigenvalue x is exact but its primitive form 2^k lam - m can have
    coefficients beyond the float range; the eigenvalue still comes out as x."""
    td = stabilizer_similarity(np.diag([x, 0.0]), "exact")
    assert sorted(c.value.real for c in td.classes) == [0.0, x]
    assert all(c.value.imag == 0 for c in td.classes)


@pytest.mark.parametrize("mode", ["exact", "numeric"])
def test_similarity_of_an_overflowing_spectrum_is_non_finite(mode):
    with pytest.raises(NonFinite):
        stabilizer_similarity(np.full((2, 2), 1e308), mode)


def test_segre_reads_blocks_off_the_weyr_characteristic():
    class Boom(IllConditioned):
        pass

    def fake(*nullities, n=6):
        ranks = iter(n - nu for nu in nullities)
        return lambda M: next(ranks)

    P = np.zeros((6, 6))
    assert _segre(fake(2, 3), P, 1, 3, Boom) == (2, 1)          # Weyr 2, 1: J_2 + J_1
    assert _segre(fake(2, 4, 6), P, 2, 6, Boom) == (3,)         # Weyr 1, 1, 1 of a pair
    with pytest.raises(Boom):
        _segre(fake(1, 3), P, 1, 3, Boom)                        # Weyr 1, 2 rises
    with pytest.raises(Boom):
        _segre(fake(1, 4), P, 2, 4, Boom)                        # a step of 1 for degree 2
    with pytest.raises(Boom):
        _segre(fake(2, 2), P, 1, 3, Boom)                        # stops short of the total


@st.composite
def planned_spectra(draw):
    """(field, eigenvalues with multiplicities) for a normal matrix: distinct values on a unit
    grid, each repeated 1-3 times; over R also rotation planes a I + b Omega, b > 0."""
    field = draw(st.sampled_from(["R", "C"]))
    grid = [complex(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    if field == "R":
        grid = [z for z in grid if z.imag >= 0]
    vals = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=4, unique=True))
    mults = [draw(st.integers(min_value=1, max_value=3)) for _ in vals]
    return field, list(zip(vals, mults)), draw(st.integers(min_value=0, max_value=2**32 - 1))


@given(planned_spectra())
@settings(max_examples=60, deadline=None)
def test_numeric_similarity_finds_planned_classes_property(plan):
    """Q diag(planned) Q^-1 for orthogonal or unitary Q: one class per planned value (one per
    conjugate pair over R) of as many 1 x 1 blocks as its multiplicity, and commutant
    dimension sum m^2 (2 m^2 for a pair over R)."""
    field, spec, seed = plan
    rng = np.random.default_rng(seed)
    blocks = []
    for z, m in spec:
        B = z.real * np.eye(2) - z.imag * OMEGA2 if field == "R" and z.imag else np.array([[z]])
        blocks += [B] * m
    n = sum(len(B) for B in blocks)
    D = np.zeros((n, n), dtype=float if field == "R" else complex)
    i = 0
    for B in blocks:
        D[i:i + len(B), i:i + len(B)] = B if field == "C" else B.real
        i += len(B)
    M = rng.standard_normal((n, n)) + (0 if field == "R" else 1j * rng.standard_normal((n, n)))
    Q = np.linalg.qr(M)[0]
    td = stabilizer_similarity(Q @ D @ Q.conj().T, "numeric", field=field)
    kind = {"C": "complex", "R": "real"}[field]
    want = sorted((("complex-pair" if field == "R" and z.imag else kind), (1,) * m,
                   round(z.real), round(z.imag)) for z, m in spec)
    got = sorted((c.kind, c.blocks, round(c.value.real), round(c.value.imag)) for c in td.classes)
    assert got == want
    assert td.commutant_dim == sum((2 if field == "R" and z.imag else 1) * m * m for z, m in spec)
    for c in td.classes:
        assert min(abs(c.value - z) for z, _ in spec) < 1e-8
