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
    EigenClass,
    IdentityBlock,
    ToeplitzBlockDescriptor,
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
    from manirep.classify import enumerate_admissible
    from manirep.gmodules import canonical_witness

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


@given(st.lists(st.integers(min_value=1, max_value=12), max_size=30))
@settings(max_examples=200, deadline=None)
def test_min_sum_equals_the_double_sum_property(blocks):
    """``EigenClass.min_sum`` is the sum of min(b_i, b_j) over all ordered pairs of blocks,
    in whatever order the blocks are listed."""
    want = sum(min(a, b) for a in blocks for b in blocks)
    assert EigenClass("real", 0.0, tuple(blocks)).min_sum() == want


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


@st.composite
def _group_module_point(draw):
    """A group of SO_n(C), Sp_n(R), SU_n or SO(p,q) with n <= 8, one of its classification
    modules, and a point of it: the canonical witness or a random combination of its basis."""
    from manirep.classify import TargetSpec
    from manirep.gmodules import basis, canonical_witness

    family = draw(st.sampled_from(["SO", "Sp", "SU", "SOpq"]))
    if family == "SO":
        g = groups.so(draw(st.integers(3, 8)), "C")
    elif family == "Sp":
        g = groups.sp(2 * draw(st.integers(1, 4)), "R")
    elif family == "SU":
        g = groups.su(draw(st.integers(2, 8)))
    else:
        p = draw(st.integers(1, 7))
        g = groups.so_pq(p, draw(st.integers(1, 8 - p)))
    t = groups.TRAITS[g.family]
    frame = () if t.unitary else (draw(st.integers(1, g.n)),)
    m = draw(st.sampled_from(TargetSpec(g, frame + (1,) * len(t.slots)).modules()))
    seed = draw(st.integers(0, 10**6))
    if draw(st.booleans()):
        X = canonical_witness(m)
    else:
        rng = np.random.default_rng(seed)
        B = basis(m)
        c = rng.standard_normal(len(B))
        if m.field == "C":
            c = c + 1j * rng.standard_normal(len(B))
        X = np.tensordot(c, B, axes=1)
    return g, m, X, seed


@given(_group_module_point())
@settings(max_examples=80, deadline=None)
def test_stabilizer_dim_is_invariant_along_the_orbit(case):
    """The stabilizer of A.X is A G_X A^{-1}, so its dimension is that of G_X for every
    group element A."""
    from manirep.gmodules import act

    g, m, X, seed = case
    Y = act(m.action, groups.sample(g, seed), X)
    assert stabilizer_dim_in_group(g, m, m.action, Y) == stabilizer_dim_in_group(
        g, m, m.action, X)


def _dense_rows(basis, action, X, real):
    """The dense rows of the fixing condition, by the batched ``dact`` product over the whole
    Lie basis, in real arithmetic when the basis and X are real and, with ``real``, with
    (re, im) columns."""
    from manirep.numkit import _rows

    basis, X = np.asarray(basis), np.asarray(X)
    if not any(np.iscomplexobj(A) and A.imag.any() for A in (basis, X)):
        basis, X = basis.real, X.real
    return _rows(dact(action, basis, X), real)


#: per action, the module kinds whose points it is checked on
_ACTION_KINDS = {
    ActionKind.LEFT_MULT: ["RectNK"],
    ActionKind.CONGRUENCE: ["Alt2", "Sym2"],
    ActionKind.SIMILARITY: ["SLnTraceless", "Alt2Form", "Sym2TracelessForm"],
    ActionKind.CONGRUENCE_STAR: ["SUAlgebra", "SpAlgebra", "SymTracelessCapSU"],
}


@st.composite
def _support_case(draw):
    """A group of any ``TRAITS`` family at its standard form, a signature, a diagonal form or a
    form of Youla blocks, an action, and a point of a module it acts on: the canonical
    witness or a drawn combination of the module's basis, complex for a real form too."""
    family = draw(st.sampled_from(sorted(groups.TRAITS)))
    t = groups.TRAITS[family]
    n = draw(st.integers(1, 4)) * (2 if t.form == "skew" else 1) + (t.form == "sym")
    field = draw(st.sampled_from(["R", "C"]))
    lams = [float(draw(st.integers(1, 5))) for _ in range(n // 2)]
    shape = draw(st.sampled_from(["standard", "twisted"]))
    if family == groups.SOPQ:
        p = draw(st.integers(0, n))
        g = groups.so_pq(p, n - p)
    elif shape == "twisted" and t.form == "skew" and not t.unitary:
        g = groups.GroupDescriptor(family, n, field, form=youla_blocks(lams, n))
    elif shape == "twisted" and t.form == "sym" and not t.unitary:
        g = groups.GroupDescriptor(family, n, field, form=np.diag(lams + [3.0] * (n - len(lams))))
    else:
        g = groups.GroupDescriptor(family, n, field)
    actions = [a for a in ActionKind if a != ActionKind.CONGRUENCE_STAR or not g.is_complex_group]
    return (g, *_module_point(draw, n, actions))


def _module_point(draw, n, actions):
    """An action drawn from ``actions``, a module of size n it acts on, and a point of it: the
    canonical witness or a drawn combination of the module's basis, complex over C."""
    from manirep.gmodules import KINDS, basis, canonical_witness

    action = draw(st.sampled_from(actions))
    kinds = [k for k in _ACTION_KINDS[action] if not (KINDS[k].skew_form and n % 2)]
    kind = draw(st.sampled_from(kinds))
    m = ModuleDescriptor(kind, n, draw(st.sampled_from(["R", "C"])),
                         k=draw(st.integers(1, n)) if kind == "RectNK" else None)
    if draw(st.booleans()):
        return m, action, canonical_witness(m)
    rng = np.random.default_rng(draw(st.integers(0, 10**6)))
    B = basis(m)
    c = rng.standard_normal(len(B))
    if m.field == "C":
        c = c + 1j * rng.standard_normal(len(B))
    return m, action, np.tensordot(c, B, axes=1)


@given(_support_case())
@settings(max_examples=300, deadline=None)
def test_support_rows_equal_the_dense_rows_property(case):
    """The rows built from the support of the Lie basis of g's normal frame g0 and the nonzeros
    of the carried point P . X (``groups.normal_frame``) are g0's dense ``dact`` rows at P . X
    entry for entry: the same column count, the same nonzero pattern, in row then column
    order, and the same values bit for bit, in the same type."""
    from manirep.gmodules import act
    from manirep.stabilizers import stabilizer_rows

    g, m, action, X = case
    g0, P = groups.normal_frame(g)
    basis = groups.lie_algebra_basis(g0)
    assert basis.support is not None
    e, col, val, width = stabilizer_rows(g, m, action, X)
    D = _dense_rows(basis, action, X if P is None else act(action, P, X),
                    not g.is_complex_group)
    assert width == D.shape[1]
    want_e, want_col = np.nonzero(D)
    np.testing.assert_array_equal(e, want_e)
    np.testing.assert_array_equal(col, want_col)
    assert val.dtype == D.dtype
    np.testing.assert_array_equal(val, D[want_e, want_col])


@given(_support_case())
@settings(max_examples=150, deadline=None)
def test_products_equal_dact_on_every_monomial_basis_property(case):
    """``_products`` over the support of g's own Lie basis, standard, signature, diagonal or
    Youla-block, gives the batched ``dact`` rows entry for entry and bit for bit, although
    ``stabilizer_rows`` reads only the bases of normal frames."""
    from manirep.stabilizers import _products

    g, _, action, X = case
    basis = groups.lie_algebra_basis(g)
    X = np.asarray(X)
    if np.iscomplexobj(X) and not X.imag.any():  # as stabilizer_rows takes it
        X = X.real
    e, col, val = _products(action, basis.support, X)
    D = _dense_rows(basis, action, X, False)
    want_e, want_col = np.nonzero(D)
    np.testing.assert_array_equal(e, want_e)
    np.testing.assert_array_equal(col, want_col)
    assert val.dtype == D.dtype
    np.testing.assert_array_equal(val, D[want_e, want_col])


#: the families that take a form: SO, Sp and O
_FORM_FAMILIES = sorted(f for f, t in groups.TRAITS.items() if t.form and t.field is None)


@st.composite
def _form_copy_case(draw):
    """A copy of a form family preserving F = 2^k P^T F0 P, over R or C, and the group g0 at
    F0: J for a skew form, I over C and a drawn I_{p,q} over R.  P = Q1 diag(s) Q2 with Q1, Q2
    orthogonal (unitary over C) and s in [e^-1/2, e^1/2], or s = 1 when a point is acted on
    by congruence-star, whose modules P^-1 . X leaves unless P is orthogonal.  Then one
    or two points X of modules g0 acts on, each by any action, and the modules that hold
    their carries P^-1 . X: the form M of a skew-form kind becomes P^T M P."""
    from manirep.gmodules import KINDS, act

    family = draw(st.sampled_from(_FORM_FAMILIES))
    skew = groups.TRAITS[family].form == "skew"
    n = 2 * draw(st.integers(1, 3)) if skew else draw(st.integers(1, 5))
    field = draw(st.sampled_from(["R", "C"]))
    p = draw(st.integers(0, n)) if field == "R" and not skew else n
    g0 = groups.GroupDescriptor(family, n, field, form=groups.Ipq(p, n - p) if p < n else None)
    actions = [a for a in ActionKind if a != ActionKind.CONGRUENCE_STAR or field == "R"]
    points = [_module_point(draw, n, actions) for _ in range(draw(st.integers(1, 2)))]
    rng = np.random.default_rng(draw(st.integers(0, 10**6)))

    def unitary():
        A = rng.standard_normal((n, n))
        if field == "C":
            A = A + 1j * rng.standard_normal((n, n))
        return np.linalg.qr(A)[0]

    star = any(a == ActionKind.CONGRUENCE_STAR for _, a, _ in points)
    s = np.ones(n) if star else np.exp(rng.uniform(-0.5, 0.5, n))
    P = unitary() @ np.diag(s) @ unitary()
    Pinv = np.linalg.inv(P)
    F = P.T @ g0.form_matrix() @ P * np.ldexp(1.0, draw(st.integers(-40, 40)))
    copy = groups.GroupDescriptor(family, n, field, form=F)
    carried = []
    for m, action, X in points:
        form = P.T @ m.form_matrix() @ P if KINDS[m.kind].skew_form else None
        mc = ModuleDescriptor(m.kind, n, "C" if field == "C" else m.field, k=m.k, form=form)
        carried.append((mc, action, act(action, Pinv, X)))
    return copy, g0, points, carried


@pytest.mark.parametrize("field", ["R", "C"])
@pytest.mark.parametrize("family", ["SO", "Sp"])
def test_a_general_form_copy_takes_the_dense_path(monkeypatch, family, field):
    """A copy of SO_5 or Sp_4 preserving F = P^T F0 P, F0 the standard form, is P^{-1} G P, and
    its basis is not monomial.  Its rows no longer come from a dense ``dact`` product: each
    point is carried to the copy's normal frame by ``act`` and ranked there.  At the point
    carried over by P, a frame P^{-1} Y and a congruence point P^{-1} X P^{-T}, its stabilizer
    dimension is the standard group's at (Y, X)."""
    from manirep import stabilizers
    from manirep.gmodules import act, basis

    rng = np.random.default_rng(5)
    n = 5 if family == "SO" else 4
    P = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    if field == "C":
        P = P + 0.3j * rng.standard_normal((n, n))
    std = groups.GroupDescriptor(family, n, field)
    copy = groups.GroupDescriptor(family, n, field, form=P.T @ std.form_matrix() @ P)
    assert groups.lie_algebra_basis(copy).support is None
    calls = []
    monkeypatch.setattr(stabilizers, "act", lambda *a: calls.append(a[0]) or act(*a))
    Pinv = np.linalg.inv(P)
    for k, kind in [(2, "Alt2"), (1, "Sym2"), (3, "Sym2")]:
        frame = ModuleDescriptor("RectNK", n, field, k=k)
        mod = ModuleDescriptor(kind, n, field)
        X = np.tensordot(rng.standard_normal(len(basis(mod))), basis(mod), axes=1)
        Y = rng.standard_normal((n, k))
        want = intersect_stabilizer_dim(std, [(frame, ActionKind.LEFT_MULT, Y),
                                              (mod, ActionKind.CONGRUENCE, X)])
        got = intersect_stabilizer_dim(copy, [(frame, ActionKind.LEFT_MULT, Pinv @ Y),
                                              (mod, ActionKind.CONGRUENCE, Pinv @ X @ Pinv.T)])
        assert got == want
    assert ActionKind.LEFT_MULT in calls and ActionKind.CONGRUENCE in calls


@given(_form_copy_case())
@settings(max_examples=200, deadline=None)
def test_a_form_copy_has_its_normal_frames_stabilizers_property(case):
    """A copy preserving F = 2^k P^T F0 P is P^-1 g0 P, so its joint stabilizer at the carried
    points P^-1 . X has the dimension of g0's at the points X.  ``normal_frame`` finds g0 and
    a P' with P'^T F0 P' proportional to F, real for a real form, or None, the identity,
    when F already is F0."""
    copy, g0, points, carried = case
    frame, P = groups.normal_frame(copy)
    assert frame.cache_key() == g0.cache_key()
    P = np.eye(copy.n) if P is None else P
    assert copy.field == "C" or not np.iscomplexobj(P)
    M, F = P.T @ g0.form_matrix() @ P, copy.form
    c = frob(F) / frob(M)
    assert frob(c * M - F) <= 1e-10 * frob(F)
    assert intersect_stabilizer_dim(copy, carried) == intersect_stabilizer_dim(g0, points)


def test_large_grassmannian_rank_allocates_a_tenth_of_its_dense_rows():
    """The stabilizer rank behind ``tangent_dim(gr-real, 60)`` holds 232 nonzeros; its dense
    rows would be 1,770 x 3,600 float64 (51 MB).  With the Lie basis already cached, the rank
    allocates less than a tenth of that."""
    import tracemalloc

    from manirep import embeddings as E

    md = E.ManifoldDescriptor(family="gr-real", n=60, k=2)
    gp, base = E.group(md), E.base_point(md)
    groups.lie_algebra_basis(gp)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        dim = stabilizer_dim_in_group(gp, base.module, E.action(md), base.value)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert dim == 1770 - 2 * 58
    assert peak < 1770 * 3600 * 8 / 10


@st.composite
def real_jordan_plans(draw):
    """A real matrix with planted Jordan structure: real eigenvalues and conjugate pairs a +- bi
    on a unit grid, each with blocks of size 1 or 2, in real Jordan form conjugated by an integer
    unimodular S, so X = S J S^-1 is an integer matrix."""
    grid = [complex(a, b) for a in range(-2, 3) for b in range(0, 3)]
    vals = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=3, unique=True))
    plan = [(z, draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))) for z in vals]
    return plan, draw(st.integers(min_value=0, max_value=2**32 - 1))


@given(real_jordan_plans())
@settings(max_examples=60, deadline=None)
def test_real_and_complex_numeric_similarity_agree_property(drawn):
    """Over R the numeric path works on the real matrix and real polynomials in it; over C on
    its complex copy.  Both see the same Jordan structure: a real class of blocks b over R is
    the class of blocks b over C, a pair a + bi is the two classes a +- bi, and the commutant
    dimensions are equal.  Either both paths decide or both raise the same error."""
    plan, seed = drawn
    rng = np.random.default_rng(seed)
    pieces = []  # (block of the real Jordan form, its eigenvalue block size)
    for z, sizes in plan:
        C = z.real * np.eye(2) - z.imag * OMEGA2 if z.imag else np.array([[z.real]])
        for b in sizes:
            d = len(C)
            B = np.kron(np.eye(b), C) + np.kron(np.eye(b, k=1), np.eye(d))
            pieces.append(B)
    n = sum(len(B) for B in pieces)
    J = np.zeros((n, n))
    i = 0
    for B in pieces:
        J[i:i + len(B), i:i + len(B)] = B
        i += len(B)
    L = np.tril(rng.integers(-1, 2, (n, n)), -1) + np.eye(n)
    U = np.triu(rng.integers(-1, 2, (n, n)), 1) + np.eye(n)
    S = L @ U
    X = S @ J @ np.round(np.linalg.inv(S))
    results = []
    for field in ("R", "C"):
        try:
            results.append(stabilizer_similarity(X, "numeric", field=field))
        except IllConditioned as exc:
            results.append(type(exc))
    real, cplx = results
    if not all(isinstance(r, ToeplitzBlockDescriptor) for r in results):
        return  # a defective eigenvalue splits by about sqrt(eps) and may not be decided
    over_c = sorted((round(c.value.real), round(c.value.imag), c.blocks) for c in cplx.classes)
    over_r = sorted((round(c.value.real), s * round(c.value.imag), c.blocks)
                    for c in real.classes for s in ((1, -1) if c.kind == "complex-pair" else (1,)))
    assert over_r == over_c
    assert real.commutant_dim == cplx.commutant_dim
