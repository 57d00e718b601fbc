import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import matrix_documents, reference_read

from manirep import numkit
from manirep.errors import (InvalidInput, ManirepError, NonFinite, NotSkew, NotSymmetric,
                            RankAmbiguous, SizeMismatch)
from manirep.numkit import (
    DEFAULT_TOL,
    Mat,
    Tolerance,
    above_cutoff,
    complete_unitary,
    numerical_rank,
    numerical_ranks,
    takagi,
    youla_blocks,
    youla_skew,
)


def random_complex(rng, n, k=None):
    k = n if k is None else k
    return rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))


class TestMatJson:
    def test_roundtrip_real(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        m = Mat.from_array(a)
        assert m.field == "R"
        b = Mat.from_json(m.to_json()).to_array()
        np.testing.assert_array_equal(a, b)

    def test_roundtrip_complex(self):
        a = np.array([[1 + 2j, 0], [0, -1j]])
        b = Mat.from_json(Mat.from_array(a).to_json()).to_array()
        np.testing.assert_array_equal(a, b)

    def test_real_tag_rejects_imaginary(self):
        with pytest.raises(SizeMismatch):
            Mat.from_array(np.array([[1j]]), field="R")

    def test_entry_count_checked(self):
        bad = {"rows": 2, "cols": 2, "field": "R", "data": [[1.0, 0.0]]}
        with pytest.raises(SizeMismatch):
            Mat.from_json(bad)

    @pytest.mark.parametrize("rows,cols,data", [(-1, -1, [[1.0, 0.0]]), (0, -1, []),
                                                (-2, 0, [])])
    def test_negative_sizes_rejected(self, rows, cols, data):
        with pytest.raises(InvalidInput):
            Mat.from_json({"rows": rows, "cols": cols, "field": "R", "data": data})

    # JSON integers beyond the float range count as non-finite, like a 1e400 literal
    @pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf"), 10 ** 400,
                                   -(10 ** 400)], ids=["nan", "inf", "-inf", "10^400", "-10^400"])
    @pytest.mark.parametrize("part", [0, 1])
    def test_non_finite_entries_rejected(self, x, part):
        entry = [x, 0.0] if part == 0 else [0.0, x]
        obj = {"rows": 1, "cols": 2, "field": "C", "data": [[1.0, 0.0], entry]}
        with pytest.raises(NonFinite):
            Mat.from_json(obj)

    @pytest.mark.parametrize("obj", [[1, 2], {"rows": 1}, {"rows": 1, "cols": 1, "field": "R",
                                                          "data": [["a", 0]]}] + [
        {"rows": 1, "cols": 2, "field": field, "data": data} for field in ("R", "C")
        for data in (
            [[1.0, 0.0, 2.0]], [[1.0, 0.0], [2.0, 0.0, 3.0]],  # [re, im, x] triples
            5, [1.0, 2.0], [[1.0, 0.0], 2.0],  # bare numbers
            [[1.0, 0.0], [2.0]], [[1.0, [0.0]]], [[[1.0, 0.0]]],  # ragged or nested rows
            "ab", ["ab"], ["12"], [[1.0, 0.0], "12"], [["1", "x"]],  # strings
            None, [[None, 0.0]], [[0.0, None], [float("nan"), 0.0]], [{}],  # nulls, objects
        )] + [  # sizes that are not JSON integers, with entries that would fit them
        {"rows": r, "cols": c, "field": "R", "data": [[1.0, 0.0], [2.0, 0.0]]}
        for bad in (1.5, 1.0, "1", True) for r, c in ((bad, 2), (2, bad))
    ])
    def test_malformed_objects_rejected(self, obj):
        with pytest.raises(InvalidInput):
            Mat.from_json(obj)

    @pytest.mark.parametrize("a", [np.array([[1.0, -0.0], [0.0, 2.5]]),
                                   np.array([[-0.0 - 0.0j, 1 - 2j, 0.5j]]),
                                   np.arange(6).reshape(2, 3), np.zeros((3, 0))])
    def test_json_keeps_float_entries_and_signed_zeros(self, a):
        obj = Mat.from_array(a).to_json()
        assert obj["data"] == [[float(x.real), float(x.imag)] for x in a.astype(complex).ravel()]
        assert all(type(x) is float for entry in obj["data"] for x in entry)
        assert json.dumps(obj) == json.dumps(Mat.from_json(json.loads(json.dumps(obj))).to_json())
        b = Mat.from_json(obj).to_array()
        assert b.flags.writeable and b.shape == a.shape
        np.testing.assert_array_equal(b, a)
        if not np.iscomplexobj(a):
            np.testing.assert_array_equal(np.signbit(b), np.signbit(a))


#: entries whose text is easy to get wrong: signed zeros, subnormals, the range ends, and
#: neighbours of 1e+-16, where repr switches between positional and exponent notation
AWKWARD = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
           -1e300, 1e-05, 0.0001, 1e-16, 9999999999999998.0, 1e16, 1.0000000000000002e16,
           -1e16, 0.1, 1 / 3)


def entries(n):
    return st.lists(st.one_of(st.sampled_from(AWKWARD),
                              st.floats(allow_nan=False, allow_infinity=False)),
                    min_size=n, max_size=n)


def sparse_entries(n):
    """Mostly +0.0, with some -0.0, integers and ``AWKWARD`` values."""
    return st.lists(st.one_of(st.just(0.0), st.just(0.0), st.just(0.0), st.just(-0.0),
                              st.integers(-2**60, 2**60).map(float), st.sampled_from(AWKWARD)),
                    min_size=n, max_size=n)


@st.composite
def mats(draw, min_entries=0):
    """A ``Mat`` of up to 4 x 4 entries: real (tagged R or C), complex, complex with
    imaginary parts that are zero except one, or sparse, real or complex."""
    rows = draw(st.integers(min_value=1 if min_entries else 0, max_value=4))
    cols = draw(st.integers(min_value=1 if min_entries else 0, max_value=4))
    n = rows * cols
    kind = draw(st.sampled_from(["R", "C-real", "C", "C-one", "R-sparse", "C-sparse"]))
    re = draw(sparse_entries(n) if kind.endswith("sparse") else entries(n))
    im = (draw(entries(n)) if kind == "C" else draw(sparse_entries(n)) if kind == "C-sparse"
          else [0.0] * n)
    if kind == "C-one" and n:
        im[draw(st.integers(min_value=0, max_value=n - 1))] = draw(entries(1))[0]
    data = np.array([re, im], dtype=float).T.reshape(n, 2)
    return Mat(rows, cols, "R" if kind.startswith("R") else "C", data)


def plain_text(tree, pretty):
    """What the writer must print: ``json.dumps`` of the tree with dicts for the leaves."""
    if pretty:
        return json.dumps(tree, sort_keys=True, indent=2, default=Mat.to_json)
    return json.dumps(tree, sort_keys=True, separators=(",", ":"), default=Mat.to_json)


@given(st.lists(mats(), max_size=3), st.sampled_from(["", "data", numkit._DATA]),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_writer_prints_the_plain_tree(leaves, text, pretty):
    """The writer's text is json.dumps of the tree with each leaf as its dict, also when a
    string in the tree is the writer's placeholder for a leaf's data."""
    tree = {"leaves": leaves, "first": leaves[0] if leaves else None, "s": text, "x": -0.0}
    assert numkit.dumps(tree, pretty) == plain_text(tree, pretty)
    for m in leaves:
        assert numkit.dumps(m, pretty) == plain_text(m, pretty)
        np.testing.assert_array_equal(Mat.from_json(json.loads(numkit.dumps(m))).data, m.data)


def read_outcome(read, text):
    """What reading ``text`` gives: the error type, or the Mat's tags and data bytes."""
    try:
        m = read(text)
    except ManirepError as exc:
        return type(exc)
    return m.rows, m.cols, m.field, m.data.dtype, m.data.shape, m.data.tobytes()


@given(st.one_of(matrix_documents(), matrix_documents(flaws=["glued"])))
@example('{"rows": 1, "cols": 2, "field": "R", "data": [[1,2]5,[3,4]]}')
@example('{"rows": 1, "cols": 2, "field": "R", "data": [[1,2],-[3,4]]}')
@example('{"rows": 1, "cols": 2, "field": "R", "data": [[1,2],1[3,4]]}')
@example('{"rows": 1, "cols": 1, "field": "R", "data": [5[1,0]]}')
@settings(max_examples=500, deadline=None)
def test_reader_decides_as_json_loads_and_from_json(text):
    """The bulk reader accepts what json.loads and Mat.from_json accept, with bit-equal data
    (signed zeros included), and otherwise raises the same error type.  Half the documents
    have a number byte glued to a pair's bracket, which is not JSON and must not merge into
    an entry when the brackets are stripped: [[1,2]5,[3,4]] is not [1, 25, 3, 4]."""
    assert read_outcome(Mat.loads, text) == read_outcome(reference_read, text)


@given(mats(min_entries=1), st.sampled_from([np.nan, np.inf, -np.inf]),
       st.integers(min_value=0), st.integers(min_value=0, max_value=1), st.booleans())
@settings(max_examples=100, deadline=None)
def test_writer_rejects_non_finite_entries(m, x, at, part, pretty):
    data = m.data.copy()
    data[at % len(data), part] = x
    with pytest.raises(NonFinite):
        numkit.dumps({"m": Mat(m.rows, m.cols, m.field, data)}, pretty)


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(5)) == 5

    def test_tall_partial(self):
        X = np.zeros((9, 2))
        X[0, 0] = 1.0
        X[1, 1] = 1.0
        assert numerical_rank(X) == 2

    def test_outer_product_rank_one(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(7) + 1.0
        v = rng.standard_normal(5) + 1.0
        assert numerical_rank(np.outer(u, v)) == 1

    def test_strict_ambiguity(self):
        tol = Tolerance(abs_eps=1e-6, rel_eps=1e-6)
        X = np.diag([1.0, 1e-6])
        with pytest.raises(RankAmbiguous):
            numerical_rank(X, tol, strict=True)

    def test_cutoff_is_global_over_blocks(self):
        # ranked alone, the tiny block would clear its own cutoff of abs_eps
        X = np.zeros((3, 3))
        X[0, 0], X[2, 1] = 1.0, 1e-9
        assert numerical_rank(X) == 1

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (4, 5)])
    def test_zero_and_empty(self, shape):
        assert numerical_rank(np.zeros(shape)) == numerical_rank(np.zeros(shape), strict=True) == 0

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_a_block_spanning_x_is_x_itself(self, dtype):
        X = np.arange(1.0, 13.0).reshape(3, 4).astype(dtype)

        def blocks(A):  # the blocks of A on all its columns
            return [B for _, B in numkit._blocks(A, np.ones((1, A.shape[1]), bool))]

        for A in (X, X.T):
            (B,) = blocks(A)
            assert B.shape == (1, *A.shape) and np.shares_memory(B, A)
            np.testing.assert_array_equal(B[0], A)
        # a zero row or column leaves a smaller block, which is gathered
        for A, shape in ((X * [[1], [0], [1]], (2, 4)), (X * [1, 1, 0, 1], (3, 3))):
            (B,) = blocks(A)
            assert B.shape == (1, *shape) and not np.shares_memory(B, A)

    @pytest.mark.parametrize("seed", range(100))
    def test_invariant_under_orthogonal(self, seed):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(0, 7))
        X = rng.standard_normal((6, r)) @ rng.standard_normal((r, 6)) if r else np.zeros((6, 6))
        Q1, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        Q2, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        assert numerical_rank(Q1 @ X @ Q2) == numerical_rank(X) == r


class TestAboveCutoff:
    def test_ranks_absolute_values(self):
        # eigenvalues of a symmetric matrix are ranked by their moduli
        np.testing.assert_array_equal(above_cutoff(np.array([-2.0, 1e-12, 1.0, 0.0])),
                                      [True, False, True, False])

    def test_segments_decide_as_alone(self):
        """With ``ends``, each segment is cut at its own top: 5e-6 stays beside 1e-3 and goes
        beside 1e3, and empty segments (at the start, between and at the end) are skipped."""
        segs = [[], [1e-3, 5e-6, 0.0], [], [1e3, 5e-6], [-2.0, 1e-12], []]
        s = np.concatenate([np.zeros(0)] + [np.array(x, float) for x in segs])
        ends = np.cumsum([len(x) for x in segs])
        want = np.concatenate([np.zeros(0, bool)] + [above_cutoff(np.array(x, float))
                                                     for x in segs])
        np.testing.assert_array_equal(above_cutoff(s, ends=ends), want)
        np.testing.assert_array_equal(want, [True, True, False, True, False, True, False])
        np.testing.assert_array_equal(above_cutoff(np.zeros(0), ends=[0, 0]), np.zeros(0, bool))

    def test_strict_band_and_non_finite_per_segment(self):
        """Tops six orders of magnitude apart: 1e-5 + 5e-11 is in the strict band of the top
        1e3 (cutoff 1e-5) but far above the cutoff 1e-10 of the top 1e-3, so ``strict`` raises
        only when that value shares a segment with 1e3.  A non-finite value in any segment
        raises NonFinite."""
        near = 1e-5 + 5e-11
        s = np.array([1e-3, near, 1e3, 2e-5])
        np.testing.assert_array_equal(above_cutoff(s, strict=True, ends=[2, 4]), [True] * 4)
        with pytest.raises(RankAmbiguous):
            above_cutoff(s, strict=True)
        with pytest.raises(RankAmbiguous):
            above_cutoff(np.array([1e-3, 2e-5, 1e3, near]), strict=True, ends=[2, 4])
        with pytest.raises(NonFinite):
            above_cutoff(np.array([1.0, 2.0, np.nan]), ends=[2, 3])
        with pytest.raises(NonFinite):
            above_cutoff(np.array([np.inf, 2.0]), ends=[1, 1, 2])


class TestCompleteUnitary:
    @pytest.mark.parametrize("n,k", [(0, 0), (1, 0), (4, 0), (4, 2), (5, 5)])
    @pytest.mark.parametrize("real", [True, False])
    def test_completes_orthonormal_columns(self, n, k, real):
        rng = np.random.default_rng(10 * n + k)
        M = rng.standard_normal((n, n)) if real else random_complex(rng, n)
        Q = np.linalg.qr(M)[0][:, :k] if n else np.zeros((0, 0))
        U = complete_unitary(Q)
        assert U.shape == (n, n)
        assert np.iscomplexobj(U) == (not real and n > 0)
        np.testing.assert_array_equal(U[:, :k], Q)
        assert np.linalg.norm(U.conj().T @ U - np.eye(n)) <= 1e-12


class TestTakagi:
    def test_zero(self):
        U, s = takagi(np.zeros((3, 3), dtype=complex))
        np.testing.assert_allclose(U.conj().T @ U, np.eye(3), atol=1e-12)
        np.testing.assert_array_equal(s, np.zeros(3))

    def test_diag_1_i(self):
        X = np.diag([1.0, 1j])
        U, s = takagi(X)
        np.testing.assert_allclose(s, [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(U @ np.diag(s) @ U.T, X, atol=1e-10)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(NotSymmetric):
            takagi(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_gaussian_roundtrip(self):
        rng = np.random.default_rng(0)
        M = random_complex(rng, 6)
        X = M + M.T
        U, s = takagi(X)
        err = np.linalg.norm(U @ np.diag(s) @ U.T - X)
        assert err <= 1e-9 * np.linalg.norm(X)

    @pytest.mark.parametrize("seed", range(100))
    def test_roundtrip_sweep(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 13))
        M = random_complex(rng, n)
        X = M + M.T
        U, s = takagi(X)
        nrm = np.linalg.norm(X)
        assert np.linalg.norm(U @ np.diag(s) @ U.T - X) <= 1e-8 * max(nrm, 1.0)
        assert np.linalg.norm(U.conj().T @ U - np.eye(n)) <= 1e-8
        assert all(s[i] >= s[i + 1] - 1e-12 for i in range(n - 1))

    def test_degenerate_spectrum(self):
        # repeated singular values: X = diag block with equal sigmas
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(random_complex(rng, 6))
        X = Q @ np.diag([2.0, 2.0, 2.0, 1.0, 0.0, 0.0]) @ Q.T
        X = (X + X.T) / 2
        U, s = takagi(X)
        assert np.linalg.norm(U @ np.diag(s) @ U.T - X) <= 1e-8 * np.linalg.norm(X)
        np.testing.assert_allclose(sorted(s), [0, 0, 1, 2, 2, 2], atol=1e-8)


class TestYoula:
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_real_input_gives_real_q(self, dtype):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((7, 7))
        Q, lams, r = youla_skew((M - M.T).astype(dtype))
        assert Q.dtype == np.float64
        assert r == 3 and all(isinstance(lam, float) for lam in lams)

    def test_zero(self):
        Q, lams, r = youla_skew(np.zeros((4, 4)))
        assert r == 0 and lams == []
        np.testing.assert_allclose(Q.T @ Q, np.eye(4), atol=1e-12)

    def test_j4(self):
        J4 = np.zeros((4, 4))
        J4[:2, 2:] = np.eye(2)
        J4[2:, :2] = -np.eye(2)
        Q, lams, r = youla_skew(J4)
        assert r == 2
        np.testing.assert_allclose(lams, [1.0, 1.0], atol=1e-12)
        rec = Q @ youla_blocks(lams, 4) @ Q.T
        assert np.linalg.norm(rec - J4) <= 1e-10

    def test_already_canonical(self):
        X = np.zeros((9, 9))
        X[:2, :2] = 3.0 * numkit.OMEGA2
        Q, lams, r = youla_skew(X)
        assert r == 1
        np.testing.assert_allclose(lams, [3.0], atol=1e-12)

    def test_rejects_nonskew(self):
        with pytest.raises(NotSkew):
            youla_skew(np.eye(3))

    @pytest.mark.parametrize("seed", range(100))
    def test_roundtrip_real(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))
        M = rng.standard_normal((n, n))
        X = M - M.T
        Q, lams, r = youla_skew(X)
        nrm = max(np.linalg.norm(X), 1.0)
        assert np.linalg.norm(Q @ youla_blocks(lams, n) @ Q.T - X) <= 1e-8 * nrm
        assert np.linalg.norm(Q.T @ Q - np.eye(n)) <= 1e-8
        # lams match positive imaginary parts of the eigenvalues
        ev = np.sort_complex(np.linalg.eigvals(X)).imag
        pos = sorted(x for x in ev if x > 1e-9)
        np.testing.assert_allclose(sorted(lams), pos, atol=1e-7 * nrm)

    @pytest.mark.parametrize("seed", range(50))
    def test_roundtrip_complex(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 11))
        M = random_complex(rng, n)
        X = M - M.T
        Q, lams, r = youla_skew(X)
        nrm = max(np.linalg.norm(X), 1.0)
        assert np.linalg.norm(Q @ youla_blocks(lams, n) @ Q.T - X) <= 1e-8 * nrm
        assert np.linalg.norm(Q.conj().T @ Q - np.eye(n)) <= 1e-8

    def test_repeated_lambda_complex(self):
        rng = np.random.default_rng(7)
        Q0, _ = np.linalg.qr(random_complex(rng, 6))
        X0 = youla_blocks([2.0, 2.0, 1.0], 6).astype(complex)
        X = Q0 @ X0 @ Q0.T
        X = (X - X.T) / 2
        Q, lams, r = youla_skew(X)
        assert r == 3
        np.testing.assert_allclose(lams, [2.0, 2.0, 1.0], atol=1e-8)
        assert np.linalg.norm(Q @ youla_blocks(lams, 6) @ Q.T - X) <= 1e-8 * np.linalg.norm(X)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_takagi_roundtrip_property(n, seed):
    rng = np.random.default_rng(seed)
    M = random_complex(rng, n)
    X = M + M.T
    U, s = takagi(X)
    assert np.linalg.norm(U @ np.diag(s) @ U.T - X) <= 1e-8 * max(np.linalg.norm(X), 1.0)


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_youla_roundtrip_property(n, seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    X = M - M.T
    Q, lams, r = youla_skew(X)
    assert np.linalg.norm(Q @ youla_blocks(lams, n) @ Q.T - X) <= 1e-8 * max(np.linalg.norm(X), 1.0)


@st.composite
def planned_spectrum(draw):
    """Positive values in up to four clusters, each an exact repeat or spread by a relative
    gap of 1e-3 ... 1e-14, at one scale 1e-3 ... 1e3, sorted descending, then up to two zeros."""
    scale = 10.0 ** draw(st.integers(min_value=-3, max_value=3))
    vals = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        c = scale * draw(st.floats(min_value=0.5, max_value=2.0))
        gap = draw(st.sampled_from([0.0] + [10.0 ** -k for k in range(3, 15)]))
        vals += [c * (1.0 + gap * j) for j in range(draw(st.integers(min_value=1, max_value=3)))]
    return sorted(vals, reverse=True) + [0.0] * draw(st.integers(min_value=0, max_value=2))


def haar(seed, n, real):
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.standard_normal((n, n)) if real else random_complex(rng, n))[0]


@given(planned_spectrum(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_takagi_planned_spectrum_property(sigma, seed):
    """Clustered, repeated and zero singular values at any scale: U diag(sigma) U^T = X with U
    unitary and sigma the planned values."""
    n = len(sigma)
    V = haar(seed, n, real=False)
    X = V @ np.diag(sigma) @ V.T
    U, s = takagi(X)
    bound = 1e-8 * max(np.linalg.norm(X), 1.0)
    assert np.linalg.norm(U @ np.diag(s) @ U.T - X) <= bound
    assert np.linalg.norm(U.conj().T @ U - np.eye(n)) <= 1e-8
    np.testing.assert_allclose(s, sigma, rtol=0, atol=bound)


@given(planned_spectrum(), st.booleans(), st.booleans(),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_youla_planned_spectrum_property(lams, odd, real, seed):
    """The same plans as rotation speeds, with a zero 2-block per zero and an odd null row:
    X = Q diag(lam_i Omega_2, 0) Q^T with Q unitary (real for real X) and the planned lams."""
    n = 2 * len(lams) + odd
    V = haar(seed, n, real)
    X = V @ youla_blocks(lams, n) @ V.T
    nonzero = [lam for lam in lams if lam > 0]
    Q, got, r = youla_skew(X)
    bound = 1e-8 * max(np.linalg.norm(X), 1.0)
    assert r == len(nonzero)
    assert Q.dtype == (np.float64 if real else np.complex128)
    assert np.linalg.norm(Q @ youla_blocks(got, n) @ Q.T - X) <= bound
    assert np.linalg.norm(Q.conj().T @ Q - np.eye(n)) <= 1e-8
    np.testing.assert_allclose(got, nonzero, rtol=0, atol=bound)


@st.composite
def wide_spectrum(draw):
    """A largest value at scale 1e-1 ... 1e3 and one to three more down to 10^-7.5 of it, just
    above the rank cutoff of 1e-8 of the largest; exact repeats occur; sorted descending."""
    top = 10.0 ** draw(st.integers(min_value=-1, max_value=3)) * draw(
        st.floats(min_value=0.5, max_value=2.0))
    ratios = draw(st.lists(st.sampled_from([10.0 ** -(k / 2) for k in range(16)]),
                           min_size=1, max_size=3))
    return sorted([top] + [top * q for q in ratios], reverse=True)


@given(wide_spectrum(), st.booleans(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_takagi_wide_spectrum_property(sigma, zero, seed):
    """Singular values eight decades apart, with or without a zero: every sigma, the smallest
    included, is found to roundoff of the largest."""
    sigma = sigma + [0.0] * zero
    n = len(sigma)
    V = haar(seed, n, real=False)
    X = V @ np.diag(sigma) @ V.T
    U, s = takagi(X)
    bound = 1e-12 * np.linalg.norm(X)
    assert np.linalg.norm(U @ np.diag(s) @ U.T - X) <= bound
    assert np.linalg.norm(U.conj().T @ U - np.eye(n)) <= 1e-12
    np.testing.assert_allclose(s, sigma, rtol=0, atol=bound)


@given(wide_spectrum(), st.booleans(), st.booleans(),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_youla_wide_spectrum_property(lams, odd, real, seed):
    """Rotation speeds eight decades apart, with or without a null row: every lam, the
    smallest included, is found to roundoff of the largest, and Q stays unitary."""
    n = 2 * len(lams) + odd
    V = haar(seed, n, real)
    X = V @ youla_blocks(lams, n) @ V.T
    Q, got, r = youla_skew(X)
    bound = 1e-12 * np.linalg.norm(X)
    assert r == len(lams)
    assert np.linalg.norm(Q @ youla_blocks(got, n) @ Q.T - X) <= bound
    assert np.linalg.norm(Q.conj().T @ Q - np.eye(n)) <= 1e-12
    np.testing.assert_allclose(got, lams, rtol=0, atol=bound)


def test_youla_rank_ambiguous():
    tol = Tolerance(abs_eps=1e-6, rel_eps=1e-6)
    X = np.zeros((4, 4))
    X[:2, :2] = numkit.OMEGA2
    X[2:, 2:] = 1.5e-6 * numkit.OMEGA2
    with pytest.raises(RankAmbiguous):
        youla_skew(X, tol)


def test_mat_atleast_2d_vector():
    m = Mat.from_array(np.array([1.0, 2.0, 3.0]))
    assert (m.rows, m.cols) == (1, 3)


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=9),
       st.data())
@settings(max_examples=40, deadline=None)
def test_real_rank_property(m, n, data):
    """A real matrix is ranked in real arithmetic; as a complex array with zero imaginary
    part it has the same rank, which is the planned one."""
    rank = data.draw(st.integers(min_value=0, max_value=min(m, n)))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=10**6)))
    U = np.linalg.qr(rng.standard_normal((m, m)))[0][:, :rank]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :rank]
    A = U @ np.diag(2.0 ** np.arange(rank)) @ V.T  # singular values 1, 2, 4, ...
    assert numerical_rank(A) == numerical_rank(A.astype(complex)) == rank


@st.composite
def permuted_blocks(draw):
    """A block-diagonal matrix with planned singular values per block, zero rows and columns
    added and both permuted; the largest value ``top`` sits in the first block.  Other values
    are 0, top / 7, top * 1e-9 (below the cutoff, above a per-block one), and values near the
    cutoff: cut / 4, cut -+ w / 2 inside the strict band (w = min(abs_eps, cut / 2), so these
    lie within abs_eps and a factor of two of the cutoff) and cut + 2 abs_eps outside it."""
    top = 10.0 ** draw(st.integers(min_value=-4, max_value=3))
    cut = DEFAULT_TOL.cutoff(top)
    w = min(DEFAULT_TOL.abs_eps, cut / 2)
    pool = [0.0, top / 7, top * 1e-9, cut / 4, cut - w / 2, cut + w / 2,
            cut + 2 * DEFAULT_TOL.abs_eps]
    real = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    blocks = []
    for i in range(draw(st.integers(min_value=0, max_value=5))):
        p, q = draw(st.integers(min_value=1, max_value=4)), draw(st.integers(min_value=1, max_value=4))
        vals = [draw(st.sampled_from(pool)) for _ in range(min(p, q))]
        if i == 0:
            vals[0] = top
        U = haar(int(rng.integers(2**32)), p, real)
        V = haar(int(rng.integers(2**32)), q, real)
        blocks.append(U[:, :len(vals)] @ np.diag(vals) @ V[:, :len(vals)].conj().T)
    zr, zc = draw(st.integers(min_value=0, max_value=3)), draw(st.integers(min_value=0, max_value=3))
    X = np.zeros((sum(B.shape[0] for B in blocks) + zr, sum(B.shape[1] for B in blocks) + zc),
                 dtype=float if real else complex)
    i = j = 0
    for B in blocks:
        X[i:i + B.shape[0], j:j + B.shape[1]] = B
        i, j = i + B.shape[0], j + B.shape[1]
    return X[rng.permutation(X.shape[0])][:, rng.permutation(X.shape[1])]


@given(permuted_blocks())
@settings(max_examples=200, deadline=None)
def test_block_rank_equals_dense_rank_property(X):
    """Ranked block by block, X has the rank of the dense rule on all its singular values,
    and ``strict`` raises exactly when the dense rule does."""
    s = np.linalg.svd(X, compute_uv=False) if X.size else np.zeros(0)
    assert numerical_rank(X) == int(above_cutoff(s).sum())
    try:
        want = int(above_cutoff(s, strict=True).sum())
    except RankAmbiguous:
        with pytest.raises(RankAmbiguous):
            numerical_rank(X, strict=True)
    else:
        assert numerical_rank(X, strict=True) == want


@given(permuted_blocks(), permuted_blocks(), st.data())
@settings(max_examples=200, deadline=None)
def test_batched_ranks_equal_ranks_one_set_at_a_time_property(X, Y, data):
    """``numerical_ranks`` ranks each column set as ``numerical_rank`` ranks those columns
    alone: with its own cutoff (X and Y have tops from 1e-4 to 1e3), in real arithmetic when
    the chosen columns are real (A is complex when X or Y is), and with ``strict`` raising
    for exactly the sets whose lone call raises.  Sets are empty, all columns, the zero
    columns, the columns of X or of Y, or drawn."""
    A = np.zeros((len(X) + len(Y), X.shape[1] + Y.shape[1]), np.result_type(X, Y))
    A[:len(X), :X.shape[1]], A[len(X):, X.shape[1]:] = X, Y
    n = A.shape[1]
    fixed = [[], list(range(n)), list(np.flatnonzero(~A.any(axis=0))),
             list(range(X.shape[1])), list(range(X.shape[1], n))]
    drawn = st.lists(st.integers(0, n - 1), unique=True).map(sorted) if n else st.just([])
    sets = data.draw(st.lists(st.sampled_from(fixed) | drawn, max_size=6))
    assert_ranked_as_alone(A, sets)


def test_strict_ranks_of_sets_whose_tops_differ_by_orders_of_magnitude():
    """Two blocks with tops 1e3 and 1e-3: the second holds 1e-5 + 5e-11, inside the strict
    band of the first block's cutoff 1e-5 but not of its own cutoff 1e-10.  Each block's
    columns alone rank with ``strict``; the set of all columns raises, alone and batched."""
    A = np.zeros((4, 4))
    A[[0, 1, 2, 3], [0, 1, 2, 3]] = [1e3, 2e-5, 1e-3, 1e-5 + 5e-11]
    sets = [[0, 1], [2, 3], [3], [0, 1, 2, 3]]
    assert numerical_ranks(A, sets[:3], strict=True) == [2, 2, 1]
    assert_ranked_as_alone(A, sets)


def assert_ranked_as_alone(A, sets):
    """``numerical_ranks(A, sets)`` is the ``numerical_rank`` of each A[:, s], and with
    ``strict`` it raises exactly when some lone call raises."""
    assert numerical_ranks(A, sets) == [numerical_rank(A[:, s]) for s in sets]
    want = []
    for s in sets:
        try:
            want.append(numerical_rank(A[:, s], strict=True))
        except RankAmbiguous:
            want.append(None)
            with pytest.raises(RankAmbiguous):
                numerical_ranks(A, [s], strict=True)
        else:
            assert numerical_ranks(A, [s], strict=True) == [want[-1]]
    if None in want:
        with pytest.raises(RankAmbiguous):
            numerical_ranks(A, sets, strict=True)
    else:
        assert numerical_ranks(A, sets, strict=True) == want


@given(st.lists(permuted_blocks(), min_size=1, max_size=3), st.data())
@settings(max_examples=150, deadline=None)
def test_sets_sharing_sub_blocks_rank_as_alone_property(draws, data):
    """Sets that hold the same columns of a block share one sub-block, taken once; each set
    still ranks as its columns alone.  A is block diagonal in copies of a few drawn matrices,
    each set picks, copy by copy, one of a few column subsets of that copy, and sets repeat,
    so many sets share sub-blocks."""
    parts = [draws[i] for i in data.draw(st.lists(st.integers(0, len(draws) - 1),
                                                  min_size=1, max_size=6))]
    A = np.zeros((sum(len(B) for B in parts), sum(B.shape[1] for B in parts)),
                 np.result_type(*parts))
    i = j = 0
    choices = []  # per copy, its column subsets
    for B in parts:
        A[i:i + len(B), j:j + B.shape[1]] = B
        cols = st.lists(st.sampled_from(range(j, j + B.shape[1])), unique=True).map(sorted)
        choices.append(data.draw(st.lists(cols if B.shape[1] else st.just([]),
                                          min_size=1, max_size=3)))
        i, j = i + len(B), j + B.shape[1]
    picks = st.tuples(*(st.sampled_from(c) for c in choices))
    sets = [sum(pick, []) for pick in data.draw(st.lists(picks, min_size=1, max_size=10))]
    sets += data.draw(st.lists(st.sampled_from(sets), max_size=4))
    assert_ranked_as_alone(A, sets)


@st.composite
def one_row_mixes(draw):
    """A ``permuted_blocks`` matrix X, scaled by 2^e, and rows of 1 to 5 entries, each a block of
    one row: joined block-diagonally, rows and columns permuted.  A row's 2-norm is 2^e, top / 7
    or a value near the cutoff of X's top (as in ``permuted_blocks``); e runs from -1070 (the
    entries subnormal) to 1000."""
    X = draw(permuted_blocks())
    real = not np.iscomplexobj(X)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    top = np.linalg.norm(X, 2) if X.size else 1.0
    cut = DEFAULT_TOL.cutoff(top)
    w = min(DEFAULT_TOL.abs_eps, cut / 2)
    powers = st.integers(min_value=-1070, max_value=1000).map(lambda e: 2.0 ** e)
    norms = powers | st.sampled_from([top / 7, cut / 4, cut - w / 2, cut + w / 2,
                                      cut + 2 * DEFAULT_TOL.abs_eps])
    blocks = [X * draw(st.just(1.0) | powers)]
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        u = haar(int(rng.integers(2**32)), draw(st.integers(min_value=1, max_value=5)), real)[0]
        blocks.append(draw(norms) * u[None])
    A = np.zeros((sum(len(B) for B in blocks), sum(B.shape[1] for B in blocks)), X.dtype)
    i = j = 0
    for B in blocks:
        A[i:i + len(B), j:j + B.shape[1]] = B
        i, j = i + len(B), j + B.shape[1]
    return A[rng.permutation(A.shape[0])][:, rng.permutation(A.shape[1])]


def dense_rank(M, strict=False):
    """The rank rule on the singular values of one dense SVD of M; None where ``strict`` finds
    a value in its band."""
    try:
        return int(above_cutoff(np.linalg.svd(M, compute_uv=False) if M.size else np.zeros(0),
                                strict=strict).sum())
    except RankAmbiguous:
        return None


@given(one_row_mixes(), st.data())
@settings(max_examples=200, deadline=None)
def test_one_row_blocks_rank_as_the_dense_svd_property(A, data):
    """A block of one row is ranked by its 2-norm, taken without overflow or underflow: every
    set ranks as its columns alone do, and as the dense SVD of A[:, s] does, and ``strict``
    raises exactly when the dense rule does, for rows from 2^-1070 to 2^1000 among blocks of
    several rows.  Sets are all columns, the columns of one row, or drawn."""
    n = A.shape[1]
    rows = [list(np.flatnonzero(row)) for row in A]
    cols = st.lists(st.integers(0, n - 1), unique=True).map(sorted)
    sets = data.draw(st.lists(st.sampled_from([list(range(n)), *rows]) | cols, max_size=6))
    assert_ranked_as_alone(A, sets)
    for s in sets:
        assert numerical_rank(A[:, s]) == dense_rank(A[:, s])
        want = dense_rank(A[:, s], strict=True)
        if want is None:
            with pytest.raises(RankAmbiguous):
                numerical_rank(A[:, s], strict=True)
        else:
            assert numerical_rank(A[:, s], strict=True) == want


def test_sets_differing_past_the_first_31_columns_of_a_block_are_told_apart():
    """A block's columns are compared 31 at a time: sets that agree on a wide block's first
    chunk but not on its second or third hold different sub-blocks.  Every column of the
    wide block is v1 but for column 40 (v2) and column 65 (v3), so a set's rank counts which
    of v1, v2, v3 it holds."""
    rng = np.random.default_rng(7)
    v = rng.standard_normal((3, 3))
    A = np.zeros((5, 72))
    A[:2, 70:] = rng.standard_normal((2, 2))  # a small first block
    A[2:, :70] = v[:, [0]]
    A[2:, 40], A[2:, 65] = v[:, 1], v[:, 2]
    first = list(range(31))
    sets = [first, first + [40], first + [41], first + [64], first + [65], first + [40, 65],
            [40, 65], first + [41], list(range(72)), [70, 71], first + [40]]
    assert numerical_ranks(A, sets) == [1, 2, 1, 1, 2, 3, 2, 1, 5, 2, 2]
    assert numerical_ranks(A, sets) == [numerical_rank(A[:, s]) for s in sets]


def census_pool(monkeypatch, g):
    """The pooled condition rows and target column sets that ``classify.census(g)`` ranks."""
    from manirep import classify

    pool = {}

    def captured(A, sets, tol):
        pool.update(A=A, sets=sets)
        return numerical_ranks(A, sets, tol)

    with monkeypatch.context() as patch:
        patch.setattr(classify, "numerical_ranks", captured)
        classify.census(g)
    return pool["A"], pool["sets"]


def test_ranks_of_a_census_pool_allocate_less_than_the_pool(monkeypatch):
    """Ranking SO_19(C)'s census pool on its 44 target sets finds A's blocks once, on A's own
    pattern, and takes each shared sub-block once: it allocates less than A itself, where a
    layout of one copy of A's columns per set would take several times that.  The pool holds
    only the 1,008 of the 3 x 361 joined columns that hold a nonzero."""
    import tracemalloc

    from manirep import groups as G

    A, sets = census_pool(monkeypatch, G.so(19, "C"))
    assert A.shape == (171, 1008) and A.any(axis=0).all() and len(sets) == 44
    want = numerical_ranks(A, sets)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert numerical_ranks(A, sets) == want
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < A.nbytes


@pytest.mark.parametrize("group,svd_matrices", [(("sp", 10, "C"), 0), (("so", 19, "C"), 808)],
                         ids=["Sp10C", "SO19C"])
def test_one_row_blocks_of_a_census_pool_take_no_svd(monkeypatch, group, svd_matrices):
    """A block of one row has one singular value, its 2-norm, taken without an SVD.  Every
    block of Sp_10(C)'s census pool has one row, so ranking it takes no SVD; SO_19(C)'s pool
    passes only its 808 distinct sub-blocks of more than one row to the batched SVDs (145 of
    its 953 have one row)."""
    from manirep import groups as G

    A, sets = census_pool(monkeypatch, getattr(G, group[0])(*group[1:]))
    want = numerical_ranks(A, sets)
    svd, taken = np.linalg.svd, []

    def counted(a, *args, **kwargs):
        taken.append(len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert numerical_ranks(A, sets) == want
    assert sum(taken) == svd_matrices


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
@pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
def test_a_nan_or_infinite_entry_is_non_finite(monkeypatch, bad, dense):
    """A NaN or infinite entry is refused as NonFinite before any SVD is taken, whether A is
    dense (one block) or sparse (here a one-row block and a 2 x 2 block)."""
    A = np.ones((3, 3)) if dense else np.array([[1.0, 0, 0], [0, 2, 1], [0, 1, 2]])
    A = A.astype(np.result_type(A, bad))
    A[1, 2] = bad

    def refused(*args, **kwargs):
        raise AssertionError("an SVD was taken")

    monkeypatch.setattr(np.linalg, "svd", refused)
    with pytest.raises(NonFinite):
        numerical_rank(A)
    with pytest.raises(NonFinite):
        numerical_ranks(A, [[0], [1, 2]], strict=True)
    with pytest.raises(NonFinite):
        numerical_rank(np.array([[bad, 1.0]]))


def union_find_clusters(values, radius):
    """Brute-force oracle: union-find over every pair within ``radius``, clusters as sorted
    index lists ordered by their least index."""
    parent = list(range(len(values)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(values)):
        for j in range(i):
            if np.abs(values[i] - values[j]) <= radius:
                parent[find(i)] = find(j)
    out = {}
    for i in range(len(values)):
        out.setdefault(find(i), []).append(i)
    return sorted(out.values())


@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 3)), max_size=25),
       st.sampled_from([0.0, 0.5, 1.0, 1.5]), st.booleans())
@settings(max_examples=200, deadline=None)
def test_clusters_match_a_union_find_property(points, radius, real):
    """Points on a half-unit grid in C (or on R): chains of neighbours link clusters far
    longer than the radius, and repeated points share a cluster at radius 0."""
    v = np.array([x / 2 + (0 if real else 1j * y / 2) for x, y in points])
    got = numkit.clusters(v, radius)
    assert [list(c) for c in got] == union_find_clusters(v, radius)
    assert all(np.array_equal(c, np.sort(c)) for c in got)


def test_clusters_of_a_chain_and_of_nothing():
    assert [list(c) for c in numkit.clusters([3.0, 0.0, 1.0, 2.0, 10.0], 1.0)] == [[0, 1, 2, 3],
                                                                                   [4]]
    assert numkit.clusters(np.zeros(0), 1.0) == []


def test_symmetry_check_of_an_overflowing_norm():
    """|X| and |X + X^T| overflow for these finite matrices; the check must still decide."""
    big = np.full((2, 2), 1e308)
    with pytest.raises(NotSkew):
        youla_skew(big)
    with pytest.raises(NotSymmetric):
        numkit._check_symmetry(np.array([[0.0, 1e308], [-1e308, 0.0]]), -1.0, DEFAULT_TOL)
    numkit._check_symmetry(np.array([[0.0, 1e308], [-1e308, 0.0]]), +1.0, DEFAULT_TOL)
    numkit._check_symmetry(big, -1.0, DEFAULT_TOL)


def test_youla_of_a_subnormal_complex_matrix():
    """[[0, 3e-320 i], [-3e-320 i, 0]] has rank 0 by the cutoff, as its real twin has; scaling
    it for the pairing raises no overflow."""
    for x in (3e-320j, 3e-320):
        assert youla_skew(np.array([[0, x], [-x, 0]]))[2] == 0


def test_youla_of_huge_entries():
    """The pair vector's norm is taken after scaling by a power of two, so it cannot overflow."""
    Q, lams, r = youla_skew(np.array([[0.0, 1e160], [-1e160, 0.0]]))
    assert r == 1
    assert lams == pytest.approx([1e160], rel=1e-15)


@pytest.mark.parametrize("a, want", [
    (0.0, 0.5), (-0.0, 0.5), (5e-324, 5e-324), (1.0, 1.0), (1.5, 1.0), (-3.0, 2.0),
    (1e308, 2.0 ** 1023), (np.array([[3 + 4j, 1j]]), 4.0), (np.zeros((0, 3)), 0.5),
    (np.zeros((2, 2), complex), 0.5), (np.array([1.5e308 * (1 + 1j)]), 2.0 ** 1023),
], ids=["0", "-0", "5e-324", "1", "1.5", "-3", "1e308", "complex", "empty", "zeros",
        "modulus-overflows"])
def test_pow2_below(a, want):
    got = numkit.pow2_below(a)
    assert type(got) is float and got == want


_parts = st.one_of(st.just(0.0), st.floats(min_value=2.0 ** -1074, max_value=2.0 ** 1023))


@given(st.lists(st.tuples(_parts, _parts, st.booleans(), st.booleans()),
                min_size=1, max_size=12), st.booleans())
@settings(max_examples=300, deadline=None)
@example([(1.5e308, 1.5e308, False, False)], True)
@example([(0.0, 3e-320, False, True)], True)
@example([(0.0, 0.0, False, False)], False)
def test_unit_scaled_is_ldexp_of_each_part_property(entries, complex_entries):
    """unit_scaled(a) is np.ldexp of each real and imaginary part of a by the exponent of
    pow2_below(a), its largest part in [1, 2) unless a is 0, with no warning, for every finite
    a: complex entries whose modulus overflows and parts down to 2^-1074 included."""
    a = np.array([(-x if sx else x) + 1j * (-y if sy else y) for x, y, sx, sy in entries])
    a = a if complex_entries else a.real
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scale, got = numkit.pow2_below(a), numkit.unit_scaled(a)
    e = math.frexp(scale)[1] - 1
    assert got.dtype == a.dtype
    np.testing.assert_array_equal(got.real, np.ldexp(a.real, -e))
    np.testing.assert_array_equal(got.imag, np.ldexp(a.imag, -e))
    top = np.maximum(abs(got.real), abs(got.imag)).max()
    assert 1.0 <= top < 2.0 or (top == 0.0 and scale == 0.5)
