import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manirep import groups as G
from manirep.classify import census
from manirep.errors import InvalidDescriptor
from manirep.gmodules import ModuleDescriptor, module_dim
from manirep.weyl import HighestWeight, catalog_weight, enumerate_irreps_below, rank_of, weyl_dim


def W(algebra, n, kappa):
    return HighestWeight(algebra, n, tuple(kappa))


def _unit(size, p, scale=1):
    return tuple(Fraction(scale) if i == p else Fraction(0) for i in range(size))


def _combine(*terms):
    """sum of c * v over (c, v) terms, for vectors of equal length"""
    return tuple(sum(c * v[i] for c, v in terms) for i in range(len(terms[0][1])))


def oracle_dim(algebra, n, kappa):
    """Weyl's product of <lambda+rho, alpha> / <rho, alpha> over the positive roots alpha,
    from the fundamental weights and root vectors of A_{n-1}, B_m, C_m and D_m in
    epsilon-coordinates (Fulton-Harris, Representation Theory, ch. 24), in Fractions."""
    m = rank_of(algebra, n)
    size = n if algebra == "SL" else m
    e = [_unit(size, p) for p in range(size)]
    # fundamental weight i is e_1 + ... + e_{i+1}, except the spin weights of B and D
    omega = [_combine(*((1, e[p]) for p in range(i + 1))) for i in range(m)]
    half = Fraction(1, 2)
    if algebra == "SO" and n % 2 == 1:
        omega[m - 1] = _combine(*((half, e[p]) for p in range(m)))
    elif algebra == "SO":
        omega[m - 2] = _combine(*((half, e[p]) for p in range(m - 1)), (-half, e[m - 1]))
        omega[m - 1] = _combine(*((half, e[p]) for p in range(m)))
    roots = [_combine((1, e[p]), (-1, e[q])) for p, q in combinations(range(size), 2)]
    if algebra != "SL":
        roots += [_combine((1, e[p]), (1, e[q])) for p, q in combinations(range(size), 2)]
    if algebra == "SO" and n % 2 == 1:
        roots += e
    elif algebra == "SP":
        roots += [_combine((2, v)) for v in e]
    rho = _combine(*((1, w) for w in omega))
    lam_rho = _combine((1, rho), *((k, w) for k, w in zip(kappa, omega)))
    dim = Fraction(1)
    for alpha in roots:
        dim *= sum(a * b for a, b in zip(lam_rho, alpha)) / sum(a * b for a, b in zip(rho, alpha))
    assert dim.denominator == 1
    return int(dim)


@st.composite
def weights(draw):
    algebra = draw(st.sampled_from(["SL", "SO", "SP"]))
    n = draw(st.integers(*{"SL": (2, 10), "SO": (3, 12), "SP": (1, 6)}[algebra]))
    kappa = draw(st.lists(st.integers(0, 6), min_size=rank_of(algebra, n),
                          max_size=rank_of(algebra, n)))
    return algebra, n, tuple(kappa)


@settings(max_examples=300, deadline=None)
@given(weights())
def test_weyl_dim_matches_the_root_oracle(weight):
    assert weyl_dim(W(*weight)) == oracle_dim(*weight)


@st.composite
def sparse_weights(draw):
    """Up to n = 40 (rank 40 for SP), with at most three nonzero kappa entries."""
    algebra = draw(st.sampled_from(["SL", "SO", "SP"]))
    n = draw(st.integers(*{"SL": (2, 40), "SO": (3, 40), "SP": (1, 40)}[algebra]))
    m = rank_of(algebra, n)
    spots = draw(st.dictionaries(st.integers(0, m - 1), st.integers(1, 5), max_size=3))
    return algebra, n, tuple(spots.get(i, 0) for i in range(m))


@settings(max_examples=40, deadline=None)
@given(sparse_weights())
def test_weyl_dim_matches_the_root_oracle_up_to_n_40(weight):
    assert weyl_dim(W(*weight)) == oracle_dim(*weight)


def test_large_n_takes_only_the_factors_it_moves():
    """At SL_300 the bound-1 walk refuses each raise after one factor, and the vector's
    dimension multiplies only the 299 factors its weight moves: each well under 2 s (a table of
    every factor took about 30 s and 7 s)."""
    start = time.perf_counter()
    assert [(w.kappa, d) for w, d in enumerate_irreps_below("SL", 300, 1)] == [((0,) * 299, 1)]
    assert time.perf_counter() - start < 2.0
    start = time.perf_counter()
    assert weyl_dim(W("SL", 300, (1,) + (0,) * 298)) == 300
    assert time.perf_counter() - start < 2.0


def _box_brute_force(algebra, n, bound):
    """Every kappa of oracle dimension <= bound, from the box whose side i ends at the last t
    with oracle_dim(t e_i) <= bound: the dimension rises in each coordinate, so the box holds
    every such kappa."""
    m = rank_of(algebra, n)
    sides = []
    for i in range(m):
        t = 0
        while oracle_dim(algebra, n, tuple(t + 1 if j == i else 0 for j in range(m))) <= bound:
            t += 1
        sides.append(range(t + 1))
    return {k for k in product(*sides) if oracle_dim(algebra, n, k) <= bound}


@pytest.mark.parametrize("algebra,n", [("SL", n) for n in range(2, 13)]
                         + [("SO", n) for n in range(3, 13)] + [("SP", n) for n in range(1, 13)])
def test_enumeration_below_n_squared_matches_brute_force(algebra, n):
    bound = 4 * n * n if algebra == "SP" else n * n
    found = enumerate_irreps_below(algebra, n, bound)
    assert {w.kappa for w, _ in found} == _box_brute_force(algebra, n, bound)
    assert all(d == oracle_dim(algebra, n, w.kappa) for w, d in found)
    assert found == sorted(found, key=lambda wd: (wd[1], wd[0].kappa))
    assert all(w == W(algebra, n, w.kappa) for w, _ in found)


@pytest.mark.parametrize("algebra,n", [("SL", 2), ("SO", 3), ("SO", 4), ("SO", 5), ("SO", 6),
                                       ("SP", 1), ("SP", 2)])
def test_root_oracle_on_the_catalog(algebra, n):
    # the oracle itself, against the closed forms of the vector and adjoint modules
    size = {"SL": n, "SO": n, "SP": 2 * n}[algebra]
    adjoint = {"SL": size * size - 1, "SO": size * (size - 1) // 2, "SP": size * (size + 1) // 2}
    assert oracle_dim(algebra, n, catalog_weight(algebra, n, "vector").kappa) == size
    w = catalog_weight(algebra, n, "adjoint")
    if w is not None:
        assert oracle_dim(algebra, n, w.kappa) == adjoint[algebra]


def test_paper_anchor_values():
    assert weyl_dim(W("SL", 9, (0, 1, 0, 0, 0, 0, 0, 0))) == 36
    assert weyl_dim(W("SL", 9, (2, 0, 0, 0, 0, 0, 0, 1))) == 396
    assert weyl_dim(W("SO", 19, (0, 0, 0, 0, 0, 0, 0, 0, 1))) == 512
    assert weyl_dim(W("SP", 1, (2,))) == 3
    assert weyl_dim(W("SL", 5, (0, 0, 0, 0))) == 1
    assert weyl_dim(W("SO", 8, (0, 0, 0, 0))) == 1
    assert weyl_dim(W("SP", 4, (0, 0, 0, 0))) == 1


@pytest.mark.parametrize("n", range(3, 26))
def test_sl_closed_forms(n):
    m = n - 1
    assert weyl_dim(catalog_weight("SL", n, "vector")) == n
    assert weyl_dim(catalog_weight("SL", n, "vector_dual")) == n
    if m >= 2:
        assert weyl_dim(catalog_weight("SL", n, "alt2")) == n * (n - 1) // 2
        assert weyl_dim(catalog_weight("SL", n, "alt2_dual")) == n * (n - 1) // 2
    assert weyl_dim(catalog_weight("SL", n, "sym2")) == n * (n + 1) // 2
    assert weyl_dim(catalog_weight("SL", n, "sym2_dual")) == n * (n + 1) // 2
    assert weyl_dim(catalog_weight("SL", n, "adjoint")) == n * n - 1


@pytest.mark.parametrize("n", range(3, 26))
def test_so_closed_forms(n):
    m = n // 2
    assert weyl_dim(catalog_weight("SO", n, "vector")) == n
    w = catalog_weight("SO", n, "alt2")
    if w is not None:
        assert weyl_dim(w) == n * (n - 1) // 2
    assert weyl_dim(catalog_weight("SO", n, "sym2_0")) == (n + 2) * (n - 1) // 2
    if n % 2 == 1:
        assert weyl_dim(catalog_weight("SO", n, "spin")) == 2**m
    else:
        assert weyl_dim(catalog_weight("SO", n, "spin")) == 2 ** (m - 1)
        assert weyl_dim(catalog_weight("SO", n, "spin_minus")) == 2 ** (m - 1)


@pytest.mark.parametrize("n", range(1, 26))
def test_sp_closed_forms(n):
    assert weyl_dim(catalog_weight("SP", n, "vector")) == 2 * n
    assert weyl_dim(catalog_weight("SP", n, "adjoint")) == 2 * n * n + n
    if n >= 2:
        assert weyl_dim(catalog_weight("SP", n, "sym2_0_form")) == (n - 1) * (2 * n + 1)


def test_weight_validation():
    with pytest.raises(InvalidDescriptor):
        W("SL", 9, (1, 2))
    with pytest.raises(InvalidDescriptor):
        W("SO", 9, (1, -1, 0, 0))
    with pytest.raises(InvalidDescriptor):
        W("XX", 5, (1,))


class TestDualitySymmetry:
    @pytest.mark.parametrize("n", range(3, 10))
    def test_palindrome(self, n):
        m = n - 1
        # all kappa with few nonzero entries and entries <= 3
        seen = 0
        for kappa in product(range(4), repeat=m):
            if sum(kappa) > 6:
                continue
            seen += 1
            assert weyl_dim(W("SL", n, kappa)) == weyl_dim(W("SL", n, kappa[::-1]))
        assert seen > 10


class TestMonotonicity:
    @pytest.mark.parametrize("algebra,n", [("SL", n) for n in range(3, 9)]
                             + [("SO", n) for n in range(5, 9)]
                             + [("SP", n) for n in range(1, 9)])
    def test_drop_coordinate(self, algebra, n):
        m = rank_of(algebra, n)
        for kappa in product(range(3), repeat=m):
            d = weyl_dim(W(algebra, n, kappa))
            for i in range(m):
                if kappa[i] >= 1:
                    lower = list(kappa)
                    lower[i] -= 1
                    assert weyl_dim(W(algebra, n, lower)) < d


class TestEnumeration:
    def test_sl9_example(self):
        r = enumerate_irreps_below("SL", 9, 81)
        assert len(r) == 8
        assert [d for _, d in r] == [1, 9, 9, 36, 36, 45, 45, 80]
        kappas = {w.kappa for w, _ in r}
        m = 8
        expected = {
            tuple([0] * m),
            (1, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 1),
            (0, 1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 1, 0),
            (2, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 2),
            (1, 0, 0, 0, 0, 0, 0, 1),
        }
        assert kappas == expected

    def test_sl3_small_bound(self):
        r = enumerate_irreps_below("SL", 3, 3)
        assert {w.kappa for w, _ in r} == {(0, 0), (1, 0), (0, 1)}

    def test_sp5_dims(self):
        r = enumerate_irreps_below("SP", 5, 100)
        assert sorted(d for _, d in r) == [1, 10, 44, 55]

    def test_sorted_output(self):
        r = enumerate_irreps_below("SO", 9, 200)
        dims = [d for _, d in r]
        assert dims == sorted(dims)

    @pytest.mark.parametrize("algebra,n,bound", [
        ("SL", 4, 30), ("SL", 5, 30), ("SL", 6, 22),
        ("SO", 3, 12), ("SO", 4, 30), ("SO", 5, 60), ("SO", 6, 40),
        ("SP", 1, 12), ("SP", 2, 60), ("SP", 3, 40),
    ])
    def test_matches_brute_force(self, algebra, n, bound):
        m = rank_of(algebra, n)

        # any weight of dimension <= bound has |kappa|_1 <= bound - 1, since
        # the dimension strictly increases along every lattice step from 0
        def tuples_with_sum_at_most(m, s):
            if m == 0:
                yield ()
                return
            for head in range(s + 1):
                for tail in tuples_with_sum_at_most(m - 1, s - head):
                    yield (head,) + tail

        brute = set()
        for kappa in tuples_with_sum_at_most(m, bound - 1):
            if weyl_dim(W(algebra, n, kappa)) <= bound:
                brute.add(kappa)
        found = enumerate_irreps_below(algebra, n, bound)
        assert {w.kappa for w, _ in found} == brute
        assert all(d == oracle_dim(algebra, n, w.kappa) for w, d in found)


class TestLowDimClassification:
    """census's catalog (the trivial and vector modules and the family's slot kinds, over C)
    against the enumeration of the irreducibles of dimension <= n^2."""

    @staticmethod
    def catalog(g):
        """census's catalog of g, its kinds checked against the family's ``TRAITS`` slots, the
        dimensions of the weights below n^2 that it does not explain, and its advisory flag."""
        out = census(g)
        mods = [ModuleDescriptor(m["kind"], m["n"], m["field"], k=m["k"])
                for m in out["low_dim_modules"]]
        slots = [kind for _, kind, _ in G.TRAITS[g.family].slots]
        assert [m.kind for m in mods] == ["Trivial", "RectNK"] + slots
        dims = {module_dim(m) for m in mods}
        weights = enumerate_irreps_below(*G.algebra_of(g), g.n**2)
        return mods, [d for _, d in weights if d not in dims], out["low_dim_advisory"]

    def test_sl9(self):
        mods, unexplained, advisory = self.catalog(G.sl(9, "C"))
        assert [m.kind for m in mods] == ["Trivial", "RectNK", "Alt2", "Sym2", "SLnTraceless"]
        assert [module_dim(m) for m in mods] == [1, 9, 36, 45, 80]
        assert not unexplained and not advisory

    def test_so19(self):
        mods, unexplained, advisory = self.catalog(G.so(19, "C"))
        assert [module_dim(m) for m in mods] == [1, 19, 171, 189]
        assert not unexplained and not advisory

    def test_sp5(self):
        mods, unexplained, advisory = self.catalog(G.sp(10, "C"))
        assert [module_dim(m) for m in mods] == [1, 10, 44, 55]
        assert not unexplained and not advisory

    def test_below_threshold_flagged(self):
        # the 16-dimensional spin module of SO_9 is below 81 but not in the catalog
        _, unexplained, advisory = self.catalog(G.so(9, "C"))
        assert unexplained == [16] and advisory


def test_weyl_loads_neither_groups_nor_gmodules():
    """weyl is integer arithmetic; it imports nothing of the package but its errors."""
    script = ("import sys\n"
              "import manirep.weyl\n"
              "print('manirep.groups' in sys.modules, 'manirep.gmodules' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]
