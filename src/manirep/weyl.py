"""Exact dimensions and bounded enumeration of irreducible highest-weight modules.

Dimensions are Weyl's product over the positive roots of <lambda+rho, alpha> / <rho, alpha>
(Fulton-Harris, Representation Theory, 24.1) in the standard epsilon-coordinates of the
classical root systems (types A, B, C, D), doubled for SO so that spin weights stay integral;
every result is an exact Python int.  A factor is built only where lambda, or one step of the
walk, moves it off its old value, so a cost follows the factors moved, not the positive roots.
The bounded enumeration walks the weight lattice depth first and refuses a step once its
partial product passes the bound.  The highest weights of the named modules (vector,
alternating and symmetric squares, adjoints, spins) are the anchors everything else is
validated against; ``catalog_weight`` reads them from one table, ``_CATALOG``, in doubled
epsilon-coordinates and turns them into kappa by one rule per root-system type.
``LOW_DIM_THRESHOLD`` is where the census catalog of :mod:`manirep.classify` is complete.  The
module imports nothing of the package but its errors.

Conventions: for ``SL`` and ``SO`` the parameter ``n`` is the matrix size
(weights have length n-1 and floor(n/2)); for ``SP`` it is the rank, the
group being Sp_{2n} on 2n x 2n matrices (weights have length n).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby, product

from .errors import InvalidDescriptor, ManirepError

SL, SO, SP = "SL", "SO", "SP"


def rank_of(algebra: str, n: int) -> int:
    if algebra == SL:
        if n < 2:
            raise InvalidDescriptor("SL needs n >= 2")
        return n - 1
    if algebra == SO:
        if n < 3:
            raise InvalidDescriptor("SO needs n >= 3")
        return n // 2
    if algebra == SP:
        if n < 1:
            raise InvalidDescriptor("SP needs rank >= 1")
        return n
    raise InvalidDescriptor(f"unknown algebra {algebra!r}")


@dataclass(frozen=True)
class HighestWeight:
    algebra: str
    n: int
    kappa: tuple[int, ...]

    def __post_init__(self):
        m = rank_of(self.algebra, self.n)
        if len(self.kappa) != m:
            raise InvalidDescriptor(f"kappa must have length {m}, got {len(self.kappa)}")
        if any(k < 0 or int(k) != k for k in self.kappa):
            raise InvalidDescriptor("kappa entries must be nonnegative integers")


def _exact_quotient(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ManirepError("Weyl dimension quotient is not an integer")
    return q


def _frame(algebra: str, n: int) -> tuple[tuple[int, ...], list, bool, bool]:
    """rho, the move (k, d, e) of each kappa_i and the root kinds: a unit of kappa_i adds d to
    the coordinates before k and e to the rest.  As d > e >= -d, lambda+rho = A stays strictly
    decreasing with positive pairwise sums.  Weyl's factors are A_p - A_q (p < q), also A_p + A_q
    (``sums``) for B, C and D, and A_p (``short``) for B and C; no move makes one smaller."""
    m = rank_of(algebra, n)
    size, step = (n, 1) if algebra == SL else (m, 2 if algebra == SO else 1)
    short = algebra == SP or (algebra == SO and n % 2 == 1)  # types B and C
    rho = tuple(step * (size - 1 - p) + int(short) for p in range(size))
    moves = [(i + 1, step, 0) for i in range(m)]
    if algebra == SO:  # the spin coordinates: one for B, two for D
        moves[m - 1] = (size, 1, 0)
        if not short:
            moves[m - 2] = (size - 1, 1, -1)
    return rho, moves, algebra != SL, short


def weyl_dim(w: HighestWeight) -> int:
    """Exact dimension of the irreducible module with highest weight kappa.

    lambda, the sum of the kappa_i moves of ``_frame``, is constant on runs of coordinates.  A
    factor's value at lambda+rho differs from its value at rho only across two runs, or, for the
    sums and short roots, inside a run off zero; only those factors are multiplied."""
    rho, moves, sums, short = _frame(w.algebra, w.n)
    moved = [(kap, move) for kap, move in zip(w.kappa, moves) if kap]
    runs, lo = [], 0
    for d, same in groupby(sum(kap * (d if p < k else e) for kap, (k, d, e) in moved)
                           for p in range(len(rho))):
        runs.append((d, lo, lo := lo + len(list(same))))
    num = den = 1
    for x, (d, lo, hi) in enumerate(runs):
        for e, lo2, hi2 in runs[x + 1:]:
            for a, b in product(rho[lo:hi], rho[lo2:hi2]):
                num *= (a - b + d - e) * (a + b + d + e if sums else 1)
                den *= (a - b) * (a + b if sums else 1)
        for a, b in combinations(rho[lo:hi], 2) if sums and d else ():
            num *= a + b + 2 * d
            den *= a + b
        for a in rho[lo:hi] if short and d else ():
            num *= a + d
            den *= a
    return _exact_quotient(num, den)


def enumerate_irreps_below(algebra: str, n: int, bound: int) -> list[tuple[HighestWeight, int]]:
    """All weights with dimension <= bound, sorted by (dim, kappa).

    An iterative depth-first walk from 0 in which a weight's children raise one coordinate at
    or after the last one it raised, so every weight is reached once.  A raise multiplies the
    dimension by new / old of each factor its move changes, built when needed, nearest pairs
    (the largest ratios) first.  No ratio is below 1, so a raise is refused once the exact
    partial product passes the bound (at bound 1, after one factor); the feasible set is
    downward closed, so that ends the coordinate's run.  The weights, valid by construction, are
    built without re-running their checks."""
    if bound < 1:
        raise InvalidDescriptor("bound must be >= 1")
    rho, moves, sums, short = _frame(algebra, n)
    m = len(moves)
    found = []
    stack = [((0,) * m, rho, 1, 0)]
    while stack:
        kap, A, dim, lo = stack.pop()
        found.append((dim, kap))
        for i in range(lo, m):
            k, d, e = moves[i]
            P, rest = A[k - 1::-1], A[k:]  # the pairs across the move's split, nearest first
            num, den = dim, bound  # the raise passes the bound once num > den
            for a, b in product(P, rest):
                x = a - b
                num *= x + d - e
                den *= x
                if num > den:
                    break
            else:
                for a, b in product(P, rest) if sums else ():
                    num *= a + b + d + e
                    den *= a + b
                for a, b in combinations(P, 2) if sums else ():  # all a spin raise moves
                    num *= a + b + 2 * d
                    den *= a + b
                    if num > den:
                        break
                for a in P if short else ():
                    num *= a + d
                    den *= a
                if num <= den:
                    up = tuple(map(d.__add__, A[:k])) + tuple(map(e.__add__, rest))
                    stack.append((kap[:i] + (kap[i] + 1,) + kap[i + 1:], up,
                                  _exact_quotient(num * bound, den), i))
    out = []
    for dim, kap in sorted(found):
        w = object.__new__(HighestWeight)
        w.__dict__.update(algebra=algebra, n=n, kappa=kap)
        out.append((w, dim))
    return out


#: algebra -> name -> the highest weight of a named catalog module in doubled
#: epsilon-coordinates (so spin weights are integral), as (leading entries, the value of
#: every other entry, trailing entries); leading entries past the last coordinate are dropped
_CATALOG = {
    SL: {"trivial": ((), 0, ()), "vector": ((2,), 0, ()), "vector_dual": ((), 0, (-2,)),
         "alt2": ((2, 2), 0, ()), "alt2_dual": ((), 0, (-2, -2)), "sym2": ((4,), 0, ()),
         "sym2_dual": ((), 0, (-4,)), "adjoint": ((2,), 0, (-2,))},
    SO: {"trivial": ((), 0, ()), "vector": ((2,), 0, ()), "alt2": ((2, 2), 0, ()),
         "adjoint": ((2, 2), 0, ()), "sym2_0": ((4,), 0, ()), "spin": ((), 1, ()),
         "spin_minus": ((), 1, (-1,))},
    SP: {"trivial": ((), 0, ()), "vector": ((2,), 0, ()), "adjoint": ((4,), 0, ()),
         "alt2_form": ((4,), 0, ()), "sym2_0_form": ((2, 2), 0, ())},
}


def _not_one_irreducible(algebra: str, n: int, name: str) -> bool:
    """Alt^2 (and its dual) of sl_2 is trivial, Alt^2 = adjoint of so_4 splits, Sym^2_0 of
    sp_2 is zero, and so_{2m+1} has one spin module."""
    return ((algebra, n, name) in {(SL, 2, "alt2"), (SL, 2, "alt2_dual"), (SO, 4, "alt2"),
                                   (SO, 4, "adjoint"), (SP, 1, "sym2_0_form")}
            or (algebra, name) == (SO, "spin_minus") and n % 2 == 1)


def catalog_weight(algebra: str, n: int, name: str) -> HighestWeight | None:
    """Highest weight of a named catalog module, or None where it is not
    a single irreducible (e.g. Alt^2 of so_4).

    The doubled epsilon-coordinates L of ``_CATALOG`` give kappa_i = (L_i - L_{i+1}) / 2,
    where past the last coordinate L_{m+1} is -L_m for type B, 0 for type C and -L_{m-1}
    for type D (type A has a coordinate per row, one more than its rank)."""
    m = rank_of(algebra, n)
    if name not in _CATALOG[algebra]:
        raise InvalidDescriptor(f"unknown catalog module {name!r} for {algebra}")
    if _not_one_irreducible(algebra, n, name):
        return None
    head, fill, tail = _CATALOG[algebra][name]
    size = n if algebra == SL else m
    lam = [fill] * size
    lam[:len(head)] = head[:size]
    lam[size - len(tail):] = tail
    if algebra == SO:
        lam.append(-lam[-1] if n % 2 else -lam[-2])
    elif algebra == SP:
        lam.append(0)
    return HighestWeight(algebra, n, tuple((a - b) // 2 for a, b in zip(lam, lam[1:])))


#: smallest n (per algebra) from which every irreducible of dimension <= n^2 (4n^2 for SP)
#: is in the census catalog of :mod:`manirep.classify`
LOW_DIM_THRESHOLD = {SL: 9, SO: 19, SP: 5}
