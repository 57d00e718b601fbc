"""Exact dimensions and bounded enumeration of irreducible highest-weight modules.

Dimensions are Weyl's product over the positive roots of
<lambda+rho, alpha> / <rho, alpha> (Fulton-Harris, Representation Theory,
24.1), read from one table of linear factors per algebra in the standard
epsilon-coordinates of the classical root systems (types A, B, C, D), with
half-integer bookkeeping done over doubled integers so every result is an
exact Python int.  The bounded enumeration walks the weight lattice depth
first and updates the dimension by the factors one step moves.  The
highest weights of the named modules (vector, alternating and symmetric
squares, adjoints, spins) are the anchors everything else is validated
against; ``catalog_weight`` reads them from one table, ``_CATALOG``, in doubled
epsilon-coordinates and turns them into kappa by one rule per root-system
type.  ``LOW_DIM_THRESHOLD`` is where the census catalog of
:mod:`manirep.classify` is complete.  The module imports nothing of the
package but its errors.

Conventions: for ``SL`` and ``SO`` the parameter ``n`` is the matrix size
(weights have length n-1 and floor(n/2)); for ``SP`` it is the rank, the
group being Sp_{2n} on 2n x 2n matrices (weights have length n).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import prod

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


@lru_cache(maxsize=64)
def _factor_table(
    algebra: str, n: int
) -> tuple[tuple[int, ...], tuple[tuple[tuple[int, int], ...], ...]]:
    """Weyl's product over the positive roots as one table of linear factors.

    lambda+rho in epsilon-coordinates (doubled for SO, so spin weights stay
    integral) is the affine map A = A0 + sum_i kappa_i D_i.  The factors are
    A_p - A_q (p < q) for every type, also A_p + A_q for B, C and D, and also
    A_p for B and C; the dimension is their product over the same product at
    A0.  Returns each factor's value at kappa = 0 and, per coordinate i, the
    (factor, increment) pairs of the factors that move with kappa_i; every
    increment is positive, so the dimension rises strictly in each kappa_i.
    """
    m = rank_of(algebra, n)
    size, step = (n, 1) if algebra == SL else (m, 2 if algebra == SO else 1)
    odd = algebra == SP or (algebra == SO and n % 2 == 1)  # types B and C
    A0 = [step * (size - 1 - p) + int(odd) for p in range(size)]
    D = [[step * (p <= i) for p in range(size)] for i in range(m)]
    if algebra == SO:  # the spin coordinates: one for B, two for D
        D[m - 1] = [1] * size
        if not odd:
            D[m - 2] = [1] * (size - 1) + [-1]
    pairs = list(combinations(range(size), 2))
    forms = [((p, 1), (q, -1)) for p, q in pairs]
    forms += [((p, 1), (q, 1)) for p, q in pairs] if algebra != SL else []
    forms += [((p, 1),) for p in range(size)] if odd else []
    base = tuple(sum(c * A0[p] for p, c in form) for form in forms)
    steps = tuple(tuple((f, g) for f, form in enumerate(forms)
                        if (g := sum(c * Di[p] for p, c in form))) for Di in D)
    return base, steps


def weyl_dim(w: HighestWeight) -> int:
    """Exact dimension of the irreducible module with highest weight kappa."""
    base, steps = _factor_table(w.algebra, w.n)
    vals = list(base)
    for k, moves in zip(w.kappa, steps):
        for f, g in moves:
            vals[f] += k * g
    return _exact_quotient(prod(vals), prod(base))


def enumerate_irreps_below(algebra: str, n: int, bound: int) -> list[tuple[HighestWeight, int]]:
    """All weights with dimension <= bound, sorted by (dim, kappa).

    An iterative depth-first walk from 0 in which a weight's children raise
    one coordinate at or after the last one it raised, so every weight is
    reached once.  A coordinate's run stops at the first weight above the
    bound: the dimension rises strictly in each coordinate, so the feasible
    set is downward closed.  A child's dimension is its parent's times the
    ratio of the factors that move with the raised coordinate.
    """
    if bound < 1:
        raise InvalidDescriptor("bound must be >= 1")
    base, steps = _factor_table(algebra, n)
    m = len(steps)
    found = []
    stack = [((0,) * m, base, 1, 0)]
    while stack:
        kap, vals, d, lo = stack.pop()
        found.append((d, kap))
        for i in range(lo, m):
            num = den = 1
            for f, g in steps[i]:
                num *= vals[f] + g
                den *= vals[f]
            up = _exact_quotient(d * num, den)
            if up > bound:
                continue
            new = list(vals)
            for f, g in steps[i]:
                new[f] += g
            stack.append((kap[:i] + (kap[i] + 1,) + kap[i + 1:], new, up, i))
    found.sort()
    return [(HighestWeight(algebra, n, kap), d) for d, kap in found]


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
