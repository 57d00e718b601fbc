#!/usr/bin/env python3
"""Equivariance and dimension audit across every manifold family.

For each family at its smallest legal size (and, with ``--grow g``, the
same row grown g sizes by ``manirep.embeddings.grow``, as the minimality
sweep grows it), prints the equivariance residual over random trials, the
tangent dimension dim M = dim G - dim H, the stabilizer dimension dim H from
one rank, and the target dimension.
"""

import argparse

from manirep.embeddings import (
    action,
    all_smallest_legal,
    base_point,
    check_equivariance,
    group,
    grow,
    mp_dimension,
)
from manirep.groups import group_dim
from manirep.stabilizers import stabilizer_dim_in_group


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--grow", type=int, default=0,
                    help="also audit each row this many sizes up (embeddings.grow)")
    args = ap.parse_args()

    header = f"{'family':24s} {'params':16s} {'residual':>10s} {'dim M':>6s} {'dim H':>6s} {'dim V':>6s}"
    print(header)
    print("-" * len(header))
    worst = 0.0
    for md0 in all_smallest_legal():
        for md in [md0, grow(md0, args.grow)] if args.grow else [md0]:
            res = check_equivariance(md, args.trials, args.seed)
            worst = max(worst, res)
            gp, base = group(md), base_point(md)
            stab = stabilizer_dim_in_group(gp, base.module, action(md), base.value)
            params = f"n={md.n}" + (f",k={md.k}" if md.k else "") + (
                f",ks={md.ks}" if md.ks else "") + (f",sizes={md.sizes}" if md.sizes else "")
            # dim M = dim G - dim H, from the one rank behind dim H
            print(f"{md.family:24s} {params:16s} {res:10.2e} "
                  f"{group_dim(gp) - stab:6d} {stab:6d} {mp_dimension(md):6d}")
    print(f"\nworst residual: {worst:.3e} over {args.trials} trials/family")


if __name__ == "__main__":
    main()
