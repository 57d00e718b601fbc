#!/usr/bin/env python3
"""Minimality sweep over every manifold family.

Runs ``manirep.classify.minimality_certificate`` on the rows of ``all_smallest_legal()``
or, with ``--grow g``, on each row grown g sizes by ``manirep.embeddings.grow``, and prints
one compact JSON document: the grow step and the rows' reports, in sweep order, as
``manirep.numkit.dumps`` writes them.
"""

import argparse

from manirep.classify import minimality_certificate
from manirep.embeddings import all_smallest_legal, grow
from manirep.numkit import dumps


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grow", type=int, default=0, help="sizes above the smallest legal ones")
    args = ap.parse_args()
    if args.grow < 0:
        ap.error("--grow must be nonnegative")
    rows = [minimality_certificate(grow(md, args.grow)).to_json() for md in all_smallest_legal()]
    print(dumps({"grow": args.grow, "rows": rows}))


if __name__ == "__main__":
    main()
