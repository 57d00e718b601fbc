#!/usr/bin/env python3
"""Admissible-target census for the benchmark groups.

Enumerates every admissible module sum for SL_9(C), SO_19(C), Sp_10(C),
SU_9, and compact Sp_10, with total dimensions and the stabilizer dimension
realized at canonical witnesses, through ``manirep.classify.census`` (the
report ``manirep census`` prints).  Writes one JSON document per group, the text
``manirep census --pretty`` prints.
"""

import argparse
from pathlib import Path

from manirep import classify as C
from manirep import groups as G
from manirep.numkit import dumps


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="census_out", help="directory for the JSON reports")
    args = ap.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    cases = {
        "sl9c": G.sl(9, "C"),
        "so19c": G.so(19, "C"),
        "sp10c": G.sp(10, "C"),
        "su9": G.su(9),
        "sp10_compact": G.sp_compact(10),
    }
    for name, g in cases.items():
        report = C.census(g)
        path = outdir / f"{name}.json"
        path.write_text(dumps(report, pretty=True) + "\n")
        print(f"{name}: {len(report['targets'])} admissible targets -> {path}")


if __name__ == "__main__":
    main()
