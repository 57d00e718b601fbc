"""Batch command-line interface; one JSON document per invocation.

Verbs: ``dims`` (one Weyl dimension), ``irreps`` (bounded enumeration),
``classify`` (admissibility of one target or a full sweep), ``stabilizer``
(structured stabilizer of a matrix file), ``embed`` (one point of a
manifold realization), ``verify`` (equivariance residuals), ``cartan``
(symmetric-space comparison), ``census`` (per-group summary report).

Output is a single JSON document on stdout (``--pretty`` only adds
whitespace), written by ``numkit.dumps`` from a result tree whose matrices
are ``numkit.Mat`` leaves; the seed comes from ``--seed`` or MANIREP_SEED.
Exit codes: 0 success, 1 domain error (reported as an ``error`` object),
2 usage.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import classify as C
from . import embeddings as E
from . import groups as G
from . import weyl
from .errors import InvalidDescriptor, InvalidInput, ManirepError
from .numkit import REAL, Mat, dumps
from .stabilizers import (
    stabilizer_congruence_skew,
    stabilizer_congruence_sym,
    stabilizer_left_mult,
    stabilizer_similarity,
)


def ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(",") if t != "")


def floats(text: str) -> tuple[float, ...]:
    return tuple(float(t) for t in text.split(",") if t != "")


def seed(text: str) -> int:
    """A seed of ``numpy.random.default_rng``: a non-negative integer."""
    if int(text) < 0:
        raise ValueError(f"a seed must be non-negative, not {text}")
    return int(text)


def _read_matrix(path: str) -> np.ndarray:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: not text
        raise InvalidInput(f"cannot read a matrix JSON file: {exc}") from exc
    return Mat.loads(text).to_array()


def _so_pq_from_args(args) -> G.GroupDescriptor:
    sig = args.signature or ()
    if len(sig) != 2 or sum(sig) != args.n:
        raise InvalidDescriptor("SOpq needs --signature p,q with p + q = n")
    return G.so_pq(*sig)


#: --group name -> the group built from the parsed flags
GROUPS = {
    "SL": lambda args: G.sl(args.n, args.field or REAL),
    "SO": lambda args: G.so(args.n, args.field or REAL),
    "Sp": lambda args: G.sp(args.n, args.field or REAL),
    "SU": lambda args: G.su(args.n),
    "SOpq": _so_pq_from_args,
    "SpCompact": lambda args: G.sp_compact(args.n),
}

#: --action name -> the structured stabilizer of a matrix
STABILIZERS = {
    "left-mult": lambda X, mode: stabilizer_left_mult(X),
    "congruence-skew": lambda X, mode: stabilizer_congruence_skew(X),
    "congruence-sym": lambda X, mode: stabilizer_congruence_sym(X),
    "similarity": lambda X, mode: stabilizer_similarity(X, mode),
}


def _manifold_from_args(args) -> E.ManifoldDescriptor:
    return E.ManifoldDescriptor(
        family=args.manifold,
        n=args.n,
        k=args.k,
        ks=args.ks or None,
        p=args.p,
        pq=args.pq or None,
        sizes=args.sizes or None,
        field=args.field,
        spectrum=args.spectrum or None,
    )


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("MANIREP_SEED")
    try:
        return seed(env) if env else 0
    except ValueError as exc:
        raise InvalidInput(f"MANIREP_SEED must be a non-negative integer, not {env!r}") from exc


def cmd_dims(args) -> dict:
    w = weyl.HighestWeight(args.algebra, args.n, args.kappa)
    dim = weyl.weyl_dim(w)
    try:
        return {"dim": str(dim)}
    except ValueError as exc:  # more digits than int-to-str conversion allows
        raise InvalidDescriptor(f"the dimension has too many digits to print: {exc}") from exc


def cmd_irreps(args) -> dict:
    found = weyl.enumerate_irreps_below(args.algebra, args.n, args.bound)
    return {
        "algebra": args.algebra,
        "n": args.n,
        "bound": str(args.bound),
        "irreps": [{"algebra": w.algebra, "n": w.n, "kappa": list(w.kappa), "dim": str(d)}
                   for w, d in found],
    }


def cmd_classify(args) -> dict:
    g = GROUPS[args.group](args)
    if args.enumerate:
        reports = C.enumerate_admissible(g)
        return {"group": g.to_json(), "admissible": [r.to_json() for r in reports]}
    if args.multiplicities is None:
        raise ManirepError("either --enumerate or --multiplicities is required")
    rep = C.admissible(C.TargetSpec(g, args.multiplicities))
    return rep.to_json()


def cmd_stabilizer(args) -> dict:
    return STABILIZERS[args.action](_read_matrix(args.matrix), args.mode).to_json()


def cmd_embed(args) -> dict:
    md = _manifold_from_args(args)
    if args.element:
        g = _read_matrix(args.element)
        return E.embed(md, g).to_json()
    return E.base_point(md).to_json()


def cmd_verify(args) -> dict:
    seed = _seed(args)
    every = args.manifold == "all"
    results = [
        {"manifold": md.to_json(), "residual": E.check_equivariance(md, args.trials, seed),
         "trials": args.trials, "seed": seed}
        for md in (E.all_smallest_legal() if every else [_manifold_from_args(args)])
    ]
    if not every:
        return results[0]
    return {"results": results, "max_residual": max(r["residual"] for r in results)}


def cmd_cartan(args) -> dict:
    rep = E.cartan_compare(args.type, args.n, args.k, trials=args.trials, seed=_seed(args))
    return rep.to_json()


def cmd_census(args) -> dict:
    return C.census(GROUPS[args.group](args))


@functools.cache  # built once per process: a build costs far more than a parse
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="manirep", description=__doc__)
    ap.add_argument("--pretty", action="store_true", help="indent the JSON output")
    ap.add_argument("--out", help="write the JSON document to this file instead of stdout")
    # the same flags are accepted after the verb; SUPPRESS keeps the
    # subparser from clobbering values parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("dims", parents=[common], help="Weyl dimension of one highest weight")
    p.add_argument("--algebra", required=True, choices=["SL", "SO", "SP"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kappa", required=True, type=ints)

    p = sub.add_parser("irreps", parents=[common], help="all irreducibles below a dimension bound")
    p.add_argument("--algebra", required=True, choices=["SL", "SO", "SP"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)

    p = sub.add_parser("classify", parents=[common], help="admissible faithful targets of a group")
    p.add_argument("--group", required=True, choices=list(GROUPS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--field", choices=["R", "C"])
    p.add_argument("--signature", type=ints, help="p,q for SOpq")
    p.add_argument("--enumerate", action="store_true")
    p.add_argument("--multiplicities", type=ints, help="comma-separated multiplicity tuple")

    p = sub.add_parser("stabilizer", parents=[common], help="structured stabilizer of a matrix")
    p.add_argument("--action", required=True, choices=list(STABILIZERS))
    p.add_argument("--matrix", required=True, help="path to a matrix JSON file")
    p.add_argument("--mode", default="exact", choices=["exact", "numeric"])

    def add_manifold_flags(p):  # --n is checked in main: verify --manifold all takes none
        p.add_argument("--manifold", required=True, help="a family name; verify also takes "
                       "'all', for every family at its smallest legal sizes")
        p.add_argument("--n", type=int)
        p.add_argument("--k", type=int)
        p.add_argument("--ks", type=ints, help="flag sizes, e.g. 1,2")
        p.add_argument("--p", type=int, help="odd part for ifl-odd")
        p.add_argument("--pq", type=ints, help="plane type for gr-indefinite, e.g. 1,1")
        p.add_argument("--sizes", type=ints, help="ambient split for gr-indefinite, e.g. 2,3")
        p.add_argument("--field", choices=["R", "C"])
        p.add_argument("--spectrum", type=floats, help="override spectral values, e.g. 7,-2")

    p = sub.add_parser("embed", parents=[common], help="a point of a manifold realization")
    add_manifold_flags(p)
    p.add_argument("--element", help="path to a group-element JSON file")

    p = sub.add_parser("verify", parents=[common], help="equivariance residuals")
    add_manifold_flags(p)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=seed)

    p = sub.add_parser("cartan", parents=[common], help="Cartan embedding vs minimal realization")
    p.add_argument("--type", required=True, choices=list(E.CARTAN_TYPES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=seed)

    p = sub.add_parser("census", parents=[common], help="admissible-target summary for a group")
    p.add_argument("--group", required=True, choices=list(GROUPS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--field", choices=["R", "C"])
    p.add_argument("--signature", type=ints)

    return ap


def _error(exc: ManirepError, pretty: bool) -> str:
    return dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}, pretty)


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "group", None):  # a flag the group ignores is a usage error
        fixed = G.TRAITS[args.group].field
        if args.signature is not None and args.group != G.SOPQ:
            ap.error(f"--signature applies to --group SOpq only, not {args.group}")
        if fixed and args.field not in (None, fixed):
            ap.error(f"--group {args.group} is defined over {fixed}, not --field {args.field}")
    if getattr(args, "manifold", None):  # verify --manifold all sets every size itself
        every = args.verb == "verify" and args.manifold == "all"
        given = [f for f in ("n", "k", "ks", "p", "pq", "sizes", "field", "spectrum")
                 if getattr(args, f) is not None]
        if every and given:
            ap.error(f"--manifold all takes no --{given[0]}")
        if not every and args.n is None:
            ap.error(f"--manifold {args.manifold} needs --n")
    try:
        # the handler is looked up by name on each call rather than held by the cached
        # parser, so a rebinding of cmd_<verb> (as by bench/tracer.py) takes effect
        text, code = dumps(globals()[f"cmd_{args.verb}"](args), args.pretty), 0
    except ManirepError as exc:
        text, code = _error(exc, args.pretty), 1
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
            return code
        except OSError as exc:  # the document goes to stdout as an error instead
            text, code = _error(InvalidInput(f"cannot write --out: {exc}"), args.pretty), 1
    sys.stdout.write(text + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
