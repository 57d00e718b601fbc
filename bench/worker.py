"""One fresh interpreter serving one workload; spawned by ``run.py``.

    python3 bench/worker.py --workload W --seed N --mode setup|run|traced
                            (--seconds S | --cycles C) --workdir DIR --out FILE

It imports ``manirep.cli``, serves the workload's warm-up pass and prints
``ready`` (the parent times set-up up to that line).  ``setup`` mode stops
there.  ``run`` serves whole cycles for about ``--seconds`` (it starts no cycle
that would end further past the deadline than it ends before it);
``traced`` serves exactly ``--cycles`` cycles under the tracer.  Each
request is timed alone; its output check runs after the clock stops.  The
per-request records, the peak RSS and the library stack go to ``--out``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import sys
import time
from pathlib import Path

import manirep.cli  # noqa: F401  (the import is part of set-up)
import numpy as np

import tracer
import workloads as W


def blas_info() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    # ask the loaded OpenBLAS itself; other builds report only their name
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), sym, None)
            if fn is not None:
                info["threads"] = int(fn())
                return info
    return info


def stack() -> dict:
    import scipy
    import sympy

    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "sympy": sympy.__version__, "blas": blas_info()}


def execute(req: W.Request, tr: tracer.Tracer | None, rid: int) -> dict:
    error = None
    out = None
    t0 = time.perf_counter_ns()
    try:
        out = tr.run_request(rid, req.run) if tr is not None else req.run()
    except Exception as exc:  # a request that raises counts as failed; keep serving
        error = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter_ns()
    ok = False
    if error is None:
        try:
            ok = bool(req.check(out))
        except Exception as exc:  # a malformed output fails its check
            error = f"check raised {type(exc).__name__}: {exc}"
    text = out[1] if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], str) else ""
    return {"kind": req.kind, "ns": t1 - t0, "ok": ok, "error": error,
            "digest": None if error else W.digest(out), "bytes": len(text.encode())}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "run", "traced"])
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--cycles", type=int)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    wl = W.WORKLOADS[args.workload]
    ctx = W.Context(Path(args.workdir))
    for req in wl.warm_up(ctx):
        rec = execute(req, None, -1)
        if not rec["ok"]:
            print(f"warm-up {req.kind} failed: {rec['error']}", file=sys.stderr)
            return 1
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    tr = None
    if args.mode == "traced":
        if wl.cold:
            ctx.traced = True
        else:
            tr = tracer.Tracer()
            tr.install()

    rng = np.random.default_rng(args.seed)
    records: list[dict] = []
    cycles = 0
    start = time.perf_counter()
    elapsed = 0.0
    while (cycles < args.cycles if args.cycles is not None
           # start a cycle only if it would end closer to the deadline than not
           else cycles == 0 or elapsed + elapsed / cycles / 2 < args.seconds):
        for req in wl.cycle(rng, ctx):
            records.append(execute(req, tr, len(records)))
        cycles += 1
        elapsed = time.perf_counter() - start

    who = resource.RUSAGE_CHILDREN if wl.cold else resource.RUSAGE_SELF
    result = {
        "records": records,
        "cycles": cycles,
        "elapsed_s": elapsed,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "stack": stack(),
    }
    if args.mode == "traced":
        if wl.cold:
            summaries, imports = [], []
            for stderr, path in ctx.child_traces:
                summaries.append(json.loads(Path(path).read_text()))
                imports.append(tracer.import_breakdown(stderr))
            result["trace"] = tracer.merge(summaries)
            result["imports"] = {k: sum(i[k] for i in imports) / max(len(imports), 1)
                                 for k in tracer.import_breakdown("")}
        else:
            result["trace"] = tracer.summary(tr)
            result["spans"] = len(tr.spans)
        result["trace"]["counters"]["cli.output_bytes"] = float(sum(r["bytes"] for r in records))
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
