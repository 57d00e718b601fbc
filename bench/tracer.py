"""In-memory tracer for the benchmark's traced run.

The library has no instrumentation of its own, so the tracer wraps the
public functions of the eight layers from outside and rebinds each wrapper
in every ``manirep.*`` namespace that holds the original (modules import
each other's functions by name, e.g. ``from .numkit import takagi``).

Each call made while a request is active opens a frame.  Most calls leave
one :class:`Span` (name, start, end, parent span, request id, self time);
the leaf functions in :data:`LEAVES`, which run tens of thousands of times
per run, only add to a count and a summed self time, because one span
object per call would multiply the tracing overhead.  Self time is a frame's
duration minus the durations of its direct child frames, so the self times
of one request add up exactly (in integer nanoseconds) to its wall time.
Calls made while no request is active (input generation, output checks)
pass straight through.
"""

from __future__ import annotations

import functools
import inspect
import re
import sys
import time
from collections import defaultdict

LAYERS = ("numkit", "groups", "gmodules", "weyl", "stabilizers", "embeddings", "classify", "cli")

#: called so often that a span object per call would dominate the overhead
LEAVES = frozenset({
    "numkit.frob", "numkit.require_square", "numkit.mat_to_json", "numkit.mat_from_json",
    "numkit.Mat.from_array", "numkit.Mat.to_array", "numkit.Mat.to_json", "numkit.Mat.from_json",
    "groups.contains", "groups.sample", "groups.group_dim", "groups.J2n", "groups.Ipq",
    "groups.sl", "groups.so", "groups.sp", "groups.su", "groups.so_pq", "groups.sp_compact",
    "groups.gl", "groups.orth", "groups.unitary",
    "gmodules.dact", "gmodules.act", "gmodules.contains", "gmodules.module_dim",
    "gmodules.real_dim",
    "weyl.weyl_dim", "weyl.rank_of",
    "embeddings.group", "embeddings.module", "embeddings.action",
    "embeddings.default_spectrum", "embeddings.minimality_advisory",
})

#: private functions traced because a per-layer metric is named after them
PRIVATE = {"stabilizers": ("_similarity_exact", "_similarity_numeric")}

#: methods of the JSON interchange type, traced as numkit functions
MAT_METHODS = ("from_array", "to_array", "to_json", "from_json")

_pc = time.perf_counter_ns


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "self_ns")

    def __init__(self, name, start, end, parent, request, self_ns):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.request = request
        self.self_ns = self_ns


def _svd_flops(args, kwargs, out):
    # singular values only (Golub and Van Loan): 4mn^2 - 4n^3/3 real flops
    # for m >= n; numerical_rank works in complex arithmetic, about 4x that
    shape = getattr(args[0], "shape", ())
    if len(shape) != 2:
        return 0.0
    m, n = max(shape), min(shape)
    return 4.0 * (4.0 * m * n * n - 4.0 * n ** 3 / 3.0)


#: per-call counters derived from arguments or results: name -> (counter, fn)
HOOKS = {
    "numkit.numerical_rank": ("numkit.svd_flops_est", _svd_flops),
    "embeddings.check_equivariance": (
        "embeddings.trials", lambda a, k, out: k.get("trials", a[1] if len(a) > 1 else 0)),
    "weyl.enumerate_irreps_below": ("weyl.weights_enumerated", lambda a, k, out: len(out)),
    "classify.enumerate_admissible": ("classify.targets", lambda a, k, out: len(out)),
    "numkit.Mat.from_json": ("numkit.json.entries", lambda a, k, out: out.rows * out.cols),
    "numkit.Mat.to_json": ("numkit.json.entries", lambda a, k, out: a[0].rows * a[0].cols),
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.leaf: dict[str, list[int]] = {}  # name -> [calls, self_ns]
        self.counters: dict[str, float] = defaultdict(float)
        self.request = None
        self.requests: list[tuple] = []  # (request id, wall ns, summed self ns)
        self._stack: list[list[int]] = []
        self._acc = 0
        self._next_id = 1
        self.wrapped: list[str] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function and rebind it across ``manirep.*``."""
        mods = {name: sys.modules[f"manirep.{name}"] for name in LAYERS}
        for layer, mod in mods.items():
            names = [n for n, obj in vars(mod).items()
                     if not n.startswith("_") and inspect.isfunction(obj)
                     and obj.__module__ == mod.__name__]
            names += PRIVATE.get(layer, ())
            for n in names:
                orig = getattr(mod, n)
                wrapper = self._wrap(f"{layer}.{n}", orig)
                for other in list(sys.modules.values()):
                    if getattr(other, "__name__", "").startswith("manirep"):
                        for attr, val in list(vars(other).items()):
                            if val is orig:
                                setattr(other, attr, wrapper)
        mat = mods["numkit"].Mat
        for n in MAT_METHODS:
            raw = mat.__dict__[n]
            if isinstance(raw, staticmethod):
                setattr(mat, n, staticmethod(self._wrap(f"numkit.Mat.{n}", raw.__func__)))
            else:
                setattr(mat, n, self._wrap(f"numkit.Mat.{n}", raw))

    def _wrap(self, name, fn):
        self.wrapped.append(name)
        tr = self
        leaf = name in LEAVES
        counter, hook = HOOKS.get(name, (None, None))
        stats = self.leaf.setdefault(name, [0, 0]) if leaf else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tr.request is None:
                return fn(*args, **kwargs)
            stack = tr._stack
            parent = stack[-1]
            if leaf:
                frame = [0, parent[1]]
            else:
                frame = [0, tr._next_id]
                tr._next_id += 1
            stack.append(frame)
            t0 = _pc()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = _pc()
                stack.pop()
                d = t1 - t0
                parent[0] += d
                self_ns = d - frame[0]
                tr._acc += self_ns
                if leaf:
                    stats[0] += 1
                    stats[1] += self_ns
                else:
                    tr.spans.append(Span(name, t0, t1, parent[1], tr.request, self_ns))
            if hook is not None:
                tr.counters[counter] += hook(args, kwargs, out)
            return out

        return wrapper

    # -- requests --------------------------------------------------------

    def run_request(self, rid, fn):
        """Run ``fn`` as request ``rid``; its root frame has span id 0."""
        root = [0, 0]
        self._stack = [root]
        self._acc = 0
        self.request = rid
        t0 = _pc()
        try:
            return fn()
        finally:
            t1 = _pc()
            self.request = None
            wall = t1 - t0
            self.requests.append((rid, wall, self._acc + wall - root[0]))

    # -- aggregation -----------------------------------------------------

    def totals(self) -> dict[str, list[int]]:
        """name -> [calls, self_ns] over every traced function."""
        out = {name: [0, 0] for name in self.wrapped}
        for s in self.spans:
            t = out[s.name]
            t[0] += 1
            t[1] += s.self_ns
        for name, (calls, self_ns) in self.leaf.items():
            out[name][0] += calls
            out[name][1] += self_ns
        return out

    def self_time_mismatches(self) -> int:
        """Requests whose summed self times differ from their wall time."""
        return sum(1 for _, wall, summed in self.requests if wall != summed)


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(.*)$")


def import_breakdown(stderr: str) -> dict[str, float]:
    """Fold ``python -X importtime`` output into per-layer import seconds."""
    out = {f"{layer}.import_s": 0.0 for layer in LAYERS}
    out.update({"import.sympy_s": 0.0, "import.scipy_s": 0.0, "import.numpy_s": 0.0})
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        self_s = int(m.group(1)) / 1e6
        mod = m.group(3).strip()
        top = mod.split(".")[0]
        if top == "manirep" and mod.count(".") == 1 and mod.split(".")[1] in LAYERS:
            out[f"{mod.split('.')[1]}.import_s"] += self_s
        elif top in ("sympy", "scipy", "numpy"):
            out[f"import.{top}_s"] += self_s
    return out


def summary(tracer: Tracer) -> dict:
    """Mergeable totals of one traced process."""
    return {
        "totals": tracer.totals(),
        "counters": dict(tracer.counters),
        "requests": len(tracer.requests),
        "self_time_mismatches": tracer.self_time_mismatches(),
    }


def merge(summaries: list[dict]) -> dict:
    out = {"totals": {}, "counters": defaultdict(float), "requests": 0, "self_time_mismatches": 0}
    for s in summaries:
        for name, (calls, self_ns) in s["totals"].items():
            t = out["totals"].setdefault(name, [0, 0])
            t[0] += calls
            t[1] += self_ns
        for k, v in s["counters"].items():
            out["counters"][k] += v
        out["requests"] += s["requests"]
        out["self_time_mismatches"] += s["self_time_mismatches"]
    out["counters"] = dict(out["counters"])
    return out


#: (metric, unit) in report order; every workload reports all of them
PER_LAYER = (
    [(f"{layer}.{m}", u) for layer in LAYERS for m, u in (("calls", "calls/req"), ("self_s", "s/req"))]
    + [
        ("cli.cmd.self_s", "s/req"),
        ("stabilizers.similarity_exact.self_s", "s/req"),
        ("stabilizers.similarity_exact.calls", "calls/req"),
        ("stabilizers.similarity_numeric.self_s", "s/req"),
        ("stabilizers.similarity_numeric.calls", "calls/req"),
        ("stabilizers.exact_share", "ratio"),
        ("stabilizers.intersect_stabilizer_dim.self_s", "s/req"),
        ("stabilizers.intersect_stabilizer_dim.calls", "calls/req"),
        ("numkit.numerical_rank.self_s", "s/req"),
        ("numkit.numerical_rank.calls", "calls/req"),
        ("numkit.svd_flops_est", "flop/req"),
        ("gmodules.dact.calls", "calls/req"),
        ("groups.sample.self_s", "s/req"),
        ("groups.sample.calls", "calls/req"),
        ("groups.contains.self_s", "s/req"),
        ("gmodules.act.calls", "calls/req"),
        ("gmodules.contains.self_s", "s/req"),
        ("embeddings.check_equivariance.self_s", "s/req"),
        ("embeddings.trials", "trials/req"),
        ("gmodules.basis.self_s", "s/req"),
        ("groups.real_condition_nullspace.self_s", "s/req"),
        ("gmodules.project.self_s", "s/req"),
        ("embeddings.tangent_dim.self_s", "s/req"),
        ("groups.lie_algebra_basis.self_s", "s/req"),
        ("groups.lie_algebra_basis.calls", "calls/req"),
        ("numkit.takagi.self_s", "s/req"),
        ("numkit.youla_skew.self_s", "s/req"),
        ("stabilizers.congruence.self_s", "s/req"),
        ("numkit.json.self_s", "s/req"),
        ("numkit.json.entries", "entries/req"),
        ("cli.output_bytes", "bytes/req"),
        ("weyl.weyl_dim.calls", "calls/req"),
        ("weyl.weights_enumerated", "weights/req"),
        ("weyl.weights_per_dim_call", "ratio"),
        ("classify.enumerate_admissible.self_s", "s/req"),
        ("classify.stabilizer_form.self_s", "s/req"),
        ("classify.targets", "targets/req"),
    ]
    + [(f"{layer}.import_s", "s") for layer in LAYERS]
    + [("import.sympy_s", "s"), ("import.scipy_s", "s"), ("import.numpy_s", "s"),
       ("trace.overhead_share", "ratio")]
)

_ALIASES = {
    "stabilizers.similarity_exact": ("stabilizers._similarity_exact",),
    "stabilizers.similarity_numeric": ("stabilizers._similarity_numeric",),
    "stabilizers.congruence": ("stabilizers.stabilizer_congruence_sym",
                               "stabilizers.stabilizer_congruence_skew"),
    "numkit.json": tuple(f"numkit.Mat.{m}" for m in MAT_METHODS)
    + ("numkit.mat_to_json", "numkit.mat_from_json"),
}


def layer_metrics(s: dict, imports: dict[str, float], overhead_share: float) -> dict[str, float]:
    """Per-request per-layer figures from a merged summary.

    ``cli.self_s`` is ``cli.main`` and its argument parser without the verb
    handlers, whose self time is ``cli.cmd.self_s``; the two add up to the
    whole cli layer.
    """
    tot, ctr = s["totals"], s["counters"]
    nreq = max(s["requests"], 1)

    def names(prefix):
        if prefix in _ALIASES:
            return _ALIASES[prefix]
        if prefix in LAYERS:
            return [n for n in tot if n.split(".")[0] == prefix]
        return (prefix,)

    def calls(prefix):
        return sum(tot.get(n, (0, 0))[0] for n in names(prefix))

    def self_s(prefix):
        return sum(tot.get(n, (0, 0))[1] for n in names(prefix)) / 1e9

    cmd = [n for n in tot if n.startswith("cli.cmd_")]
    out = {}
    for name, _ in PER_LAYER:
        prefix, _, field = name.rpartition(".")
        if name == "cli.self_s":
            v = (self_s("cli") - sum(tot[n][1] for n in cmd) / 1e9) / nreq
        elif name == "cli.cmd.self_s":
            v = sum(tot[n][1] for n in cmd) / 1e9 / nreq
        elif name == "stabilizers.exact_share":
            ex, nu = calls("stabilizers.similarity_exact"), calls("stabilizers.similarity_numeric")
            v = ex / (ex + nu) if ex + nu else 0.0
        elif name == "weyl.weights_per_dim_call":
            d = calls("weyl.weyl_dim")
            v = ctr.get("weyl.weights_enumerated", 0.0) / d if d else 0.0
        elif name in imports:
            v = imports[name]
        elif name == "trace.overhead_share":
            v = overhead_share
        elif field == "calls":
            v = calls(prefix) / nreq
        elif field == "self_s":
            v = self_s(prefix) / nreq
        else:
            v = ctr.get(name, 0.0) / nreq
        out[name] = float(v)
    return out
