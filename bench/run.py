"""manirep benchmark: one workload, one seed, timed or traced.

    python3 bench/run.py --workload census|scale|cli_cold
                         --seed N --seconds S --trace 0|1

Run it from the repository root; it serves the library from ``src/``.
``BENCHMARK.json`` lists ``census`` and ``scale``; ``cli_cold`` runs by hand.

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
(``SETUP_SAMPLES`` fresh interpreters import ``manirep.cli`` and serve the
workload's warm-up pass; the median is reported), then one worker serves
whole cycles of seeded requests for ``--seconds``.  ``--trace 1`` serves
the same requests twice in two fresh workers, untraced for half the time
and then traced, checks that both give byte-identical outputs, and reports
the per-layer metrics and the tracing overhead.

Every request is checked by an oracle; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A copy of the run, with the machine and the library stack,
is written to ``bench/.out/records/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"

#: fresh interpreters whose set-up time is measured per run (the worker is one)
SETUP_SAMPLES = 3
#: one BLAS thread: closed-loop single-client load on matrices of at most a
#: few hundred rows, and steadier timings on a shared machine
BLAS_THREADS = 1
#: a run must end within 180 s; stop its children before that
RUN_DEADLINE_S = 170.0
TAIL_BEYOND = 10

WORKLOADS = ("census", "scale", "cli_cold")


class RunFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


class Spawner:
    """Starts workers, times their set-up and stops them by the run deadline."""

    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.env = child_env()
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.count = 0

    def worker(self, mode: str, *, seconds=None, cycles=None, importtime=False):
        """Run one worker; returns (set-up seconds, result dict, stderr text)."""
        self.count += 1
        out = self.workdir / f"result{self.count}.json"
        err = self.workdir / f"stderr{self.count}.txt"
        cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
            str(HERE / "worker.py"), "--workload", self.args.workload,
            "--seed", str(self.args.seed), "--mode", mode,
            "--workdir", str(self.workdir), "--out", str(out)]
        cmd += ["--seconds", str(seconds)] if seconds is not None else []
        cmd += ["--cycles", str(cycles)] if cycles is not None else []
        with open(err, "w") as errf:
            t0 = time.perf_counter()
            # own session: a worker killed at the deadline takes its children along
            p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=errf, text=True,
                                 env=self.env, cwd=ROOT, start_new_session=True)
            try:
                ready, _, _ = select.select([p.stdout], [], [], self._left())
                line = p.stdout.readline() if ready else ""
                setup = time.perf_counter() - t0
                rc = p.wait(timeout=self._left())
            except subprocess.TimeoutExpired:
                rc = None
            finally:
                if p.poll() is None:
                    os.killpg(p.pid, signal.SIGKILL)
                    p.wait()
                p.stdout.close()
        stderr = err.read_text()
        if line.strip() != "ready" or rc != 0:
            raise RunFailed(f"worker {mode} failed (exit {rc}):\n{stderr[-4000:]}")
        result = json.loads(out.read_text()) if mode != "setup" else None
        return setup, result, stderr

    def _left(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise RunFailed(f"run exceeded {RUN_DEADLINE_S:.0f} s")
        return left


# ---------------------------------------------------------------------------
# metrics


def latency_metrics(records: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics of one timed pass, and the notes behind them."""
    ok = sorted(r["ns"] / 1e6 for r in records if r["ok"]) or sorted(
        r["ns"] / 1e6 for r in records)
    n = len(ok)
    # the highest percentile with at least TAIL_BEYOND samples beyond it
    if n > TAIL_BEYOND:
        tail, level = ok[n - TAIL_BEYOND - 1], (n - TAIL_BEYOND) / n
    else:
        tail, level = ok[-1], 1.0
    busy_s = sum(ok) / 1e3
    metrics = {
        "latency_p50_ms": statistics.median(ok),
        "latency_tail_ms": tail,
        "throughput_rps": n / busy_s,
    }
    notes = {"requests_ok": n, "tail_level": level}
    return metrics, notes


def failed(records: list[dict]) -> int:
    return sum(1 for r in records if not r["ok"])


def machine() -> dict:
    commit = "unknown (not a git checkout)"
    try:
        # the ceiling keeps git from reading a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10, env=env)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"commit": commit, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "platform": platform.platform(), "blas_threads_requested": BLAS_THREADS}


def per_layer_names() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer"]]


def timed_run(args, sp: Spawner) -> dict:
    setups = [sp.worker("setup")[0] for _ in range(SETUP_SAMPLES - 1)]
    setup, res, _ = sp.worker("run", seconds=args.seconds)
    setups.append(setup)
    records = res["records"]
    metrics, notes = latency_metrics(records)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = res["peak_rss_mb"]
    n = len(records)
    units = {"setup_s": "s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
             "throughput_rps": "1/s", "peak_rss_mb": "MiB"}
    samples = {"setup_s": len(setups), "latency_p50_ms": notes["requests_ok"],
               "latency_tail_ms": notes["requests_ok"], "throughput_rps": notes["requests_ok"],
               "peak_rss_mb": 1}
    return {
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "samples": samples,
        "extra": {"failed_share": failed(records) / max(n, 1),
                  "tail_level": notes["tail_level"], "cycles": res["cycles"],
                  "timed_s": res["elapsed_s"], "setup_samples_s": setups,
                  "kinds": dict(Counter(r["kind"] for r in records))},
        "attempted": n,
        "failed": failed(records),
        "stack": res["stack"],
        "errors": [r["error"] for r in records if r["error"]][:5],
        "requests": [[r["kind"], r["ns"] / 1e6, r["ok"]] for r in records],
    }


def traced_run(args, sp: Spawner) -> dict:
    _, base, _ = sp.worker("run", seconds=args.seconds / 2)
    cold = args.workload == "cli_cold"
    _, traced, stderr = sp.worker("traced", cycles=base["cycles"], importtime=not cold)
    b, t = base["records"], traced["records"]
    same = [x["digest"] is not None and x["digest"] == y["digest"] for x, y in zip(b, t)]
    mismatched = len(t) - sum(same)
    overhead = sum(r["ns"] for r in t) / sum(r["ns"] for r in b) - 1.0
    imports = traced["imports"] if cold else tracer.import_breakdown(stderr)
    import_samples = len(t) if cold else 1
    summary = traced["trace"]
    metrics = tracer.layer_metrics(summary, imports, overhead)
    units = dict(tracer.PER_LAYER)
    names = per_layer_names()
    self_test = {
        "outputs_identical": len(b) == len(t) and mismatched == 0,
        "self_times_add_up": summary["self_time_mismatches"] == 0
        and summary["requests"] == len(t),
        "all_metrics_present": sorted(names) == sorted(metrics),
    }
    return {
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in names if k in metrics},
        "samples": {k: (import_samples if "import" in k else len(t)) for k in metrics},
        "extra": {"self_test": self_test, "traced_requests": len(t),
                  "spans": traced.get("spans"), "cycles": base["cycles"],
                  "time_waited": "none: every layer runs single-threaded with no queues"},
        "attempted": len(b) + len(t),
        "failed": failed(b) + failed(t) + sum(1 for x, s in zip(t, same) if x["ok"] and not s),
        "self_test_ok": all(self_test.values()),
        "stack": traced["stack"],
        "errors": [r["error"] for r in b + t if r["error"]][:5],
    }


def report(args, run: dict, meta: dict) -> None:
    print(f"manirep benchmark  workload={args.workload}  seed={args.seed}  "
          f"seconds={args.seconds}  trace={args.trace}")
    print(f"machine: {meta['cpu']}, nproc={meta['nproc']}, commit {meta['commit']}")
    st = run["stack"]
    print(f"stack: python {st['python']}, numpy {st['numpy']}, scipy {st['scipy']}, "
          f"sympy {st['sympy']}, BLAS {st['blas']['name']} {st['blas']['version']} "
          f"threads={st['blas']['threads']}")
    print("load: closed loop, one client, one process")
    print(f"{'metric':48s} {'value':>14s} {'unit':12s} samples")
    for name, m in run["metrics"].items():
        print(f"{name:48s} {m['value']:14.6g} {m['unit']:12s} {run['samples'][name]}")
    if args.trace == 0:
        ex = run["extra"]
        print(f"{'failed_share':48s} {ex['failed_share']:14.6g} {'ratio':12s} {run['attempted']}")
        tail = (f"the {100 * ex['tail_level']:.1f}th percentile ({TAIL_BEYOND} samples beyond it)"
                if ex["tail_level"] < 1 else f"the maximum (at most {TAIL_BEYOND} samples)")
        print(f"latency_tail_ms is {tail}; {ex['cycles']} cycles in {ex['timed_s']:.1f} s; "
              f"request mix {ex['kinds']}")
    else:
        ex = run["extra"]
        print(f"self-test: {ex['self_test']}")
        print(f"time waited: {ex['time_waited']}")
    for e in run["errors"]:
        print(f"error: {e}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "manirep" / "cli.py").is_file():
        print(f"no library source at {ROOT / 'src' / 'manirep'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        sp = Spawner(args, workdir)
        run = traced_run(args, sp) if args.trace else timed_run(args, sp)
    except RunFailed as exc:
        print(str(exc), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = machine()
    correct = run["failed"] == 0 and run.get("self_test_ok", True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": meta, **run}
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    report(args, run, meta)
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": run["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
