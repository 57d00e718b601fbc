"""Summarise run records into medians and quartiles per workload and metric.

    python3 bench/summarize.py [RECORDS_DIR] [--out FILE]

Reads the records ``run.py`` leaves in ``bench/.out/records/`` (one per
workload, seed and trace setting) and prints, for every workload and
metric, the median, the first and third quartiles and the quartile spread
as a share of the median, over the seeds found.  This is how the recorded
baseline in ``baseline.json`` was made.
"""

import argparse
import json
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarize(records: list[dict]) -> dict:
    out: dict = {}
    for rec in sorted(records, key=lambda r: (r["workload"], r["trace"], r["seed"])):
        w = out.setdefault(rec["workload"], {}).setdefault(
            "traced" if rec["trace"] else "timed", {"seeds": [], "metrics": {}})
        w["seeds"].append(rec["seed"])
        for name, m in rec["metrics"].items():
            w["metrics"].setdefault(name, {"unit": m["unit"], "values": []})["values"].append(
                m["value"])
    for w in out.values():
        for part in w.values():
            for m in part["metrics"].values():
                v = m.pop("values")
                med = statistics.median(v)
                q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
                m.update({"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med if med else 0.0, "runs": len(v)})
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("records", nargs="?", default=str(HERE / ".out" / "records"))
    ap.add_argument("--out")
    args = ap.parse_args()
    records = [json.loads(p.read_text()) for p in sorted(Path(args.records).glob("*.json"))]
    if not records:
        raise SystemExit(f"no records in {args.records}")
    first = records[0]
    doc = {"machine": first["machine"], "stack": first["stack"],
           "seconds": first["seconds"], "workloads": summarize(records)}
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    for wl, parts in doc["workloads"].items():
        timed = parts.get("timed")
        if timed:
            print(f"{wl} (seeds {timed['seeds']})")
            for name, m in timed["metrics"].items():
                print(f"  {name:18s} median {m['median']:12.5g} {m['unit']:4s} "
                      f"q1 {m['q1']:12.5g} q3 {m['q3']:12.5g} spread {m['spread']:.3f}")


if __name__ == "__main__":
    main()
