"""Alternating parent/change benchmark pairs, summarized per metric.

    python tools/pairs.py --parent DIR --change DIR --workload W --pairs N \\
        [--seconds S] [--trace 0|1] [--out BENCH_n.json]

Pair i runs ``python3 perfbench/run.py --workload W --seed i --seconds S
--trace T`` in each checkout, each from its own directory: the parent first in
even pairs, the change first in odd ones, so drift over the session hits both
sides alike. Per metric the summary gives both sides' quartiles, the
relative median delta, the pairs the change won and lost (ties count for
neither side) and whether the change's median is better than the parent's by
more than the parent's interquartile range. It also reports whether each
pair's evaluation-file digests agree. Each untraced run's row keeps the
samples behind its medians (every ``setup_s`` and each pass's wall and stage
times) and its ``setup_peak_rss_mb``.

Untraced runs are summarized on the end-to-end and per-stage metrics, traced
runs on the per-layer ones. Which way is better comes from the parent's
``BENCHMARK.json``; a metric it does not declare is better lower. With
``--out`` the result is merged into that JSON file under ``workloads`` (or
``traced``) and the workload's name, so one file can hold every workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), linearly interpolated between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(parent: list[float], change: list[float], better: str = "lower") -> dict:
    """Compare paired samples: ``parent[i]`` and ``change[i]`` share a seed."""
    if len(parent) != len(change) or not parent:
        raise ValueError(f"need equally many paired values, got {len(parent)} and {len(change)}")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gap = cm - pm
    return {
        "parent": {"q1": p1, "median": pm, "q3": p3},
        "change": {"q1": c1, "median": cm, "q3": c3},
        "median_delta": gap / pm if pm else None,
        "change_better_in_pairs": f"{wins}/{len(parent)}",
        "change_worse_in_pairs": f"{losses}/{len(parent)}",
        "median_gap": gap,
        "parent_iqr": p3 - p1,
        "median_gap_exceeds_parent_iqr": sign * -gap > p3 - p1,
    }


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in ``checkout``; returns its workload report and its
    summary line, both parsed from the JSON lines it prints."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    lines = [json.loads(ln) for ln in proc.stdout.splitlines() if ln.startswith("{")]
    report = next(ln["report"] for ln in lines if ln.get("workload") == workload)
    summary = next(ln for ln in lines if "correct" in ln)
    return {"report": report, "correct": summary["correct"]}


def _metrics(run: dict, trace: int) -> dict[str, float]:
    return run["report"]["layers" if trace else "stages"]


def _directions(checkout: Path) -> dict[str, str]:
    declared = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["better"]
            for m in declared.get("end_to_end", []) + declared.get("per_layer", [])}


def collect(parent: Path, change: Path, workload: str, pairs: int, seconds: float,
            trace: int, log=print) -> dict:
    """Run the pairs and return the workload's record."""
    runs = []
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        out = {}
        for side in order:
            out[side] = run_once(parent if side == "parent" else change, workload, i,
                                 seconds, trace)
            log(f"{workload} pair {i} {side}: "
                f"wall_s={out[side]['report'].get('stages', {}).get('wall_s', '-')}")
        runs.append({"pair": i, "seed": i, "first": order[0], **out})
    return build_record(runs, trace, _directions(parent))


def build_record(runs: list[dict], trace: int, directions: dict[str, str]) -> dict:
    """The summary of paired runs as written to the output file."""
    names = [k for k in _metrics(runs[0]["parent"], trace)
             if all(k in _metrics(r[s], trace) for r in runs for s in ("parent", "change"))]
    summary = {
        k: summarize([_metrics(r["parent"], trace)[k] for r in runs],
                     [_metrics(r["change"], trace)[k] for r in runs],
                     directions.get(k, "lower"))
        for k in names
    }
    rows = []
    for r in runs:
        row = {"pair": r["pair"], "seed": r["seed"], "first": r["first"]}
        for side in ("parent", "change"):
            rep, metrics = r[side]["report"], _metrics(r[side], trace)
            row[side] = {**{k: metrics[k] for k in names},
                         "passes": rep["passes"], "failed_ratio": rep["failed_ratio"],
                         "correct": r[side]["correct"],
                         **{k: rep[k] for k in ("setup_peak_rss_mb", "samples") if k in rep}}
        row["digests_equal"] = r["parent"]["report"]["digests"] == r["change"]["report"]["digests"]
        rows.append(row)
    return {
        "pairs": len(runs),
        "summary": summary,
        "failed_ratio_max": max(row[s]["failed_ratio"] for row in rows for s in ("parent", "change")),
        "correct_all_runs": all(row[s]["correct"] for row in rows for s in ("parent", "change")),
        "digests_equal_all_pairs": all(row["digests_equal"] for row in rows),
        "digests": runs[0]["parent"]["report"]["digests"],
        "env": {s: runs[0][s]["report"]["env"] for s in ("parent", "change")},
        "runs": rows,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="JSON file to merge the record into")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    record = collect(args.parent.resolve(), args.change.resolve(), args.workload,
                     args.pairs, args.seconds, args.trace,
                     log=lambda msg: print(msg, file=sys.stderr, flush=True))
    for name, s in record["summary"].items():
        print(f"{name:40s} parent {s['parent']['median']:>12.6g}  change "
              f"{s['change']['median']:>12.6g}  better in {s['change_better_in_pairs']:>5s}  "
              f"gap > parent IQR: {s['median_gap_exceeds_parent_iqr']}")
    print(f"digests equal in every pair: {record['digests_equal_all_pairs']}; "
          f"max failed_ratio {record['failed_ratio_max']}")
    if args.out:
        doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
        doc.setdefault("traced" if args.trace else "workloads", {})[args.workload] = record
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
