"""Runs one workload for a fixed time and reports its metrics.

Untraced (``--trace 0``): whole passes run while another one fits in
``--seconds``, and until ``MIN_PASSES`` are done. Set-up runs in rounds, one
before each pass and one after the last, each repeating set-up for at least
``SETUP_ROUND_S``, so its samples span the same stretch of time as the
passes. Set-up runs in a child process: its outputs are files, and its memory
stays out of ``peak_rss_mb``. The end-to-end metrics are medians. Traced (``--trace 1``):
passes alternate untraced and traced, so the tracing overhead is measured in
the same run, then the layer probes run. Every pass is checked, and every
pass of one seed must write byte-identical evaluation files.

Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import traceback
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import probes
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
SETUP_ROUND_S = 1.0  # each set-up round repeats set-up for at least this long
MIN_PASSES = 2

# The last line's metrics and their units, by name.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}


def unit_of(metric: str) -> str:
    """Unit of a report-only key, from its name."""
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if "bytes" in metric:
        return "bytes"
    if metric.endswith(("ratio", "_wall")):
        return "ratio"
    if metric.endswith("_pct"):
        return "%"
    return "count"


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ.get(k, "unset") for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "DISTILLFUSE_THREADS")}
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
        "commit": _commit(), "seed": seed,
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path, **over) -> dict:
    """Set up, run passes for ``seconds``, check them; returns the record."""
    wl = workloads.WORKLOADS[name](seed, **over)
    setup_s: list[float] = []
    setup_rss: list[float] = []

    def setup_round() -> None:
        spent = 0.0
        while spent == 0.0 or spent < SETUP_ROUND_S:
            elapsed, rss = setup_in_child(wl, workloads.fresh(work / "setup"))
            setup_s.append(elapsed)
            setup_rss.append(rss)
            spent += elapsed

    passes, traced = [], []
    tracer = tracing.Tracer()
    start = perf_counter()
    while True:
        cycle_t0 = perf_counter()
        setup_round()
        is_traced = trace and len(passes) > len(traced)
        out = workloads.fresh(work / "pass")
        p = workloads.Pass()
        if is_traced:
            tracer.install()
        c0, t0 = process_time(), perf_counter()
        try:
            wl.run(p, out)
        finally:
            p.wall_s, p.cpu_s = perf_counter() - t0, process_time() - c0
            tracer.restore()
        p.check_artifacts()
        try:
            p.info = wl.check(p, out)
        except (OSError, ValueError, KeyError) as err:  # unreadable output fails the pass
            p.fail("check", f"{type(err).__name__}: {err}")
        p.digests = workloads.digests(out)
        (traced if is_traced else passes).append(p)
        done = len(passes) + len(traced) >= MIN_PASSES and (traced or not trace)
        # Stop when one more set-up round and pass would end past ``seconds``.
        now = perf_counter()
        if done and now + (now - cycle_t0) - start > seconds:
            break
    setup_round()
    return {"setup_s": setup_s, "setup_peak_rss_mb": max(setup_rss), "passes": passes,
            "traced": traced, "tracer": tracer, "missing": tracer.missing}


def setup_in_child(wl, work: Path) -> tuple[float, float]:
    """Runs ``wl.setup(work)`` in a forked child and takes over the workload's
    state from it; returns the set-up time and the child's peak RSS in MB."""
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_setup_child, args=(wl, work, send))
    child.start()
    send.close()
    try:
        elapsed, rss, state = recv.recv()
    except EOFError:
        state = "set-up child exited without a result"
    finally:
        recv.close()
        child.join()
    if isinstance(state, str):
        raise RuntimeError(f"set-up of {wl.name} failed:\n{state}")
    vars(wl).update(state)
    return elapsed, rss


def _setup_child(wl, work: Path, conn) -> None:
    try:
        t0 = perf_counter()
        wl.setup(work)
        elapsed = perf_counter() - t0
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        conn.send((elapsed, rss, vars(wl)))
    except BaseException:  # the parent raises it
        conn.send((0.0, 0.0, traceback.format_exc()))
    finally:
        conn.close()


def end_to_end(rec: dict) -> dict[str, float]:
    passes = rec["passes"]
    out = {
        "setup_s": statistics.median(rec["setup_s"]),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    stages = [p.stage_s() for p in passes]
    for stage in workloads.STAGES:
        if stage in stages[0]:
            out[f"{stage}_s"] = statistics.median(s[stage] for s in stages)
    return out


def per_layer(rec: dict, seed: int) -> dict[str, float]:
    passes, traced = rec["passes"], rec["traced"]
    out = tracing.layer_metrics(rec["tracer"].spans, len(traced))
    out.update(probes.run_probes(seed))
    out["process.cpu_to_wall"] = sum(p.cpu_s for p in passes) / sum(p.wall_s for p in passes)
    out["trace.overhead_ratio"] = (statistics.median(p.wall_s for p in traced)
                                   / statistics.median(p.wall_s for p in passes))
    return out


def outcome(rec: dict) -> dict:
    every = rec["passes"] + rec["traced"]
    attempted = sum(len(p.op_s) for p in every)
    failed = sum(len(p.errors) for p in every)
    distinct = {json.dumps(p.digests, sort_keys=True) for p in every}
    return {
        "ops_attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted,
        "errors": sorted({f"{op}: {msg}" for p in every for op, msg in p.errors.items()}),
        "digests_agree": len(distinct) == 1,
        "digests": every[0].digests,
        "info": every[0].info,
        "passes": len(rec["passes"]), "traced_passes": len(rec["traced"]),
        "untraced_layers": rec["missing"],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns (metrics, report) for one workload."""
    work = ROOT / ".perfbench-work" / f"{name}-{os.getpid()}"
    try:
        rec = measure(name, seed, seconds, trace, work)
        report = outcome(rec)
        report["env"] = environment(seed)
        if trace:
            layers = per_layer(rec, seed)
            report["layers"] = layers
            metrics = {m: layers[m] for m in PER_LAYER}
        else:
            e2e = end_to_end(rec)
            report["stages"] = e2e
            report["setup_peak_rss_mb"] = rec["setup_peak_rss_mb"]
            report["samples"] = {"setup_s": rec["setup_s"],
                                 "passes": [{"wall_s": p.wall_s, **p.stage_s()} for p in rec["passes"]]}
            metrics = {m: e2e[m] for m in END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return metrics, report


def print_table(name: str, metrics: dict, report: dict) -> None:
    shown = {**report.get("stages", {}), **report.get("layers", {}), **metrics}
    print(f"# {name}: {report['passes']} passes, {report['traced_passes']} traced, "
          f"{report['failed']}/{report['ops_attempted']} operations failed")
    for key in sorted(shown):
        unit = END_TO_END.get(key) or PER_LAYER.get(key) or unit_of(key)
        print(f"{key:40s} {shown[key]:>16.6g} {unit}")
    for err in report["errors"]:
        print(f"FAILED {err}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        metrics, report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_table(name, metrics, report)
        print(json.dumps({"workload": name, "report": report}), flush=True)
        results[name] = (metrics, report)

    correct = all(r["failed"] == 0 and r["digests_agree"] for _, r in results.values())
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["ops_attempted"] for _, r in results.values()),
        "failed": sum(r["failed"] for _, r in results.values()),
        "metrics": {(k if len(names) == 1 else f"{n}.{k}"): {"value": v, "unit": units[k]}
                    for n, (m, _) in results.items() for k, v in m.items()},
    }))
    return 0
