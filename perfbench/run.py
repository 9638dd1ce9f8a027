"""Run one workload of the benchmark and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload fig-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` runs the workload untraced for ``--seconds``, then the same
number of rounds again with the span tracer installed, and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each metric a ``{"value", "unit"}`` pair).  The lines before
it give the exact per-cell counts, the set-up samples and the figures
that are not gated (see README.md).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space inside the checkout (journals, spans); removed at exit.
WORK_ROOT = ROOT / ".perfbench-work"
#: Fresh interpreters timed from start to first cell, half before and
#: half after the measured phase; setup_s is their median.
SETUP_PROBES = 6

#: Per-layer time metrics: metric -> span name.
LAYER_SPANS = {
    "datasets.build_s": "datasets.build",
    "system.soc_build_s": "system.soc_build",
    "vm.fill_s": "vm.fill",
    "kernels.bind_s": "kernels.bind",
    "kernels.check_s": "kernels.check",
    "compiler.plan_s": "compiler.plan",
    "sim.run_s": "sim.run",
}
#: Layers every workload passes through; their self times are gated
#: metrics.  The others are only printed, since a workload that never
#: enters them would report a constant 0.
SELF_LAYERS = ("harness", "datasets", "system", "vm", "kernels", "compiler",
               "sim")
DETAIL_SPANS = {"cache.get_s": "cache.get", "cache.put_s": "cache.put",
                "checkpoint.save_s": "checkpoint.save"}
DETAIL_SELF_LAYERS = ("orchestrator", "service", "cache", "checkpoint")
#: Counts summed from each simulated cell's stats.
STAT_COUNTS = {
    "cpu.instructions": r"core\d+\.instructions",
    "mem.l2_misses": r"l2(\.\d+)?\.misses",
    "mem.dram_reads": r"dram(\.\d+)?\.reads",
    "maple.produces": r"maple\d+\.produces",
    "maple.consume_stalls": r"maple\d+\.consume_stalls",
    "noc.packets": r"noc\.\w+\.packets",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig-sweep", "bfs-long", "service-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured phase; whole rounds "
                             "run until it has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    parser.add_argument("--negative-control", action="store_true",
                        help="corrupt one result word of every spmv/lima "
                             "(bfs/lima) cell before its check")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: List[float]):
    """(value, percentile, samples) of the highest percentile with at
    least ten samples beyond it; None below forty samples."""
    if len(values) < 40:
        return None
    ordered = sorted(values)
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def probe_setup(args, workdir: Path) -> float:
    """Seconds from starting a fresh interpreter to the workload being
    ready for its first cell."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, PERFBENCH_WORK=str(workdir))
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
    if line.strip() != b"SETUP-READY" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (rc={proc.returncode})")
    return elapsed


def run_rounds(workload, seconds: float, count: int = 0) -> list:
    """Whole rounds until ``seconds`` of them have been measured, or
    exactly ``count`` rounds."""
    rounds = []
    while True:
        rounds.append(workload.run_round())
        # A round's garbage must not raise the next round's peak RSS.
        gc.collect()
        if count and len(rounds) >= count:
            return rounds
        if not count and sum(r.seconds for r in rounds) >= seconds:
            return rounds


def count_check(rounds, traced_cells) -> tuple:
    """Every record of one cell must carry identical counts."""
    seen: Dict[str, Dict[str, int]] = {}
    errors = []

    def agree(key, label, counts):
        known = seen.setdefault(key, {"label": label})
        for name, value in counts.items():
            if known.setdefault(name, value) != value:
                errors.append(f"{label}: {name} {value} != {known[name]}")
    for r in rounds:
        for cell in r.cells:
            agree(cell.key, cell.label, cell.counts)
    for key, requests, lookups in traced_cells:
        agree(key, key, {"port_requests": requests, "lookups": lookups})
    return errors, seen


def print_counts(seen: Dict[str, Dict[str, int]]) -> None:
    for key in sorted(seen, key=lambda k: seen[k]["label"]):
        counts = " ".join(f"{name}={value}" for name, value in
                          seen[key].items() if name != "label")
        print(f"count {key[:12]} {seen[key]['label']}: {counts}")


def end_to_end(workload, rounds, setup_samples) -> Dict[str, Any]:
    """Rates are the median round's, so one slow stretch of a run moves
    them less; the cell latency is the median over every cell."""
    from workloads import stat_sum

    def kips(r):
        instructions = sum(stat_sum(c.stats, STAT_COUNTS["cpu.instructions"])
                           for c in r.cells if c.simulated)
        return instructions / r.seconds / 1e3

    metrics = {
        "setup_s": (median(setup_samples), "s"),
        "cells_per_s": (median([len(r.cells) / r.seconds for r in rounds]),
                        "1/s"),
        "cell_p50_ms": (1e3 * median([c.latency_s for r in rounds
                                      for c in r.cells]), "ms"),
        "sim_kips": (median([kips(r) for r in rounds]), "kinst/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def per_layer(workload, untraced, traced, exports) -> tuple:
    from tracing import summarize
    from workloads import stat_sum

    rounds = len(traced)
    summary = summarize(exports)
    totals, self_times = summary["totals"], summary["self"]
    cells = [cell for r in traced for cell in r.cells if cell.simulated]
    traced_cells = [c for export in exports for c in export["cells"]]
    metrics: Dict[str, tuple] = {}
    for metric, span in LAYER_SPANS.items():
        metrics[metric] = (totals.get(span, 0.0) / rounds, "s")
    events = sum(c.counts["events"] for c in cells) / rounds
    metrics["sim.events"] = (events, "count")
    metrics["sim.events_per_s"] = (events / metrics["sim.run_s"][0], "1/s")
    metrics["sim.port_requests"] = (
        sum(c[1] for c in traced_cells) / rounds, "count")
    metrics["vm.functional_lookups"] = (
        sum(c[2] for c in traced_cells) / rounds, "count")
    for metric, pattern in STAT_COUNTS.items():
        metrics[metric] = (sum(stat_sum(c.stats, pattern) for c in cells)
                           / rounds, "count")
    for name in ("sims_executed", "coalesced", "served_cached"):
        metrics[f"service.{name}"] = (
            sum(r.extra.get("health", {}).get(name, 0) for r in traced)
            / rounds, "count")
    for layer in SELF_LAYERS:
        metrics[f"self.{layer}_s"] = (self_times.get(layer, 0.0) / rounds, "s")
    untraced_s = sum(r.seconds for r in untraced) / len(untraced)
    traced_s = sum(r.seconds for r in traced) / rounds
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")

    reports = [rep for export in exports for rep in export["reports"]]
    walls = [w for rep in reports for w in rep["cell_walls"]]
    submits = [s for r in traced for s in r.extra.get("submit_s", [])]
    detail = {
        "rounds": rounds,
        "untraced_round_s": untraced_s,
        "traced_round_s": traced_s,
        "trace_overhead_share": traced_s / untraced_s - 1.0,
        "lanes": workload.lanes,
        "spans": summary["spans"],
        "self_s_total": sum(self_times.values()),
        "orchestrator.overhead_s": sum(
            min(rep["jobs"], rep["executed"]) * rep["wall_seconds"]
            - rep["sim_seconds"] for rep in reports) / rounds,
        "orchestrator.cell_s": median(walls),
        "service.submit_ms": 1e3 * median(submits),
    }
    for metric, span in DETAIL_SPANS.items():
        detail[metric] = totals.get(span, 0.0) / rounds
    for layer in DETAIL_SELF_LAYERS:
        detail[f"self.{layer}_s"] = self_times.get(layer, 0.0) / rounds
    metrics_out = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in metrics.items()}
    return metrics_out, detail, traced_cells


def measure(args, workdir: Path) -> int:
    from workloads import WORKLOADS, install_negative_control

    workload = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
    if args.setup_probe:
        workload.probe()
        print("SETUP-READY", flush=True)
        return 0

    if args.negative_control:
        install_negative_control("bfs" if args.workload == "bfs-long"
                                 else "spmv", "lima")
        workload.negative_control = True
    probes = 0 if args.trace else SETUP_PROBES // 2
    setup_samples = [probe_setup(args, workdir / f"probe-{n}")
                     for n in range(probes)]
    workload.setup()
    untraced = run_rounds(workload, args.seconds)
    setup_samples += [probe_setup(args, workdir / f"probe-{probes + n}")
                      for n in range(probes)]
    errors = workload.verify(untraced)
    traced: list = []
    traced_cells: list = []
    if args.trace:
        from tracing import Tracer, collect, install

        tracer = Tracer(dump_dir=workdir / "spans")
        install(tracer)
        workload.tracer = tracer
        start = time.perf_counter()
        workload.setup()
        traced = run_rounds(workload, args.seconds, count=len(untraced))
        traced_wall = time.perf_counter() - start
        exports = collect(tracer)
        metrics, detail, traced_cells = per_layer(workload, untraced, traced,
                                                  exports)
        detail["traced_wall_s"] = traced_wall
        errors += workload.verify(traced)
    else:
        metrics = end_to_end(workload, untraced, setup_samples)
        latencies = [c.latency_s for r in untraced for c in r.cells]
        detail = {"rounds": len(untraced),
                  "measured_s": sum(r.seconds for r in untraced),
                  "round_cells_per_s": [len(r.cells) / r.seconds
                                        for r in untraced],
                  "setup_samples_s": setup_samples}
        worst = tail(latencies)
        if worst is not None:
            detail["cell_tail_ms"] = {"value": 1e3 * worst[0],
                                      "percentile": worst[1],
                                      "samples": worst[2]}

    rounds = untraced + traced
    count_errors, seen = count_check(rounds, traced_cells)
    errors += count_errors + [e for r in rounds for e in r.errors]
    print_counts(seen)
    for failure in [f for r in rounds for f in r.failures][:5]:
        print(f"failed: {failure[:300]}")
    for error in errors[:20]:
        print(f"error: {error}")
    print("detail: " + json.dumps(detail, sort_keys=True))
    result = {"correct": not errors,
              "attempted": sum(r.attempted for r in rounds),
              "failed": sum(r.failed for r in rounds),
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if not errors else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: the repro sources (src/repro) are not in this "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    if args.setup_probe:
        return measure(args, Path(os.environ["PERFBENCH_WORK"]))
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    from workloads import confine_temp_files
    confine_temp_files(workdir)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    raise SystemExit(main())
