"""The benchmark's three workloads: fig-sweep, bfs-long, service-mixed.

Each workload builds its inputs from the seed in :meth:`setup`, runs
whole rounds of the same operations in :meth:`run_round`, and checks
what a round produced in :meth:`verify` against computations made apart
from the simulator.  A round reports every cell it ran (latency, and the
exact counts the self-check compares), how many operations it attempted
and how many failed, and the host seconds of its measured phase.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import multiprocessing.heap
import os
import queue
import random
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

# Calls the tracer times go through their modules (``techniques.run_workload``)
# so that its wrappers, installed later, apply to them.
from repro.datasets.graphs import Graph, power_law_graph
from repro.harness import figures, techniques
from repro.harness.orchestrator import (
    Orchestrator, OrchestratorError, RunSpec, execute_spec, spec_key,
)
from repro.harness.service import spec_from_wire
from repro.kernels import ALL_WORKLOADS
from repro.params import FPGA_CONFIG

HERE = Path(__file__).resolve().parent

#: The loop kernels of the figure sweep (BFS cells are bfs-long's).
FIG_APPS = ("sdhp", "spmm", "spmv")
#: Result array each kernel's check reads (the negative control's target).
RESULT_ARRAYS = {"spmv": "y", "sdhp": "out", "spmm": "t"}


@dataclass
class Cell:
    """One simulated or served cell of a round."""

    key: str
    label: str
    latency_s: float
    #: True when this cell's simulation ran in this round (not coalesced
    #: onto another job or served from a cache).
    simulated: bool
    #: Exact counts: cycles, events, instructions, noc_packets, and
    #: port_requests where the workload holds the simulated SoC.
    counts: Dict[str, int]
    stats: Dict[str, float]


@dataclass
class Round:
    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    cells: List[Cell] = field(default_factory=list)
    #: Correctness errors on operations that did not fail.
    errors: List[str] = field(default_factory=list)
    #: What went wrong in each failed operation.
    failures: List[str] = field(default_factory=list)
    #: Workload-specific measurements (service counters, submit times).
    extra: Dict[str, Any] = field(default_factory=dict)


def confine_temp_files(directory: Path) -> None:
    """Keep this process's temporary files, and its children's, inside
    ``directory``: ``TMPDIR`` for ``tempfile``, and no ``/dev/shm`` for the
    shared memory of ``multiprocessing`` (the orchestrator's heartbeats)."""
    os.environ["TMPDIR"] = str(directory)
    tempfile.tempdir = None  # re-read TMPDIR on next use
    multiprocessing.heap.Arena._dir_candidates = []


def stat_sum(stats: Dict[str, float], pattern: str) -> int:
    regex = re.compile(pattern)
    return int(sum(value for key, value in stats.items()
                   if regex.fullmatch(key)))


def counts_of(cycles: int, events: int, stats: Dict[str, float]) -> Dict[str, int]:
    return {"cycles": int(cycles), "events": int(events),
            "instructions": stat_sum(stats, r"core\d+\.instructions"),
            "noc_packets": stat_sum(stats, r"noc\.\w+\.packets")}


def check_cell(cell: Cell, errors: List[str]) -> None:
    for name in ("cycles", "events", "instructions"):
        if cell.counts[name] <= 0:
            errors.append(f"{cell.label}: {name} = {cell.counts[name]}")


def install_negative_control(workload: str, technique: str) -> None:
    """Overwrite one word of the result array, through ``SimArray.write``,
    before the check of every ``workload``/``technique`` cell.

    Installed before any worker forks, like the tracer, so orchestrator
    and service workers corrupt their cells too.  The benchmark's own
    tests use it to show a wrong result is caught and counted as failed.
    """
    armed = threading.local()
    run_workload = techniques.run_workload

    def arming_run_workload(name, tech, *args, **kwargs):
        armed.on = (name, tech) == (workload, technique)
        try:
            return run_workload(name, tech, *args, **kwargs)
        finally:
            armed.on = False
    techniques.run_workload = arming_run_workload

    cls = ALL_WORKLOADS[workload]
    bind = cls.bind

    def corrupting_bind(self, soc, aspace, dataset, *args, **kwargs):
        binding = bind(self, soc, aspace, dataset, *args, **kwargs)
        if getattr(armed, "on", False):
            array = (binding.dist if workload == "bfs"
                     else binding.runtime.arrays[RESULT_ARRAYS[workload]])
            check = binding.check

            def corrupted_check():
                array.write(0, array.read(0) + 7)
                check()
            binding.check = corrupted_check
        return binding
    cls.bind = corrupting_bind


@contextlib.contextmanager
def captured_bindings(workload: str):
    """Collect every binding ``workload.bind`` returns inside the block,
    so the caller can read a cell's result arrays after it ran."""
    cls = ALL_WORKLOADS[workload]
    bind = cls.bind
    captured: list = []

    def capturing_bind(self, *args, **kwargs):
        binding = bind(self, *args, **kwargs)
        captured.append(binding)
        return binding
    cls.bind = capturing_bind
    try:
        yield captured
    finally:
        cls.bind = bind


# -- fig-sweep ----------------------------------------------------------------------


class RecordingOrchestrator(Orchestrator):
    """An Orchestrator that keeps every result and times every cell from
    its worker's spawn to its result, through the public progress hook."""

    def __init__(self, jobs: int):
        super().__init__(jobs=jobs, progress=self._progress)
        self.new_round()

    def new_round(self) -> None:
        self.results: list = []
        self.latency: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self._spawned: Dict[str, float] = {}

    def _progress(self, event) -> None:
        now = time.perf_counter()
        if event["event"] == "spawn":
            self._spawned[event["key"]] = now
        elif event["event"] == "done" and not event["cached"]:
            self.latency[event["key"]] = now - self._spawned[event["key"]]

    def run(self, specs, cancel=None, deadline=None):
        unique = len({spec_key(spec) for spec in specs})
        self.attempted += unique
        try:
            results = super().run(specs, cancel, deadline)
        except OrchestratorError:
            self.failed += unique
            raise
        seen = set()
        for spec, result in zip(specs, results):
            if result.key not in seen:
                seen.add(result.key)
                self.results.append((spec, result))
        return results


class FigSweep:
    """Figs. 8, 9-11, 12, 13 and 15 on the loop kernels, through the
    figure functions on one ``Orchestrator(jobs=2)`` with no disk cache.

    The figure functions fix their cells' datasets (seed 0), so the seed
    does not change this workload's inputs.
    """

    name = "fig-sweep"
    #: Cells that may run at once (the orchestrator's worker slots).
    lanes = 2

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.tracer = None

    def setup(self) -> None:
        self.orch = RecordingOrchestrator(jobs=2)
        if self.smoke:
            self.figures = [
                lambda o: figures.fig8(apps=("spmv",), orch=o),
                lambda o: figures.prefetch_study(apps=("spmv",), orch=o),
            ]
        else:
            self.figures = [
                lambda o: figures.fig8(apps=FIG_APPS, orch=o),
                lambda o: figures.prefetch_study(apps=FIG_APPS, orch=o),
                lambda o: figures.fig12(apps=FIG_APPS, orch=o),
                lambda o: figures.fig13(orch=o),
                lambda o: figures.fig15(orch=o),
            ]

    def probe(self) -> None:
        self.setup()

    def run_round(self) -> Round:
        orch = self.orch
        orch.new_round()
        out = Round()
        start = time.perf_counter()
        for figure in self.figures:
            try:
                rendered = figure(orch)
            except OrchestratorError as err:
                out.failures.append(str(err))
                continue
            for fig in (rendered if isinstance(rendered, tuple) else (rendered,)):
                fig.render()
        out.seconds = time.perf_counter() - start
        out.attempted, out.failed = orch.attempted, orch.failed
        for spec, result in orch.results:
            cell = Cell(key=result.key, label=spec.label(),
                        latency_s=orch.latency[result.key[:12]],
                        simulated=True,
                        counts=counts_of(result.cycles,
                                         result.events_executed, result.stats),
                        stats=result.stats)
            check_cell(cell, out.errors)
            out.cells.append(cell)
        return out

    def verify(self, rounds: List[Round]) -> List[str]:
        """Every technique on one dataset produces the same output.

        Runs each loop kernel's default dataset under doall, MAPLE
        decoupling and LIMA in this process, reads the result arrays, and
        requires them equal; each cell must also match the cycles and
        events the orchestrated sweep reported for the same spec.
        """
        swept = {cell.key: cell for r in rounds for cell in r.cells}
        errors = []
        apps = ("spmv",) if self.smoke else FIG_APPS
        for app in apps:
            outputs = {}
            for technique, threads in (("doall", 2), ("maple-decouple", 2),
                                       ("lima", 1)):
                with captured_bindings(app) as captured:
                    # The sweep's cells ran the kernel's own check; this
                    # pass compares the techniques' outputs with each other.
                    result = techniques.run_workload(
                        app, technique, threads=threads, config=FPGA_CONFIG,
                        check=False)
                array = captured[0].runtime.arrays[RESULT_ARRAYS[app]]
                outputs[technique] = array.to_list()
                key = spec_key(RunSpec(app, technique, threads=threads,
                                       config=FPGA_CONFIG))
                seen = swept.get(key)
                if seen is None:
                    continue  # a failed figure's cell
                if (seen.counts["cycles"], seen.counts["events"]) != (
                        result.cycles, result.soc.sim.events_executed):
                    errors.append(f"{app}/{technique}: in-process run differs "
                                  "from the orchestrated cell")
            first = outputs["doall"]
            for technique, values in outputs.items():
                if values != first:
                    errors.append(f"{app}: {technique} output differs from "
                                  "doall on the same dataset")
        return errors


# -- bfs-long -----------------------------------------------------------------------


def hub_rooted_graph(num_vertices: int, avg_degree: int, seed: int):
    """A seeded ``power_law_graph`` with its highest-out-degree vertex
    relabelled 0 (the harness roots BFS at vertex 0), so every seed
    traverses the graph's giant component instead of, on some seeds, an
    isolated vertex."""
    graph = power_law_graph(num_vertices, avg_degree, seed=seed,
                            name="bfs-long")
    degree = np.diff(graph.row_ptr)
    hub = int(np.argmax(degree))
    relabel = np.arange(num_vertices)
    relabel[[0, hub]] = [hub, 0]
    sources = relabel[np.repeat(np.arange(num_vertices), degree)]
    targets = relabel[graph.neighbors]
    order = np.lexsort((targets, sources))
    row_ptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.add.at(row_ptr, sources + 1, 1)
    return Graph(graph.name, num_vertices, np.cumsum(row_ptr),
                 targets[order])


def plain_bfs(graph, root: int = 0) -> List[int]:
    """Breadth-first distances (-1 = unreached), written apart from the
    program's own reference."""
    row_ptr = graph.row_ptr.tolist()
    neighbors = graph.neighbors.tolist()
    dist = [-1] * graph.num_vertices
    dist[root] = 0
    todo = deque([root])
    while todo:
        vertex = todo.popleft()
        for k in range(row_ptr[vertex], row_ptr[vertex + 1]):
            other = neighbors[k]
            if dist[other] < 0:
                dist[other] = dist[vertex] + 1
                todo.append(other)
    return dist


class BfsLong:
    """BFS doall and MAPLE decoupling at 2 threads and LIMA at 1 thread on
    FPGA_CONFIG, in this process through ``run_workload(dataset=...)``."""

    name = "bfs-long"
    lanes = 1
    CELLS = (("doall", 2), ("maple-decouple", 2), ("lima", 1))
    #: 9000 vertices x 8 bytes = 72 KB of ``dist``, past the 64 KB L2.
    VERTICES, DEGREE = 9000, 3
    SMOKE_VERTICES, SMOKE_DEGREE = 600, 2

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.tracer = None
        self._outputs: Dict[str, List[List[int]]] = {}

    def setup(self) -> None:
        vertices, degree = ((self.SMOKE_VERTICES, self.SMOKE_DEGREE)
                            if self.smoke else (self.VERTICES, self.DEGREE))
        span = self.tracer.begin("datasets.build") if self.tracer else None
        self.graph = hub_rooted_graph(vertices, degree, seed=self.seed)
        if span is not None:
            self.tracer.end(span)

    def probe(self) -> None:
        self.setup()

    def run_round(self) -> Round:
        out = Round()
        with captured_bindings("bfs") as captured:
            for technique, threads in self.CELLS:
                key = f"bfs/{technique}/x{threads}"
                out.attempted += 1
                captured.clear()
                if self.tracer is not None:
                    self.tracer.cell = key
                start = time.perf_counter()
                try:
                    result = techniques.run_workload(
                        "bfs", technique, threads=threads, config=FPGA_CONFIG,
                        dataset=self.graph)
                except AssertionError as err:
                    out.seconds += time.perf_counter() - start
                    out.failed += 1
                    out.failures.append(f"{key}: {err}")
                    continue
                latency = time.perf_counter() - start
                out.seconds += latency
                soc = result.soc
                stats = soc.stats_snapshot()
                counts = counts_of(result.cycles, soc.sim.events_executed,
                                   stats)
                counts["port_requests"] = sum(
                    tap["requests"] for tap in soc.port_telemetry().values())
                cell = Cell(key, key, latency, True, counts, stats)
                check_cell(cell, out.errors)
                out.cells.append(cell)
                self._outputs.setdefault(technique, []).append(
                    captured[0].dist.to_list())
                # Free this cell's SoC before the next one is built.
                del result, soc
                captured.clear()
        if self.tracer is not None:
            self.tracer.cell = None
        return out

    def verify(self, rounds: List[Round]) -> List[str]:
        """Every technique's ``dist`` equals this file's own BFS."""
        expected = plain_bfs(self.graph)
        errors = []
        for technique, outputs in self._outputs.items():
            for values in outputs:
                if values != expected:
                    wrong = sum(1 for a, b in zip(values, expected) if a != b)
                    errors.append(f"bfs/{technique}: {wrong} distances differ "
                                  "from the plain BFS")
        self._outputs.clear()
        return errors


# -- service-mixed ------------------------------------------------------------------


#: (technique, threads) of the service's short jobs.
SERVICE_TECHNIQUES = (("doall", 2), ("maple-decouple", 2), ("lima", 1))
TERMINAL = ("done", "failed", "timeout", "cancelled", "interrupted")


def job_stream(seed: int, smoke: bool) -> Tuple[List[dict], int]:
    """The seeded job stream of one round and its number of distinct jobs.

    Distinct jobs: SPMV and SDHP under each service technique on
    ``data_seeds`` seeded datasets, in seeded shuffled order.  Every other
    distinct job is submitted twice: alternately right after the next
    job (it usually coalesces onto the running original) and four jobs
    later (it is usually served from the finished one).
    """
    rng = random.Random(seed)
    data_seeds = rng.sample(range(1, 1000), 1 if smoke else 3)
    apps = ("spmv",) if smoke else ("spmv", "sdhp")
    distinct = [{"workload": app, "technique": technique,
                 "threads": threads, "seed": data_seed}
                for app in apps
                for technique, threads in SERVICE_TECHNIQUES
                for data_seed in data_seeds]
    rng.shuffle(distinct)
    slots = []
    for index, spec in enumerate(distinct):
        slots.append((10 * index, spec))
        if index % 2 == 0:
            slots.append((10 * index + (15 if index % 4 == 0 else 45), spec))
    slots.sort(key=lambda slot: slot[0])
    return [spec for _, spec in slots], len(distinct)


def _request(conn, method: str, path: str, body=None):
    payload = json.dumps(body) if body is not None else None
    conn.request(method, path, body=payload,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, json.loads(response.read() or b"{}")


class ServiceProcess:
    """One ``SimService`` with its default settings, started through the
    service's own command line by ``serve.py`` in a child process."""

    def __init__(self, workdir: Path, trace_dir: Optional[Path],
                 negative_control: bool):
        workdir.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, str(HERE / "serve.py"), "--workdir",
               str(workdir)]
        if trace_dir is not None:
            cmd += ["--trace-dir", str(trace_dir)]
        if negative_control:
            cmd.append("--negative-control")
        self._log = open(workdir / "service.log", "wb")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self._log)
        killer = threading.Timer(60.0, self.proc.kill)
        killer.start()
        try:
            line = self.proc.stdout.readline().decode()
        finally:
            killer.cancel()
        match = re.match(r"SERVICE-READY port=(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"service did not start: {line!r}")
        self.port = int(match.group(1))

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class ServiceMixed:
    """A seeded duplicate-rich job stream against ``SimService`` over
    loopback HTTP from two closed-loop clients.

    Each round boots a fresh service (fresh journal, cache and
    checkpoints), so every round does the same work: one simulation per
    distinct job, the duplicates coalesced or served.  The boot is not
    part of the measured phase.
    """

    name = "service-mixed"
    lanes = 2
    CLIENTS = 2
    JOB_TIMEOUT_S = 120.0

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.tracer = None
        self.negative_control = False
        self._rounds = 0
        self._payloads: Dict[str, List[Dict[str, Any]]] = {}

    def setup(self) -> None:
        self.stream, self.distinct = job_stream(self.seed, self.smoke)

    def probe(self) -> None:
        self.setup()
        ServiceProcess(self.workdir / "probe", None, False).stop()

    def _client(self, port: int, jobs: "queue.Queue", records: list) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            while True:
                try:
                    index, spec = jobs.get_nowait()
                except queue.Empty:
                    return
                record = {"index": index, "spec": spec}
                start = time.perf_counter()
                try:
                    status, view = _request(conn, "POST", "/jobs",
                                            {"spec": spec})
                    record["submit_s"] = time.perf_counter() - start
                    record["created"] = (status == 202
                                         and not view.get("coalesced"))
                    while (status in (200, 202)
                           and view.get("state") not in TERMINAL
                           and time.perf_counter() - start
                           < self.JOB_TIMEOUT_S):
                        status, view = _request(
                            conn, "GET", f"/jobs/{view['job']}?wait=30")
                    record["status"], record["view"] = status, view
                except (OSError, http.client.HTTPException, ValueError) as err:
                    record["status"], record["view"] = 0, {"error": str(err)}
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port,
                                                      timeout=60)
                record["latency_s"] = time.perf_counter() - start
                records.append(record)
        finally:
            conn.close()

    def run_round(self) -> Round:
        self._rounds += 1
        trace_dir = self.tracer.dump_dir if self.tracer is not None else None
        service = ServiceProcess(self.workdir / f"service-{self._rounds}",
                                 trace_dir, self.negative_control)
        out = Round()
        try:
            jobs: queue.Queue = queue.Queue()
            for index, spec in enumerate(self.stream):
                jobs.put((index, spec))
            records: list = []
            clients = [threading.Thread(target=self._client,
                                        args=(service.port, jobs, records))
                       for _ in range(self.CLIENTS)]
            start = time.perf_counter()
            for client in clients:
                client.start()
            for client in clients:
                client.join()
            out.seconds = time.perf_counter() - start
            conn = http.client.HTTPConnection("127.0.0.1", service.port,
                                              timeout=60)
            try:
                _, health = _request(conn, "GET", "/health")
            finally:
                conn.close()
        finally:
            service.stop()
        counters = health["counters"]
        out.extra["health"] = {name: counters[name] for name in
                               ("sims_executed", "coalesced", "served_cached")}
        out.extra["submit_s"] = [r["submit_s"] for r in records
                                 if "submit_s" in r]
        out.attempted = len(self.stream)
        for record in sorted(records, key=lambda r: r["index"]):
            view = record["view"]
            if record["status"] != 200 or view.get("state") != "done":
                out.failed += 1
                out.failures.append(
                    f"{record['spec']}: HTTP {record['status']}, state "
                    f"{view.get('state')}, error {view.get('error')}")
                continue
            payload = view["result"]
            cell = Cell(key=view["job"],
                        label="{workload}/{technique} x{threads} "
                              "seed={seed}".format(**record["spec"]),
                        latency_s=record["latency_s"],
                        simulated=record["created"],
                        counts=counts_of(payload["cycles"],
                                         payload["events_executed"],
                                         payload["stats"]),
                        stats=payload["stats"])
            check_cell(cell, out.errors)
            out.cells.append(cell)
            self._payloads.setdefault(view["job"], []).append(payload)
        if not out.failed and counters["sims_executed"] != self.distinct:
            out.errors.append(f"service ran {counters['sims_executed']} "
                              f"simulations for {self.distinct} distinct jobs")
        return out

    def verify(self, rounds: List[Round]) -> List[str]:
        """Each job's result identity equals an in-process ``execute_spec``
        of the same spec; duplicates return that same identity."""
        errors = []
        for spec in {json.dumps(s, sort_keys=True): s
                     for s in self.stream}.values():
            run_spec = spec_from_wire(spec)
            payloads = self._payloads.get(spec_key(run_spec), [])
            if not payloads:
                continue
            expected = json.loads(json.dumps(execute_spec(run_spec).identity()))
            for payload in payloads:
                if {name: payload[name] for name in expected} != expected:
                    errors.append(f"{spec}: service identity differs from an "
                                  "in-process execute_spec")
                    break
        self._payloads.clear()
        return errors


WORKLOADS = {cls.name: cls for cls in (FigSweep, BfsLong, ServiceMixed)}
