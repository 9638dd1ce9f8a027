"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public calls into each ``repro`` layer from outside the
program: it replaces attributes on the program's classes and modules,
so the program's own files stay untouched.  Each wrapped call records a
span ``(name, start_ns, end_ns, parent, cell)``; a span's id is
``(process token, index)``, so spans recorded in forked orchestrator
workers can name their parent in the supervising process.

Install the wrappers *before* any worker is forked: a forked worker
inherits them, drops the spans it inherited from its parent, records
its own, and writes them to ``dump_dir`` when its attempt ends.  The
process that installed the tracer collects every file at the end
(:func:`collect`).

Counts that are too frequent for spans (functional page-table lookups)
are kept as plain per-process counters and attributed to cells by the
``run_workload`` wrapper, together with the cell's port requests.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

#: (process token, span index): unique across the processes of one run
#: even when the kernel reuses a dead worker's pid.
SpanId = Tuple[str, int]


def _token() -> str:
    return f"{os.getpid()}-{time.perf_counter_ns()}"


class Tracer:
    """Spans and per-cell counts of one process."""

    def __init__(self, dump_dir: Optional[Path] = None):
        self.dump_dir = Path(dump_dir) if dump_dir is not None else None
        self.token = _token()
        #: [name, start_ns, end_ns, parent SpanId or None, cell]
        self.spans: List[list] = []
        #: [cell id, port requests, functional lookups] per simulated cell
        self.cells: List[list] = []
        #: Orchestrator.run reports seen in this process.
        self.reports: List[Dict[str, Any]] = []
        self.lookups = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._fork_parent: Optional[SpanId] = None
        self._fork_cell: Optional[str] = None
        #: Parent of this process's root spans (set in forked workers).
        self._root_parent: Optional[SpanId] = None

    # -- per-thread state -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def cell(self) -> Optional[str]:
        return getattr(self._local, "cell", None)

    @cell.setter
    def cell(self, value: Optional[str]) -> None:
        self._local.cell = value

    def before_fork(self) -> None:
        """Remember the forking thread's open span and cell: the child's
        root spans hang under them."""
        stack = self._stack()
        self._fork_parent = (self.token, stack[-1]) if stack else None
        self._fork_cell = self.cell

    def after_fork_in_child(self) -> None:
        """Forget everything inherited from the parent process."""
        self.token = _token()
        self._root_parent = self._fork_parent
        self.spans = []
        self.cells = []
        self.reports = []
        self.lookups = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self.cell = self._fork_cell

    # -- spans ------------------------------------------------------------------

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = (self.token, stack[-1]) if stack else self._root_parent
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter_ns(), 0, parent,
                               self.cell])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def dump(self) -> None:
        if self.dump_dir is None:
            return
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        path = self.dump_dir / f"{self.token}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.export()))
        tmp.replace(path)

    def export(self) -> Dict[str, Any]:
        return {"token": self.token, "spans": self.spans, "cells": self.cells,
                "reports": self.reports}


def collect(tracer: Tracer) -> List[Dict[str, Any]]:
    """This process's export plus every file dumped by other processes."""
    exports = [tracer.export()]
    if tracer.dump_dir is not None and tracer.dump_dir.is_dir():
        for path in sorted(tracer.dump_dir.glob("*.json")):
            exports.append(json.loads(path.read_text()))
    return exports


def layer_of(name: str) -> str:
    """A span's layer is the first part of its name (``sim.run`` -> sim)."""
    return name.split(".", 1)[0]


def summarize(exports: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Total seconds per span name and self seconds per layer.

    A span's self time is its duration minus the part of that interval
    its child spans cover; children recorded in other processes count
    too, so an orchestrator's self time is the time no worker of it ran.
    """
    spans: Dict[SpanId, list] = {}
    children: Dict[SpanId, List[SpanId]] = {}
    for export in exports:
        for index, span in enumerate(export["spans"]):
            sid = (export["token"], index)
            spans[sid] = span
            if span[3] is not None:
                children.setdefault(tuple(span[3]), []).append(sid)
    totals: Dict[str, float] = {}
    self_times: Dict[str, float] = {}
    for sid, (name, start, end, _parent, _cell) in spans.items():
        if not end:
            continue  # a span of a process killed mid-call
        covered = 0
        cursor = start
        kids = sorted((max(spans[k][1], start), min(spans[k][2], end))
                      for k in children.get(sid, ()) if spans[k][2])
        for lo, hi in kids:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[name] = totals.get(name, 0.0) + (end - start) / 1e9
        layer = layer_of(name)
        self_times[layer] = (self_times.get(layer, 0.0)
                             + (end - start - covered) / 1e9)
    return {"totals": totals, "self": self_times, "spans": len(spans)}


# -- wrappers ---------------------------------------------------------------------


def _spanned(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(index)
    return wrapper


def _wrap(tracer: Tracer, owner, attr: str, name: str) -> None:
    setattr(owner, attr, _spanned(tracer, name, getattr(owner, attr)))


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every layer the benchmark reports.

    Call once per process, before the orchestrator or service forks a
    worker.
    """
    from repro.harness import orchestrator, service, techniques
    from repro.harness.orchestrator import DiskCache, Orchestrator
    from repro.kernels import ALL_WORKLOADS
    from repro.sim.engine import Simulator
    from repro.system.soc import Soc
    from repro.vm.alloc import SimArray

    os.register_at_fork(before=tracer.before_fork,
                        after_in_child=tracer.after_fork_in_child)

    for workload in ALL_WORKLOADS.values():
        _wrap(tracer, workload, "default_dataset", "datasets.build")
        bind = workload.bind

        def traced_bind(self, *args, _bind=bind, **kwargs):
            index = tracer.begin("kernels.bind")
            try:
                binding = _bind(self, *args, **kwargs)
            finally:
                tracer.end(index)
            binding.check = _spanned(tracer, "kernels.check", binding.check)
            return binding
        workload.bind = traced_bind

    _wrap(tracer, Soc, "__init__", "system.soc_build")
    _wrap(tracer, Soc, "array", "vm.fill")
    _wrap(tracer, Soc, "save_checkpoint", "checkpoint.save")
    _wrap(tracer, Simulator, "run", "sim.run")
    _wrap(tracer, techniques, "analyze", "compiler.plan")
    _wrap(tracer, techniques, "plan_for", "compiler.plan")
    _wrap(tracer, DiskCache, "get", "cache.get")
    _wrap(tracer, DiskCache, "put", "cache.put")

    translate = SimArray._translate

    def counted_translate(self, vaddr):
        tracer.lookups += 1
        return translate(self, vaddr)
    SimArray._translate = counted_translate

    run_workload = techniques.run_workload

    @functools.wraps(run_workload)
    def traced_run_workload(*args, **kwargs):
        lookups = tracer.lookups
        index = tracer.begin("harness.run")
        try:
            result = run_workload(*args, **kwargs)
        finally:
            tracer.end(index)
        requests = sum(tap["requests"]
                       for tap in result.soc.port_telemetry().values())
        with tracer._lock:
            tracer.cells.append(
                [tracer.cell, requests, tracer.lookups - lookups])
        return result
    techniques.run_workload = traced_run_workload

    execute_spec = orchestrator.execute_spec

    @functools.wraps(execute_spec)
    def traced_execute_spec(spec, *args, **kwargs):
        tracer.cell = orchestrator.spec_key(spec)
        index = tracer.begin("harness.cell")
        try:
            return execute_spec(spec, *args, **kwargs)
        finally:
            tracer.end(index)
    orchestrator.execute_spec = traced_execute_spec

    worker = orchestrator._supervised_worker

    @functools.wraps(worker)
    def traced_worker(spec, *args, **kwargs):
        tracer.cell = orchestrator.spec_key(spec)
        index = tracer.begin("orchestrator.worker")
        try:
            worker(spec, *args, **kwargs)
        finally:
            tracer.end(index)
            tracer.dump()
    orchestrator._supervised_worker = traced_worker

    run = Orchestrator.run

    @functools.wraps(run)
    def traced_run(self, specs, *args, **kwargs):
        index = tracer.begin("orchestrator.run")
        try:
            results = run(self, specs, *args, **kwargs)
        finally:
            tracer.end(index)
        report = {k: self.report[k] for k in
                  ("jobs", "executed", "wall_seconds", "sim_seconds")}
        report["cell_walls"] = list({
            job["key"]: job["wall_seconds"]
            for job in self.report["per_job"] if not job["cached"]}.values())
        with tracer._lock:
            tracer.reports.append(report)
        return results
    Orchestrator.run = traced_run

    execute = service.SimService._execute

    @functools.wraps(execute)
    def traced_execute(self, job, remaining):
        tracer.cell = job.job_id
        index = tracer.begin("service.execute")
        try:
            return execute(self, job, remaining)
        finally:
            tracer.end(index)
    service.SimService._execute = traced_execute
