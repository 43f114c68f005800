"""Spans around the program's public functions, recorded from outside.

A traced run wraps each layer's public entry points (listed in
:data:`TARGETS`) without touching the program: the wrapper replaces
the function in its defining module and in every ``repro`` module that
imported it by name. Each call records one span — layer, function,
start, end, parent span, item id, process — in memory; spans are
written out when the run ends.

A layer's *self time* is its spans' duration minus the time covered by
their child spans, so the layers of one process sum to no more than
that process's traced wall time. Spans recorded in forked worker
processes (the shard pools) are shipped back through one file per
worker, written when the worker exits.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import multiprocessing
import os
import sys
import threading
import time
from collections import defaultdict
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Dict, List, Optional

#: (layer, module, attribute); ``Class.method`` wraps a method.
#: ``make_*_oracle`` factories get their returned oracle wrapped.
TARGETS = (
    ("transforms", "repro.transforms.scripts", "optimize_global"),
    ("transforms", "repro.transforms.scripts", "apply_transform"),
    ("afsm", "repro.afsm.extract", "extract_controllers"),
    ("afsm", "repro.afsm.minimize", "minimize_design"),
    ("local_transforms", "repro.local_transforms.scripts", "optimize_local"),
    ("local_transforms", "repro.local_transforms.scripts", "optimize_machine"),
    ("verify.flow", "repro.verify.flow", "check_global_flow"),
    ("verify.flow", "repro.verify.flow", "check_local_flow"),
    ("verify.oracles", "repro.verify.oracles", "make_global_oracle"),
    ("verify.oracles", "repro.verify.oracles", "make_local_oracle"),
    ("sim.token_sim", "repro.sim.token_sim", "simulate_tokens"),
    ("sim.system", "repro.sim.system", "simulate_system"),
    ("obs.causal", "repro.obs.causal", "critical_path"),
    ("obs.causal", "repro.obs.causal", "bottleneck_label"),
    ("logic", "repro.logic.synthesis", "synthesize_design"),
    ("frontend", "repro.frontend", "compile_kernel"),
    ("frontend", "repro.frontend", "CompiledKernel.build"),
    ("cache", "repro.explore", "explore_design_space"),
    ("cache", "repro.cache.incremental", "IncrementalExplorer.run"),
    ("cache", "repro.cache.store", "ArtifactCache.load"),
    ("cache", "repro.cache.store", "ArtifactCache.save"),
    ("cache.shards", "repro.cache.shards", "explore_space"),
    ("cache.shards", "repro.cache.shards", "ShardRunner.run"),
    ("cache.journal", "repro.cache.journal", "ResultJournal.append"),
    ("cache.journal", "repro.cache.journal", "ResultJournal.load"),
    ("cache.journal", "repro.cache.journal", "ResultJournal.compact"),
    ("serve.store", "repro.serve.store", "JobStore.submit"),
    ("serve.store", "repro.serve.store", "JobStore.claim"),
    ("serve.store", "repro.serve.store", "JobStore.finish"),
    ("serve.store", "repro.serve.store", "JobStore.get"),
    ("serve.store", "repro.serve.store", "JobStore.next_pending"),
    ("serve.store", "repro.serve.store", "JobStore.would_dedup"),
    ("serve.store", "repro.serve.store", "JobStore.queue_depth"),
    ("serve.store", "repro.serve.store", "JobStore.client_load"),
)

#: every layer a traced run reports, in report order
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

_FACTORIES = ("make_global_oracle", "make_local_oracle")


class Recorder:
    """In-memory span store for one process."""

    def __init__(self, spill_dir: Optional[Path] = None):
        #: (pid, id, parent, layer, function, start, end, item)
        self.spans: List[tuple] = []
        #: the item (context, design, job) the current work belongs to
        self.item: Optional[str] = None
        self.pid = os.getpid()
        self.spill_dir = spill_dir
        self._ids = itertools.count(1)
        self._stacks: Dict[int, List[int]] = {}
        self._installed: List[tuple] = []

    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        return self._stacks.setdefault(threading.get_ident(), [])

    def _parent(self, stack: List[int]) -> Optional[int]:
        if stack:
            return stack[-1]
        # a helper thread's outermost span nests under whatever the
        # main thread has open (shard threads under explore_space)
        main = self._stacks.get(threading.main_thread().ident)
        return main[-1] if main else None

    def wrap(self, layer: str, function):
        name = getattr(function, "__qualname__", repr(function))

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((self.pid, span_id, parent, layer, name, start, end, self.item))

        return traced

    def _factory(self, layer: str, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            return self.wrap(layer, factory(*args, **kwargs))

        return make

    # ------------------------------------------------------------------
    def install(self) -> "Recorder":
        """Wrap every target; forked children start a fresh buffer."""
        for layer, module_name, attribute in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, method = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                setattr(owner, method, self.wrap(layer, original))
                self._installed.append((owner, method, original))
                continue
            original = getattr(module, attribute)
            make = self._factory if attribute in _FACTORIES else self.wrap
            wrapper = make(layer, original)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").split(".")[0] != "repro":
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapper)
                        self._installed.append((loaded, key, original))
        mp_util.register_after_fork(self, Recorder._after_fork)
        return self

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()

    def _after_fork(self) -> None:
        self.spans = []
        self.pid = os.getpid()
        self.item = f"worker-{self.pid}"
        self._stacks = {}
        if self.spill_dir is not None:
            mp_util.Finalize(None, self._spill, exitpriority=100)

    def _spill(self) -> None:
        path = self.spill_dir / f"spans-{self.pid}.json"
        path.write_text(json.dumps(self.spans), encoding="utf-8")

    def collect_workers(self, timeout: float = 30.0) -> int:
        """Wait for forked workers to exit, then merge their spans;
        returns how many worker files were read."""
        deadline = time.monotonic() + timeout
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.02)
        read = 0
        if self.spill_dir is not None:
            for path in sorted(self.spill_dir.glob("spans-*.json")):
                self.spans.extend(tuple(s) for s in json.loads(path.read_text(encoding="utf-8")))
                path.unlink()
                read += 1
        return read

    # ------------------------------------------------------------------
    def write(self, path: Path) -> None:
        """One JSON object per span."""
        keys = ("pid", "id", "parent", "layer", "function", "start", "end", "item")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans: List[tuple]) -> Dict[tuple, float]:
    """Self time of every span, keyed ``(pid, id)``."""
    children: Dict[tuple, float] = defaultdict(float)
    for pid, _id, parent, _layer, _fn, start, end, _item in spans:
        if parent is not None:
            children[(pid, parent)] += end - start
    return {
        (pid, span_id): (end - start) - children[(pid, span_id)]
        for pid, span_id, _parent, _layer, _fn, start, end, _item in spans
    }


def layer_metrics(spans: List[tuple]) -> Dict[str, float]:
    """``<layer>.self_s`` and ``<layer>.calls`` for every layer."""
    own = self_times(spans)
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = 0.0
        metrics[f"{layer}.calls"] = 0.0
    for pid, span_id, _parent, layer, _fn, _start, _end, _item in spans:
        metrics[f"{layer}.self_s"] += own[(pid, span_id)]
        metrics[f"{layer}.calls"] += 1
    metrics["cache.save_s"] = sum(
        end - start for _p, _i, _pa, _l, fn, start, end, _it in spans if fn == "ArtifactCache.save"
    )
    return metrics


def self_time_by_process(spans: List[tuple]) -> Dict[int, float]:
    """Summed self time of all layers, per process."""
    own = self_times(spans)
    totals: Dict[int, float] = defaultdict(float)
    for (pid, _id), value in own.items():
        totals[pid] += value
    return dict(totals)
