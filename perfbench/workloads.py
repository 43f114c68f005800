"""The benchmark's four workloads: inputs from a seed, timed work, checks.

Each workload is a class with three steps, called by ``rep.py`` in a
fresh interpreter:

- ``inputs(seed)`` builds the workload's inputs from the seed alone
  (plain data: names, program tuples, job specs), so the same seed
  always gives the same inputs;
- ``setup(inputs, scratch)`` turns them into program objects (CDFGs,
  delay models, a booted server) — counted as set-up time;
- ``run(state, recorder)`` does the timed work through the program's
  public functions and returns a :class:`Outcome` whose
  ``documents`` are the outputs the gate digests and checks.

Every output is checked against a model that is independent of the
synthesizer: the workload golden models, the frontend IR interpreter,
:func:`interpret_random_program` below, the proof and conformance stamps
the sweep computes for every point, and byte equality of duplicate
serve results.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
KERNEL_FILES = ("examples/kernels/accumulate.py", "examples/kernels/diffeq.py")

#: the fixed shape of the seeded random programs: (pre ops, body ops,
#: loop iterations, distinct units). Only the operations vary with the
#: seed, so a seed changes the inputs without changing their size.
RANDOM_SHAPE = (2, 3, 2, 3)


def digest(documents) -> str:
    """SHA-256 of the canonical JSON of ``documents``."""
    text = json.dumps(documents, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def random_program_seeds(rng: random.Random, count: int) -> List[int]:
    """Draw ``count`` random-program seeds whose programs have
    :data:`RANDOM_SHAPE`."""
    from repro.cache.space import random_program

    pre, body, iterations, units = RANDOM_SHAPE
    seeds: List[int] = []
    while len(seeds) < count:
        candidate = rng.randrange(10**9)
        program = random_program(candidate)
        if (
            len(program[0]) == pre
            and len(program[1]) == body
            and program[2] == iterations
            and len({op[4] for op in program[0] + program[1]}) == units
            and candidate not in seeds
        ):
            seeds.append(candidate)
    return seeds


def interpret_random_program(program) -> Dict[str, float]:
    """Golden register file of a :func:`repro.cache.space.random_program`
    draw, computed directly from the program tuple (no CDFG, no
    simulator)."""
    pre, body, iterations = program
    registers = {name: float(i + 1) for i, name in enumerate(("R0", "R1", "R2", "R3"))}

    def execute(ops) -> None:
        for dest, left, operator, right, _unit in ops:
            a, b = registers[left], registers[right]
            registers[dest] = a + b if operator == "+" else a - b if operator == "-" else a * b

    execute(pre)
    for _ in range(iterations):
        execute(body)
    registers["I"] = float(iterations)
    return registers


@dataclass
class Outcome:
    """What one timed run produced. Times are ``time.perf_counter()``
    readings, so ``rep.py`` can report them raw or adjusted to the
    reference host speed (``hostspeed.py``)."""

    #: readings when the timed work began and ended
    began: float
    ended: float
    #: items attempted (points, designs or jobs)
    items: int
    #: items that failed, were refused or came out wrong
    failed: int
    #: per-item (began, ended) readings
    item_spans: List[Tuple[float, float]]
    #: the outputs the gate digests (JSON-serializable)
    documents: object
    #: first few failure descriptions
    problems: List[str] = field(default_factory=list)
    #: workload-specific per-layer figures (counts, ratios, seconds)
    layer_figures: Dict[str, float] = field(default_factory=dict)
    #: how the load was generated (recorded with the result)
    settings: Dict[str, float] = field(default_factory=dict)


def _note(problems: List[str], text: str) -> None:
    if len(problems) < 10:
        problems.append(text)


def _verified(doc: dict) -> bool:
    """A sweep point passes when it evaluated, proved and conformed."""
    return doc["status"] == "ok" and doc["proved"] and doc["conformant"]


# ----------------------------------------------------------------------
# sweep: verified, serial, cold explore_design_space
# ----------------------------------------------------------------------
class Sweep:
    """The ROADMAP north-star path: a verified serial sweep of the
    64-point GT x LT grid over every named workload and two seeded
    random programs at nominal delays: 384 points. One delay scale
    keeps a repetition short, so a run holds several and their median
    shrugs off a burst of load on a shared host."""

    name = "sweep"
    workloads = ("diffeq", "fir", "gcd", "ewf")
    scales = (1.0,)

    def inputs(self, seed: int) -> dict:
        rng = random.Random(f"sweep:{seed}")
        return {
            "workloads": list(self.workloads),
            "random_seeds": random_program_seeds(rng, 2),
            "scales": list(self.scales),
        }

    def setup(self, inputs: dict, scratch: Path) -> dict:
        from repro.cache.space import DelayVariant, Scenario

        scenarios = [Scenario.from_dict({"workload": name}) for name in inputs["workloads"]]
        scenarios += [Scenario.from_dict({"random": s}) for s in inputs["random_seeds"]]
        contexts = []
        for scenario in scenarios:
            for scale in inputs["scales"]:
                variant = DelayVariant(name=f"x{scale:g}", scale=scale)
                contexts.append((scenario.name, variant.name, scenario.build(), variant.build()))
        return {"contexts": contexts, "cache_dir": scratch / "artifact-cache"}

    def run(self, state: dict, recorder=None) -> Outcome:
        from repro.cache.store import ArtifactCache
        from repro.explore import explore_design_space

        cache = ArtifactCache(state["cache_dir"])
        documents, spans, problems = [], [], []
        failed = evaluations = 0
        start = time.perf_counter()
        for scenario, variant, cdfg, delays in state["contexts"]:
            if recorder is not None:
                recorder.item = f"{scenario}/{variant}"
            result = explore_design_space(cdfg, delays=delays, verify=True, cache=cache)
            # a point is available once the call that computed it returns
            landed = time.perf_counter()
            evaluations += int(result.stats.get("evaluations") or 0)
            for point in result.points:
                doc = {**point.to_dict(), "scenario": scenario, "delay_model": variant}
                documents.append(doc)
                spans.append((start, landed))
                if not _verified(doc):
                    failed += 1
                    _note(problems, f"{scenario}/{variant} {point.label}: {point.proof}; {point.conformance}")
        end = time.perf_counter()
        return Outcome(
            began=start,
            ended=end,
            items=len(documents),
            failed=failed,
            item_spans=spans,
            documents=documents,
            problems=problems,
            layer_figures={"cache.reuse_ratio": len(documents) / max(1, evaluations)},
        )


# ----------------------------------------------------------------------
# sweep-sharded: explore_space with work-stealing shards, then resume
# ----------------------------------------------------------------------
class ShardedSweep:
    """The only workload that exercises ``cache.shards``,
    ``cache.journal``, the forked shard pools and the uniform-scale
    memos: a 1024-point space swept by two shards, then resumed."""

    name = "sweep-sharded"
    workloads = ("diffeq", "fir", "gcd", "ewf")
    scales = (1.0, 1.25, 1.5, 2.0)
    shards = 2

    def inputs(self, seed: int) -> dict:
        rng = random.Random(f"sweep-sharded:{seed}")
        # the simulation seed: sampled delays, so makespans vary by seed
        return {
            "workloads": list(self.workloads),
            "scales": list(self.scales),
            "sim_seed": rng.randrange(1, 10**6),
        }

    def setup(self, inputs: dict, scratch: Path) -> dict:
        from repro.cache.space import DelayVariant, ParameterSpace, Scenario

        space = ParameterSpace(
            scenarios=[Scenario.from_dict({"workload": name}) for name in inputs["workloads"]],
            delay_variants=[
                DelayVariant(name="nominal" if s == 1.0 else f"x{s:g}", scale=s)
                for s in inputs["scales"]
            ],
            seeds=[inputs["sim_seed"]],
        )
        return {"space": space, "run_dir": scratch / "space-run"}

    def run(self, state: dict, recorder=None, mode: str = "shards") -> Outcome:
        """``mode`` is ``shards`` (the workload), ``shards1`` (the same
        space at one shard) or ``serial`` (one cold serial
        ``explore_design_space`` per context, nothing shared) — the
        last two only feed ``shards.parallel_speedup`` and
        ``shards.memo_gain``."""
        from repro.cache.shards import explore_space

        space = state["space"]
        if mode == "serial":
            return self._serial(space)
        landed: List[float] = []

        def live(_completed, _total, _frontier, _point) -> None:
            landed.append(time.perf_counter())

        shards = 1 if mode == "shards1" else self.shards
        start = time.perf_counter()
        result = explore_space(space, shards=shards, run_dir=state["run_dir"], live=live)
        end = time.perf_counter()
        problems: List[str] = []
        failed = len(space) - len(result.points)
        if failed:
            _note(problems, f"{failed} of {len(space)} points missing: {result.stats}")
        for doc in result.documents:
            if not _verified(doc):
                failed += 1
                _note(problems, f"{doc['scenario']}/{doc['delay_model']}: {doc['proof']}; {doc['conformance']}")
        began = time.perf_counter()
        resumed = explore_space(space, shards=shards, run_dir=state["run_dir"], resume=True)
        resume_s = time.perf_counter() - began
        if resumed.documents != result.documents:
            failed += 1
            _note(problems, "resumed run differs from the finished run")
        figures = {
            "journal.resume_s": resume_s,
            "shards.effective": float(result.stats.get("effective_shards", 0)),
            "shards.stolen_units": float(result.stats.get("stolen_units", 0)),
        }
        return Outcome(
            began=start,
            ended=end,
            items=len(space),
            failed=failed,
            item_spans=[(start, t) for t in landed],
            documents=result.documents,
            problems=problems,
            layer_figures=figures,
            settings={"shards_requested": shards},
        )

    def _serial(self, space) -> Outcome:
        from repro.explore import explore_design_space

        documents = []
        start = time.perf_counter()
        for context in space.contexts():
            result = explore_design_space(
                context.cdfg,
                global_subsets=space.gt_subsets,
                local_subsets=space.lt_subsets,
                delays=context.delays,
                seed=context.seed,
                verify=space.verify,
            )
            labels = context.labels()
            documents.extend({**p.to_dict(), **labels} for p in result.points)
        end = time.perf_counter()
        failed = sum(not _verified(doc) for doc in documents)
        return Outcome(start, end, len(documents), failed, [], documents)


# ----------------------------------------------------------------------
# compile: single-design synthesis as a compiler user sees it
# ----------------------------------------------------------------------
class Compile:
    """GT -> extract -> LT -> system simulation for a fixed set of
    designs, then Fig-13 two-level logic on the small ones."""

    name = "compile"
    named = (("fir", {"taps": 64}), ("fir", {"taps": 128}), ("diffeq", {}), ("gcd", {}), ("ewf", {}))
    #: logic cost grows steeply with design size (FIR-8 ~1.5 s, FIR-16
    #: ~8 s, FIR-48 minutes), so only small designs get logic
    logic = (("diffeq", {}), ("gcd", {}), ("ewf", {}), ("fir", {"taps": 8}))
    #: random programs take 10-20 ms each (a few take 100 ms), so with
    #: many of them the median design latency falls inside a dense
    #: cluster of small designs and barely moves with the seed
    random_programs = 16

    def inputs(self, seed: int) -> dict:
        rng = random.Random(f"compile:{seed}")
        return {
            "named": [[name, dict(kw)] for name, kw in self.named],
            "kernels": list(KERNEL_FILES),
            "random_seeds": random_program_seeds(rng, self.random_programs),
            "logic": [[name, dict(kw)] for name, kw in self.logic],
        }

    def setup(self, inputs: dict, scratch: Path) -> dict:
        from repro.cache.space import build_random_program, random_program
        from repro.workloads import WORKLOADS, golden_reference

        items = []
        for name, kw in inputs["named"]:
            label = name + "".join(f"-{v}" for v in kw.values())
            items.append(("flow", label, WORKLOADS[name](**kw), golden_reference(name, **kw)))
        for path in inputs["kernels"]:
            source = (ROOT / path).read_text(encoding="utf-8")
            items.append(("kernel", Path(path).stem, source, None))
        for s in inputs["random_seeds"]:
            program = random_program(s)
            cdfg = build_random_program(program, name=f"random-{s}")
            items.append(("flow", f"random-{s}", cdfg, interpret_random_program(program)))
        for name, kw in inputs["logic"]:
            label = "logic-" + name + "".join(f"-{v}" for v in kw.values())
            items.append(("logic", label, WORKLOADS[name](**kw), golden_reference(name, **kw)))
        return {"items": items}

    def run(self, state: dict, recorder=None) -> Outcome:
        from repro.afsm.extract import extract_controllers
        from repro.frontend import compile_kernel
        from repro.local_transforms import optimize_local
        from repro.logic.synthesis import synthesize_design
        from repro.sim.seeding import NOMINAL
        from repro.sim.system import simulate_system
        from repro.transforms import optimize_global

        documents, spans, problems = [], [], []
        failed = 0
        literals = 0
        start = time.perf_counter()
        for kind, label, source, golden in state["items"]:
            if recorder is not None:
                recorder.item = label
            began = time.perf_counter()
            cdfg = source
            if kind == "kernel":
                kernel = compile_kernel(source)
                cdfg, golden = kernel.build(), kernel.golden()
            optimized = optimize_global(cdfg)
            design = extract_controllers(optimized.cdfg, optimized.plan)
            design = optimize_local(design).design
            result = simulate_system(design, seed=NOMINAL)
            doc = {
                "design": label,
                "channels": design.plan.count(include_env=False),
                "states": sum(c.state_count for c in design.controllers.values()),
                "transitions": sum(c.transition_count for c in design.controllers.values()),
                "makespan": result.end_time,
            }
            if kind == "logic":
                shared = ("ALU1",) if label == "logic-diffeq" else ()
                summaries = synthesize_design(design, shared_for=shared)
                doc["products"] = sum(s.products for s in summaries.values())
                doc["literals"] = sum(s.literals for s in summaries.values())
                literals += doc["literals"]
            spans.append((began, time.perf_counter()))
            wrong = sorted(r for r, v in golden.items() if result.registers.get(r) != v)
            if wrong or result.violations or result.hazards:
                failed += 1
                _note(problems, f"{label}: registers {wrong}, violations {result.violations[:1]}, hazards {result.hazards[:1]}")
            documents.append(doc)
        end = time.perf_counter()
        return Outcome(
            began=start,
            ended=end,
            items=len(documents),
            failed=failed,
            item_spans=spans,
            documents=documents,
            problems=problems,
            layer_figures={"logic.literals": float(literals)},
        )


# ----------------------------------------------------------------------
# serve: closed loop of two clients against an in-process server
# ----------------------------------------------------------------------
#: client poll interval while a job is not terminal; ServeClient.wait's
#: 50 ms default would put a floor under the measured latency
POLL_S = 0.005


class Serve:
    """A closed loop of two clients (each sends its next job only
    after its previous one is terminal) against a ``ServerHarness``
    with a two-worker process pool. About 70 % of the jobs are unique
    (the write path: insert, claim, execute, finish) and 30 % repeat an
    earlier job (the dedup read path)."""

    name = "serve"
    clients = 2
    workers = 2
    #: unique jobs per kind: (kind, workload, fixed params, count)
    unique = (
        ("faults", "gcd", {"trials": 2}, 18),
        ("faults", "diffeq", {"trials": 2}, 18),
        ("faults", "ewf", {"trials": 2}, 18),
        ("faults", "fir", {"trials": 2}, 18),
        ("verify", "gcd", {"runs": 1}, 26),
        ("verify", "diffeq", {"runs": 1}, 26),
        ("verify", "ewf", {"runs": 1}, 26),
    )
    levels = ("unoptimized", "gt", "gt+lt", "gt+lt+min")
    duplicates = 74
    #: a duplicate trails its original by at least this many jobs, so
    #: the original has been submitted before the duplicate is
    min_gap = 3

    def inputs(self, seed: int) -> dict:
        rng = random.Random(f"serve:{seed}")
        seeds = rng.sample(range(1, 10**6), sum(count for *_, count in self.unique))
        originals = []
        for kind, workload, fixed, count in self.unique:
            for _ in range(count):
                originals.append([kind, {"workload": workload, "seed": seeds.pop(), **fixed}])
        for workload in ("diffeq", "fir", "gcd", "ewf"):
            for level in self.levels:
                originals.append(["synthesize", {"workload": workload, "level": level}])
        rng.shuffle(originals)
        jobs = list(originals)
        for _ in range(self.duplicates):
            position = rng.randrange(self.min_gap, len(jobs) + 1)
            jobs.insert(position, list(jobs[rng.randrange(0, position - self.min_gap + 1)]))
        return {"jobs": jobs}

    def setup(self, inputs: dict, scratch: Path) -> dict:
        from repro.serve.harness import ServerHarness
        from repro.serve.server import ServerConfig

        harness = ServerHarness(
            scratch / "serve.sqlite3",
            ServerConfig(workers=self.workers, executor="process"),
        ).start()
        # boot both pool workers before the clock starts: two distinct
        # explore jobs (a kind the mix never uses) in flight at once
        client = harness.client(timeout=120.0)
        warm = [
            client.submit("explore", {"workload": w, "gts": [[]], "lts": [[]]})
            for w in ("gcd", "ewf")
        ]
        for job in warm:
            client.wait(job["job_id"], timeout=120.0, poll=POLL_S)
        return {"harness": harness, "jobs": inputs["jobs"], "warm": len(warm)}

    def run(self, state: dict, recorder=None) -> Outcome:
        from repro.errors import ReproError
        from repro.resilience.pool import RetryPolicy
        from repro.serve.client import ServeClient
        from repro.serve.jobs import TERMINAL_STATES, canonical_json
        from repro.workloads import golden_reference

        harness = state["harness"]
        jobs = state["jobs"]
        outcomes: List[Optional[dict]] = [None] * len(jobs)
        spans: List[Optional[Tuple[float, float]]] = [None] * len(jobs)
        errors: List[str] = []
        cursor = iter(range(len(jobs)))
        lock = threading.Lock()

        def client_loop(index: int) -> None:
            # no retries: a refusal or a dropped request is a failure
            client = ServeClient(
                "127.0.0.1", harness.port, timeout=120.0,
                policy=RetryPolicy(max_retries=0),
            )
            while True:
                with lock:
                    position = next(cursor, None)
                if position is None:
                    return
                kind, params = jobs[position]
                began = time.perf_counter()
                try:
                    job = client.submit(kind, params, client=f"c{index}", wait_shed=False)
                    while job["state"] not in TERMINAL_STATES or (
                        job["state"] == "DONE" and job.get("result") is None
                    ):
                        time.sleep(POLL_S)
                        job = client.job(job["job_id"]) or job
                except (ReproError, OSError) as exc:
                    with lock:
                        errors.append(f"job {position}: {type(exc).__name__}: {exc}")
                    continue
                spans[position] = (began, time.perf_counter())
                outcomes[position] = job

        try:
            start = time.perf_counter()
            threads = [threading.Thread(target=client_loop, args=(i,)) for i in range(self.clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            end = time.perf_counter()
            rebuilds = harness.server.runner.rebuilds
        finally:
            harness.stop()

        problems = list(errors[:10])
        failed = len(errors)
        by_key: Dict[str, str] = {}
        for position, job in enumerate(outcomes):
            if job is None:
                continue
            kind, params = jobs[position]
            text = canonical_json(job.get("result"))
            if job["state"] != "DONE":
                failed += 1
                _note(problems, f"job {position} {kind}: {job['state']} {job.get('error')}")
                continue
            previous = by_key.setdefault(job["key"], text)
            if previous != text:
                failed += 1
                _note(problems, f"job {position}: duplicate result differs from the first")
                continue
            problem = _check_serve_result(kind, params, job["result"], golden_reference)
            if problem:
                failed += 1
                _note(problems, f"job {position} {kind}: {problem}")
        figures = _store_figures(harness.store_path, state["warm"])
        figures["serve.pool_rebuilds"] = float(rebuilds)
        return Outcome(
            began=start,
            ended=end,
            items=len(jobs),
            failed=failed,
            item_spans=[v for v in spans if v is not None],
            documents=sorted(by_key.items()),
            problems=problems,
            layer_figures=figures,
            settings={"clients": self.clients, "workers": self.workers, "poll_ms": POLL_S * 1000.0},
        )


def _check_serve_result(kind: str, params: dict, result: dict, golden_reference) -> str:
    """Independent checks of one served result ('' when it passes)."""
    if kind == "synthesize":
        golden = golden_reference(params["workload"])
        wrong = sorted(r for r, v in golden.items() if result["registers"].get(r) != v)
        return f"registers {wrong} differ from the golden model" if wrong else ""
    if kind == "verify" and not result["report"]["conformant"]:
        return f"verify report not conformant: {result['report']['failures'][:1]}"
    if kind == "faults" and result["report"].get("workload") != params["workload"]:
        return "faults report names another workload"
    return ""


def _store_figures(store_path: Path, warm: int) -> Dict[str, float]:
    """Queue wait, per-kind execution time and dedup ratio from the
    store's own timestamps, read after shutdown (warm-up jobs skipped)."""
    from repro.serve.store import JobStore

    store = JobStore(store_path)
    try:
        jobs = store.jobs()[warm:]
        counters = store.counters()
    finally:
        store.close()
    executed = [j for j in jobs if not j.dedup and j.started_at]
    figures = {
        "serve.queue_wait_ms": statistics.median(
            (j.started_at - j.created_at) * 1000.0 for j in executed
        ) if executed else 0.0,
        "serve.dedup_hit_ratio": (counters.get("dedup_hits", 0)) / max(1, counters.get("submissions", 0) - warm),
    }
    for kind in ("faults", "synthesize", "verify"):
        spans = [(j.finished_at - j.started_at) * 1000.0 for j in executed if j.kind == kind]
        figures[f"serve.exec_ms.{kind}"] = statistics.median(spans) if spans else 0.0
    return figures


WORKLOADS = {w.name: w for w in (Sweep(), ShardedSweep(), Compile(), Serve())}
