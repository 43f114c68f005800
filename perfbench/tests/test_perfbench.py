"""The benchmark's own tests: seeded inputs, the output gate, tracing.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root (a few seconds).
"""

import dataclasses
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def small_compile(tmp_path):
    """A cut-down compile input set: two named designs, three random
    programs, one kernel and one logic design."""
    workload = workloads.WORKLOADS["compile"]
    inputs = workload.inputs(0)
    inputs.update(
        named=[["gcd", {}], ["diffeq", {}]],
        kernels=inputs["kernels"][:1],
        random_seeds=inputs["random_seeds"][:3],
        logic=[["gcd", {}]],
    )
    return workload, workload.setup(inputs, tmp_path)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    workload = workloads.WORKLOADS[name]
    first = json.dumps(workload.inputs(3), sort_keys=True)
    assert first == json.dumps(workload.inputs(3), sort_keys=True)
    assert first != json.dumps(workload.inputs(4), sort_keys=True)


def test_random_programs_keep_their_shape_and_golden_matches_token_sim():
    from repro.cache.space import build_random_program, random_program
    from repro.sim.seeding import NOMINAL
    from repro.sim.token_sim import simulate_tokens

    for seed in workloads.random_program_seeds(random.Random(1), 4):
        program = random_program(seed)
        pre, body, iterations, _units = workloads.RANDOM_SHAPE
        assert (len(program[0]), len(program[1]), program[2]) == (pre, body, iterations)
        registers = simulate_tokens(build_random_program(program), seed=NOMINAL).registers
        for name, value in workloads.interpret_random_program(program).items():
            assert registers[name] == value


def test_serve_duplicates_trail_their_original():
    jobs = workloads.WORKLOADS["serve"].inputs(0)["jobs"]
    keys = [json.dumps(job, sort_keys=True) for job in jobs]
    assert len(jobs) >= 200
    assert 0.25 <= 1 - len(set(keys)) / len(keys) <= 0.35
    first = {}
    for position, key in enumerate(keys):
        if key in first:
            assert position - first[key] >= workloads.Serve.min_gap
        first.setdefault(key, position)


def test_gate_catches_tampered_registers(tmp_path, monkeypatch):
    import repro.sim.system as system

    workload, state = small_compile(tmp_path)
    clean = workload.run(state)
    assert clean.failed == 0 and not clean.problems

    original = system.simulate_system

    def tampered(design, *args, **kwargs):
        result = original(design, *args, **kwargs)
        if design.cdfg.name == "gcd":
            name = sorted(result.registers)[0]
            result.registers[name] = result.registers[name] + 1
        return result

    monkeypatch.setattr(system, "simulate_system", tampered)
    dirty = workload.run(state)
    assert dirty.failed == 2  # the gcd flow item and the gcd logic item
    assert workloads.digest(dirty.documents) == workloads.digest(clean.documents)


def test_gate_catches_an_unproved_sweep_point(tmp_path, monkeypatch):
    import repro.explore as explore

    workload = workloads.WORKLOADS["sweep"]
    inputs = dict(workload.inputs(0), workloads=["gcd"], random_seeds=[], scales=[1.0])
    state = workload.setup(inputs, tmp_path)
    original = explore.explore_design_space

    def tampered(*args, **kwargs):
        result = original(*args, **kwargs)
        result.points[5] = dataclasses.replace(result.points[5], proved=False)
        return result

    monkeypatch.setattr(explore, "explore_design_space", tampered)
    outcome = workload.run(state)
    assert outcome.items == 64 and outcome.failed == 1


def test_gate_catches_a_digest_that_differs_from_the_pin():
    pins = json.loads(bench.GOLDEN.read_text(encoding="utf-8"))
    problems = []
    record = {"digest": "0" * 64}
    assert not bench.check_digests("compile", bench.DEFAULT_SEED, [record], problems)
    assert problems
    assert bench.check_digests("compile", bench.DEFAULT_SEED, [{"digest": pins["compile"]}], [])
    # two repetitions that disagree fail on any seed
    assert not bench.check_digests("compile", 7, [{"digest": "a"}, {"digest": "b"}], [])


def test_traced_outputs_equal_untraced_and_self_times_fit_the_wall(tmp_path):
    workload, state = small_compile(tmp_path)
    plain = workload.run(state)
    recorder = tracing.Recorder().install()
    try:
        start = time.perf_counter()
        traced = workload.run(state, recorder)
        wall = time.perf_counter() - start
    finally:
        recorder.uninstall()
    assert workloads.digest(traced.documents) == workloads.digest(plain.documents)
    metrics = tracing.layer_metrics(recorder.spans)
    self_times = [v for k, v in metrics.items() if k.endswith(".self_s")]
    assert all(v >= -1e-9 for v in self_times)
    assert 0 < sum(self_times) <= wall
    for layer in ("transforms", "afsm", "local_transforms", "sim.system", "logic", "frontend"):
        assert metrics[f"{layer}.calls"] > 0, layer
    # uninstall restored the originals
    import repro.transforms as transforms
    from repro.transforms.scripts import optimize_global

    assert transforms.optimize_global is optimize_global
    assert not hasattr(optimize_global, "__wrapped__")


def test_shard_worker_spans_come_home(tmp_path):
    workload = workloads.WORKLOADS["sweep-sharded"]
    inputs = dict(workload.inputs(0), workloads=["gcd", "ewf"], scales=[1.0])
    state = workload.setup(inputs, tmp_path)
    spill = tmp_path / "spans"
    spill.mkdir()
    recorder = tracing.Recorder(spill).install()
    try:
        start = time.perf_counter()
        outcome = workload.run(state, recorder)
        wall = time.perf_counter() - start
    finally:
        recorder.uninstall()
    assert outcome.failed == 0 and outcome.items == 128
    assert recorder.collect_workers() >= 1
    by_process = tracing.self_time_by_process(recorder.spans)
    assert len(by_process) >= 2
    assert all(0 <= total <= wall for total in by_process.values())
    metrics = tracing.layer_metrics(recorder.spans)
    for layer in ("cache.shards", "cache.journal", "verify.flow", "sim.system"):
        assert metrics[f"{layer}.calls"] > 0, layer


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compile", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_sidecar_adjusts_each_stretch_by_its_probes():
    ref = hostspeed.REFERENCE_PROBE_S
    sidecar = hostspeed.Sidecar()
    assert sidecar.span(1.0, 4.0) == 3.0  # no samples: raw time
    # probes at 10 s (host at reference speed), 12 s and 14 s (2x slow)
    sidecar.samples = [(10.0, ref), (12.0, 2 * ref), (14.0, 2 * ref)]
    assert sidecar.span(10.0, 12.0) == pytest.approx(2.0 / 1.5)
    assert sidecar.span(12.0, 14.0) == pytest.approx(1.0)
    assert sidecar.span(14.0, 16.0) == pytest.approx(1.0)  # the last probe holds
    assert sidecar.span(9.0, 10.0) == pytest.approx(1.0)  # so does the first
    assert sidecar.host_speed() == pytest.approx(0.5)


def test_sidecar_probes_until_stopped_and_exits():
    sidecar = hostspeed.Sidecar().start()
    process = sidecar._proc
    time.sleep(3 * hostspeed.PROBE_EVERY_S)
    sidecar.stop()
    assert process.poll() is not None
    # no samples at all where real-time scheduling is refused
    assert not sidecar.samples or len(sidecar.samples) >= 2
    assert all(p > 0 for _, p in sidecar.samples)
