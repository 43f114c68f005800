"""The repository benchmark: one command per workload, every output checked.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 27 --trace 0

Repeats the workload in fresh interpreters (``rep.py``) for about
``--seconds`` (at least twice), then prints each metric by name and unit
and, as the last line, one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (medians over the
repetitions, times adjusted to a reference host speed by
``hostspeed.py``; a ``# unadjusted:`` line gives them from raw times);
``--trace 1`` runs one untraced and one traced repetition and reports
the per-layer split instead. See
``perfbench/README.md`` for every metric, workload and the gate.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
#: the seed whose output digests are pinned in golden.json
DEFAULT_SEED = 0
WORKLOADS = ("sweep", "sweep-sharded", "compile", "serve")
END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
#: a repetition that does not finish in this time is a failure
REP_TIMEOUT_S = 150.0
#: repetitions a timed run makes at least, whatever --seconds says
MIN_REPS = 2


class BenchError(Exception):
    """The benchmark could not produce a result."""


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def child_env(scratch: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # keep library temporaries (pool sockets included) inside the
    # checkout, unless that path is too long for a unix socket name
    tmp = scratch / "tmp"
    if len(str(tmp)) < 60:
        tmp.mkdir(parents=True, exist_ok=True)
        env["TMPDIR"] = str(tmp)
    return env


def group_alive(pgid: int) -> bool:
    """Whether any live (non-zombie) process is in process group ``pgid``."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process ended while we looked
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def stop_group(pgid: int, grace: float = 10.0) -> None:
    """Wait until every process of a repetition has ended; after
    ``grace`` seconds, kill what is left and wait for that."""
    deadline = time.monotonic() + grace
    while group_alive(pgid):
        if time.monotonic() > deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                return
            deadline = time.monotonic() + grace
        time.sleep(0.02)


def run_rep(workload: str, seed: int, scratch: Path, index: int, trace=False, mode=None) -> dict:
    """One repetition in a fresh interpreter; returns its record."""
    rep_dir = scratch / f"rep{index}"
    command = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", workload, "--seed", str(seed), "--scratch", str(rep_dir),
    ]
    if trace:
        command.append("--trace")
    if mode:
        command += ["--mode", mode]
    # its own session, so every process it starts (pools, forkserver)
    # can be waited for and, if need be, killed as one group
    proc = subprocess.Popen(
        command, cwd=ROOT, env=child_env(scratch), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} repetition {index} exceeded {REP_TIMEOUT_S:g}s")
    finally:
        stop_group(proc.pid)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{workload} repetition {index} exited {proc.returncode}:\n{stderr[-2000:]}"
        )
    record = json.loads(lines[-1])
    if trace:
        traces = ROOT / ".perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(rep_dir / "spans.jsonl", traces / f"{workload}-seed{seed}.jsonl")
    shutil.rmtree(rep_dir, ignore_errors=True)
    return record


def end_to_end(reps: list, raw: bool = False) -> dict:
    """Medians over repetitions of each end-to-end metric; times are
    adjusted to the reference host speed (``hostspeed.py``), or raw
    with ``raw=True``.

    Every repetition gets the same items in the same order, so item
    latencies are first taken item by item as the median over the
    repetitions, and the percentiles are read from those medians: a
    burst of load that slows a few items in one repetition then moves
    no percentile."""
    times = [r["raw"] if raw else r for r in reps]
    items = [statistics.median(sample) for sample in zip(*(t["latencies_ms"] for t in times))]
    values = {
        "setup_s": statistics.median(t["setup_s"] for t in times),
        "items_per_s": statistics.median(r["items"] / t["work_s"] for r, t in zip(reps, times)),
        "item_p50_ms": percentile(items, 0.50),
        "item_p95_ms": percentile(items, 0.95),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def percentile(values: list, fraction: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


def per_layer(reps: list) -> dict:
    """The traced repetition's layer split plus the workload figures.

    ``reps`` is the untraced repetition, the traced one and, on
    ``sweep-sharded``, the one-shard and serial comparison runs."""
    plain, traced = reps[0], reps[1]
    metrics = {
        name: {"value": value, "unit": "count" if name.endswith(".calls") else "s"}
        for name, value in sorted(traced["layers"].items())
    }
    figures = dict(plain["figures"])
    if len(reps) == 4:
        one, serial = reps[2], reps[3]
        figures["shards.parallel_speedup"] = one["work_s"] / plain["work_s"]
        figures["shards.memo_gain"] = serial["work_s"] / one["work_s"]
    figures["trace.overhead_frac"] = traced["work_s"] / plain["work_s"] - 1.0
    for name, unit in FIGURES.items():
        metrics[name] = {"value": figures.get(name, 0.0), "unit": unit}
    return metrics


#: workload figures a traced run reports; a workload without one reports 0
FIGURES = {
    "cache.reuse_ratio": "ratio",
    "journal.resume_s": "s",
    "shards.effective": "count",
    "shards.stolen_units": "count",
    "shards.parallel_speedup": "ratio",
    "shards.memo_gain": "ratio",
    "logic.literals": "count",
    "serve.queue_wait_ms": "ms",
    "serve.exec_ms.faults": "ms",
    "serve.exec_ms.synthesize": "ms",
    "serve.exec_ms.verify": "ms",
    "serve.dedup_hit_ratio": "ratio",
    "serve.pool_rebuilds": "count",
    "trace.overhead_frac": "ratio",
}


def check_digests(workload: str, seed: int, reps: list, problems: list) -> bool:
    """Every repetition's outputs agree, and equal the pinned digest
    when the seed is the pinned one."""
    digests = {r["digest"] for r in reps}
    ok = len(digests) == 1
    if not ok:
        problems.append(f"repetitions disagree on outputs: {sorted(digests)}")
    if seed == DEFAULT_SEED and GOLDEN.exists():
        pinned = json.loads(GOLDEN.read_text(encoding="utf-8")).get(workload)
        if pinned is not None and pinned not in digests:
            problems.append(f"outputs differ from the pinned digest {pinned}")
            ok = False
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--update-golden", action="store_true",
        help="pin this run's output digest for the default seed",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench" / f"run-{os.getpid()}"
    try:
        return measure(args, scratch)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, scratch: Path) -> int:
    meta = {
        "workload": args.workload, "seed": args.seed, "commit": commit(),
        "usable_cpus": usable_cpus(), "python": platform.python_version(),
        "trace": args.trace,
    }
    began = time.monotonic()
    reps = [run_rep(args.workload, args.seed, scratch, 0)]
    if args.trace:
        reps.append(run_rep(args.workload, args.seed, scratch, 1, trace=True))
        if args.workload == "sweep-sharded":
            # the same space and code at one shard, and as independent
            # serial per-context sweeps: parallel gain and memo gain, apart
            reps.append(run_rep(args.workload, args.seed, scratch, 2, mode="shards1"))
            reps.append(run_rep(args.workload, args.seed, scratch, 3, mode="serial"))
    else:
        # start another repetition while at least half of it is expected
        # to fall within --seconds, so a run lasts about --seconds however
        # fast the host is; never fewer than MIN_REPS, so there is a median
        while True:
            reps.append(run_rep(args.workload, args.seed, scratch, len(reps)))
            elapsed = time.monotonic() - began
            if len(reps) >= MIN_REPS and elapsed + elapsed / len(reps) / 2 > args.seconds:
                break
    meta["repetitions"] = len(reps)
    meta["host_speed"] = statistics.median(r["host_speed"] for r in reps)
    meta["adjusted"] = all(r["adjusted"] for r in reps)
    meta["probes"] = sum(r["probes"] for r in reps)
    meta.update(reps[0]["settings"])

    problems = [p for r in reps for p in r["problems"]]
    attempted = sum(r["items"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if args.update_golden and args.seed == DEFAULT_SEED and not failed:
        pins = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
        pins[args.workload] = reps[0]["digest"]
        GOLDEN.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    digests_ok = check_digests(args.workload, args.seed, reps, problems)
    metrics = per_layer(reps) if args.trace else end_to_end(reps)
    correct = digests_ok and failed == 0

    print("# " + json.dumps(meta, sort_keys=True))
    for problem in problems[:10]:
        print(f"# problem: {problem}")
    if not args.trace:
        unadjusted = {name: m["value"] for name, m in end_to_end(reps, raw=True).items()}
        print("# unadjusted: " + json.dumps(unadjusted, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{args.workload:14s} {name:32s} {metric['value']:14.6g} {metric['unit']}")
    print(f"{args.workload:14s} {'failed_frac':32s} {failed / max(1, attempted):14.6g} ratio")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
