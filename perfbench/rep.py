"""One timed repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so process-global
memos start empty, as they do for a user running the CLI. It prints
one JSON object on its last line of standard output::

    PYTHONPATH=src python3 perfbench/rep.py --workload compile --seed 0 --scratch DIR [--trace]

Set-up time runs from the first line after the host-speed sidecar is
up to the moment the inputs are built (and, for ``serve``, the server
and its pool are up): interpreter start-up is excluded, imports are
included. Every time is reported twice: raw, and adjusted to the
reference host speed by the sidecar's probes (``hostspeed.py``), which
run from before set-up until the timed work ends.
"""

import time

from hostspeed import Sidecar

SIDECAR = Sidecar().start()
STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--mode", default=None, help="sweep-sharded only: shards | shards1 | serial")
    args = parser.parse_args(argv)

    import repro  # noqa: F401  (imports count as set-up)
    import tracing
    from workloads import WORKLOADS, digest

    workload = WORKLOADS[args.workload]
    args.scratch.mkdir(parents=True, exist_ok=True)
    state = workload.setup(workload.inputs(args.seed), args.scratch)
    setup_end = time.perf_counter()

    recorder = None
    if args.trace:
        spill = args.scratch / "spans"
        spill.mkdir(exist_ok=True)
        recorder = tracing.Recorder(spill).install()
    kwargs = {"mode": args.mode} if args.mode else {}
    outcome = workload.run(state, recorder, **kwargs)
    SIDECAR.stop()
    span = SIDECAR.span

    record = {
        "setup_s": span(STARTED, setup_end),
        "work_s": span(outcome.began, outcome.ended),
        "latencies_ms": [span(b, e) * 1000.0 for b, e in outcome.item_spans],
        "raw": {
            "setup_s": setup_end - STARTED,
            "work_s": outcome.ended - outcome.began,
            "latencies_ms": [(e - b) * 1000.0 for b, e in outcome.item_spans],
        },
        "adjusted": bool(SIDECAR.samples),
        "host_speed": SIDECAR.host_speed(),
        "probes": len(SIDECAR.samples),
        "items": outcome.items,
        "failed": outcome.failed,
        "digest": digest(outcome.documents),
        "problems": outcome.problems,
        "figures": outcome.layer_figures,
        "settings": outcome.settings,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        recorder.uninstall()
        recorder.collect_workers()
        record["layers"] = tracing.layer_metrics(recorder.spans)
        recorder.write(args.scratch / "spans.jsonl")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        SIDECAR.stop()
