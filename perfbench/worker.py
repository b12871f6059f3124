"""One pass of one workload, in a fresh interpreter started by ``run.py``.

Modes:

* ``prefill``: fill the cache directory with the fingerprints the workload
  expects to find there, then exit;
* ``probe``: import, handle arguments and build the operation list, report
  the moment set-up ended and the host's speed during set-up, then exit;
* ``pass``: the same set-up, then the timed section (every operation once,
  in the seed's order), then the answer checks.  The result, with each
  operation's time and the host's speed during it (``speed.py``), goes to
  the JSON file named by ``--result``.
"""

from __future__ import annotations

import speed

SAMPLER = speed.Sampler()
SAMPLER.start()  # before the imports, which are part of set-up

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import invgraph  # noqa: E402

import workloads  # noqa: E402

# Fingerprints are only ever read from and written to the directory the
# benchmark hands over; this is where the package would look by default.
DEFAULT_CACHE = ".invgraph-cache"


class Raised(str):
    """The traceback of an operation that raised instead of answering."""


def _cache_problem(name: str, before: dict, after: dict) -> str | None:
    """An empty cache must be written (every lookup missed); a filled one must
    be left exactly as it was (every lookup hit)."""
    if os.path.exists(DEFAULT_CACHE):
        return "the package touched the default cache directory"
    if not workloads.PREFILL[name]:
        if before or not after:
            return f"cold cache: {len(before)} files before, {len(after)} after"
    elif not before or after != before:
        return "warm cache was rewritten"
    return None


def _trace_problem(name: str, layers: dict, lookups: int) -> str | None:
    hits = layers["subgroup_membership.cache_hits"]
    misses = layers["subgroup_membership.cache_misses"]
    want = (0, lookups) if not workloads.PREFILL[name] else (lookups, 0)
    if not lookups or (hits, misses) != want:
        return f"{hits} cache hits and {misses} misses in {lookups} lookups"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("prefill", "probe", "pass"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not Path(invgraph.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported invgraph from {invgraph.__file__}", file=sys.stderr)
        return 2
    result_path = Path(args.result)
    if args.mode == "prefill":
        SAMPLER.stop()
        workloads.prefill(args.workload, args.cache_dir)
        result_path.write_text("{}")
        return 0

    ops = workloads.build(args.workload, args.seed, args.cache_dir)
    setup_end = time.monotonic()
    SAMPLER.sample()
    setup_speed = SAMPLER.speed(SAMPLER.times[0], SAMPLER.times[-1])
    if args.mode == "probe":
        SAMPLER.stop()
        result_path.write_text(json.dumps({"setup_end": setup_end, "setup_speed": setup_speed}))
        return 0

    before = workloads.snapshot(args.cache_dir)
    tr = None
    if args.trace:
        import tracer

        tr = tracer.Tracer()
        tr.install()
    clock = time.perf_counter
    answers, op_s, op_start = [], [], []
    start = clock()
    for op in ops:
        t0 = clock()
        op_start.append(t0)
        try:
            answers.append(tr.span("op:" + op.label, op.run) if tr else op.run())
        except Exception:  # a failed operation is counted, and the pass goes on
            answers.append(Raised(traceback.format_exc(limit=-3)))
        op_s.append(clock() - t0)
    wall_s = clock() - start
    SAMPLER.stop()
    op_speed = [SAMPLER.speed(t0, t0 + dt) for t0, dt in zip(op_start, op_s)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = {}
    for op, answer in zip(ops, answers):
        if isinstance(answer, Raised):
            failures[op.label] = "raised " + answer
            continue
        try:
            problem = op.check(answer)
        except Exception as exc:  # a malformed answer fails its operation
            problem = f"check raised {exc!r}"
        if problem:
            failures[op.label] = problem
    problem = _cache_problem(args.workload, before, workloads.snapshot(args.cache_dir))
    if problem:
        failures["cache-state"] = problem
    result = {
        "setup_end": setup_end,
        "setup_speed": setup_speed,
        "wall_s": wall_s,
        "rss_mb": rss_mb,
        "labels": [op.label for op in ops],
        "op_s": op_s,
        "op_speed": op_speed,
        "failures": failures,
    }
    if tr:
        layers = tr.metrics()
        layers["cli.bytes_out"] = sum(
            len(a[1].encode()) for op, a in zip(ops, answers) if op.kind == "cli" and isinstance(a, tuple)
        )
        problem = _trace_problem(args.workload, layers, tr.count["lookups"])
        if problem:
            failures["cache-lookups"] = problem
        result["layers"] = layers
        result["self_s"] = dict(tr.self_time)
        result["spans"] = [
            (name, t0 - start, t1 - start, parent) for name, t0, t1, parent in tr.spans
        ]
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
