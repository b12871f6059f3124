#!/usr/bin/env python3
"""The invgraph benchmark: one workload, measured end to end or per layer.

    python3 perfbench/run.py --workload exact-warm --seed 1 --seconds 20 --trace 0

Every pass runs in a fresh interpreter (``worker.py``) with a private
fingerprint cache under ``.perfbench_run/`` and ``INVGRAPH_CACHE_DIR``
unset, so in-memory caches start empty and ``./.invgraph-cache`` is never
read or written.  Passes repeat until ``--seconds`` is used up (at least
three); each metric is the median over the passes.  End-to-end timings
are scaled to the reference speed of ``speed.py``, which removes the host's
own swings in speed; the measured times stay in the run record.  With
``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics come from the traced ones.

Everything printed is for a reader except the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
of a run (environment, every pass, the spans of a traced pass) goes to
``.perfbench_run/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_run"
WORKLOADS = ("exact-cold", "exact-warm", "large-n", "oracles")
COLD = "exact-cold"  # the one workload whose passes each start from an empty cache
MIN_PASSES = 3
SETUP_PROBES = 5
DEADLINE_S = 170  # a run must end within 180 s

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "slowest_op_s": "s",
    "ops": "count",
    "correct_frac": "ratio",
}


class BenchError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("PYTHON") and k != "INVGRAPH_CACHE_DIR"
    }
    env["PYTHONHASHSEED"] = "0"  # same set and dict layouts in every pass
    return env


def _spawn(mode, args, cache_dir, tmp, deadline, trace=False):
    """Run one worker to completion; returns its result and start/end times."""
    result = tmp / "result.json"
    cmd = [
        sys.executable, "-s", str(HERE / "worker.py"),
        "--mode", mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--cache-dir", str(cache_dir),
        "--result", str(result),
        "--trace", str(int(trace)),
    ]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=tmp, env=_child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker did not finish before the deadline") from exc
    t1 = time.monotonic()
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    data = json.loads(result.read_text())
    result.unlink()
    return data, t0, t1


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        "commit": _git_commit(),
    }


def run_passes(args, tmp: Path) -> tuple[list[float], list[dict]]:
    deadline = time.monotonic() + DEADLINE_S
    shared = tmp / "cache"
    shared.mkdir()
    # Fills the cache of the warm workloads; for every workload it also
    # compiles the package's bytecode before anything is timed.
    _spawn("prefill", args, shared, tmp, deadline)
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            data, t0, _ = _spawn("probe", args, shared, tmp, deadline)
            setups.append((data["setup_end"] - t0) * data["setup_speed"])
    min_passes = 2 * MIN_PASSES - 2 if args.trace else MIN_PASSES
    passes = []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        cache = shared
        if args.workload == COLD:
            cache = tmp / f"cold-{len(passes)}"
            cache.mkdir()
        data, t0, _ = _spawn("pass", args, cache, tmp, deadline, traced)
        if cache is not shared:
            shutil.rmtree(cache)
        data["traced"] = traced
        if not traced:
            setups.append((data["setup_end"] - t0) * data["setup_speed"])
        passes.append(data)
        used = time.monotonic() - start
        per_pass = used / len(passes)
        if len(passes) >= min_passes and used + per_pass > args.seconds:
            break
        if time.monotonic() + 2 * per_pass > deadline:
            if len(passes) < min_passes:
                raise BenchError(f"only {len(passes)} passes fit before the deadline")
            break
    return setups, passes


def scaled_ops(p) -> list[float]:
    """A pass's operation times at the reference speed."""
    return [t * v for t, v in zip(p["op_s"], p["op_speed"])]


def summarize(args, setups, passes) -> tuple[dict, dict]:
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    median = statistics.median
    wall = median(sum(scaled_ops(p)) for p in plain)
    if not args.trace:
        # Operations run in the same order in every pass of a run.
        per_op = zip(*(scaled_ops(p) for p in plain))
        metrics = {
            "wall_s": wall,
            "setup_s": median(setups),
            "peak_rss_mb": median(p["rss_mb"] for p in plain),
            "slowest_op_s": max(median(times) for times in per_op),
            "ops": len(plain[0]["op_s"]),
        }
        units = dict(END_TO_END)
    else:
        metrics = {name: median(p["layers"][name] for p in traced) for name in traced[0]["layers"]}
        metrics["trace.wall_s"] = median(sum(scaled_ops(p)) for p in traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall
        units = {name: layer_unit(name) for name in metrics}
    attempted = sum(len(p["op_s"]) for p in passes)
    failed = min(attempted, sum(len(p["failures"]) for p in passes))
    if not args.trace:
        metrics["correct_frac"] = 1 - failed / attempted
    outcome = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    return outcome, units


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name == "primitive_rules.s" or name == "cli.s":
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes") or name.endswith("bytes_out"):
        return "bytes"
    return "count"


def layer_shares(passes) -> list[tuple[str, float]]:
    """Median share of traced wall time spent in each layer's own code."""
    traced = [p for p in passes if p["traced"]]
    layers = {}
    for p in traced:
        own = {}
        for key, value in p["self_s"].items():
            name = "benchmark" if key.startswith("op:") else key
            own[name] = own.get(name, 0.0) + value
        for name, value in own.items():
            layers.setdefault(name, []).append(value / p["wall_s"])
    return sorted(
        ((name, statistics.median(v)) for name, v in layers.items()), key=lambda kv: -kv[1]
    )


def report(args, env, setups, passes, outcome, units) -> None:
    plain = sum(not p["traced"] for p in passes)
    print(
        f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s: "
        f"{len(passes)} passes ({plain} untraced, {len(passes) - plain} traced), "
        f"{len(setups)} set-up samples"
    )
    print("environment " + json.dumps(env, sort_keys=True))
    plain = [p for p in passes if not p["traced"]]
    print(
        f"measured, before scaling to the reference speed: median untraced pass "
        f"{statistics.median(p['wall_s'] for p in plain):.6f} s, median host speed "
        f"{statistics.median(sum(scaled_ops(p)) / sum(p['op_s']) for p in plain):.3f}"
    )
    for name, entry in outcome["metrics"].items():
        print(f"  {name:<42} {entry['value']:>18.6f} {units[name]}")
    if args.trace:
        shares = layer_shares(passes)
        print("self time as a share of the traced pass ('benchmark': op loops and wrappers):")
        for name, share in shares:
            print(f"  {name:<42} {100 * share:>8.2f} %")
        top = next(name for name, _ in shares if name != "benchmark")
        print(f"dominant layer: {top}")
    for p in passes:
        for label, problem in p["failures"].items():
            print(f"FAILED {label}: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "invgraph" / "__init__.py").is_file():
        print(f"error: no invgraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        env = environment()
        setups, passes = run_passes(args, tmp)
        outcome, units = summarize(args, setups, passes)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    record = {
        "args": vars(args),
        "environment": env,
        "setup_s": setups,
        "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes],
        "spans": next((p["spans"] for p in reversed(passes) if p["traced"]), []),
        "outcome": outcome,
    }
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))
    report(args, env, setups, passes, outcome, units)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
