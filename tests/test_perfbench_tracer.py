"""The benchmark's traced pass still reads the package it wraps.

``perfbench/tracer.py`` wraps module functions by name and reads some of
their ``cache_info()``, so a refactor that renames a function or drops its
cache breaks only traced runs.  This runs one small operation of each kind
under the tracer, in a fresh interpreter, and asks for every metric.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Added outside the tracer: cli.bytes_out by worker.py, trace.* by run.py.
NOT_FROM_TRACER = {"cli.bytes_out", "trace.wall_s", "trace.overhead_s"}

_TRACED_OPS = """
import json, sys
root, cache = sys.argv[1], sys.argv[2]
sys.path[:0] = [root + "/perfbench", root + "/src"]
import tracer
import workloads as wl
ops = [
    next(op for op in wl._cli_ops(cache) if op.label == "xi-sym5"),
    wl._verdict_op(6, "alt", cache),
    wl._sper_op(15),
    wl._witness_op("mun", 11, "sym", cache),
    wl._oracle_edges_op(5, "sym", cache),
    wl._oracle_wreath_op(6),
]
tr = tracer.Tracer()
tr.install()
problems = {op.label: op.check(tr.span("op:" + op.label, op.run)) for op in ops}
print(json.dumps({"problems": problems, "metrics": tr.metrics()}))
"""


def test_traced_ops_report_every_layer_metric(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "INVGRAPH_CACHE_DIR"}
    done = subprocess.run(
        [sys.executable, "-c", _TRACED_OPS, str(ROOT), str(tmp_path / "cache")],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert set(out["problems"].values()) == {None}, out["problems"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = out["metrics"]
    assert set(metrics) == {m["name"] for m in declared} - NOT_FROM_TRACER
    assert all(math.isfinite(value) for value in metrics.values()), metrics
    # each kind of operation reached its layer
    for name in (
        "cli.s",
        "subgroup_membership.verdict_pairs",
        "witness_verifier.sper_s",
        "witness_verifier.claims",
        "graph_engine.oracle_pairs",
        "subgroup_membership.wreath_calls",
    ):
        assert metrics[name] > 0, name
