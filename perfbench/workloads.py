"""The four workloads: their operations, and the check of every answer.

An operation is one CLI call, one per-graph verdict sweep, one
``verify_sper`` degree, one witness claim, or one oracle diff.  Each is a
``run`` that returns a plain answer, timed, and a ``check`` that compares
the answer with ``reference`` after the timed section.  Operations call the
package through module attributes, so the wrappers of a traced pass see
them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from invgraph import cli
from invgraph import graph_engine as ge
from invgraph import partitions as pa
from invgraph import subgroup_membership as sm
from invgraph import witness_verifier as wv
from invgraph.arith import proper_block_sizes
from invgraph.permutations import GroupKind

import reference as ref

EXACT_DEGREES = (3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 17, 19)
GROUPS = {"sym": GroupKind.SYM, "alt": GroupKind.ALT}
# 15..30 keeps one large-n pass near 3 s on a 2-core Xeon; n = 31 alone
# adds about 2 s, which halves the passes a run can take.
SPER_DEGREES = range(15, 31)
# S_7 is left out: it alone takes 3-4.5 s, two thirds of the workload, and
# left a 25 s run 3-5 passes whose median spread by a third over ten runs.
ORACLE_EDGE_GRAPHS = ((5, "sym"), (5, "alt"), (6, "sym"), (6, "alt"), (7, "alt"))
# Degree 12 is left out: its oracle alone takes about 10 s and 107 MB.
ORACLE_WREATH_DEGREES = (4, 6, 8, 9, 10)

# Degrees whose fingerprints a workload finds in its cache, filled once per
# run before any pass.  exact-cold starts every pass from an empty cache.
PREFILL = {
    "exact-cold": (),
    "exact-warm": EXACT_DEGREES,
    "large-n": tuple(n for n in EXACT_DEGREES if n >= 11),
    "oracles": (5, 6, 7),
}


@dataclass
class Op:
    label: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def snapshot(directory: str) -> dict:
    """Names, sizes and modification times of the files in a cache directory."""
    try:
        entries = list(os.scandir(directory))
    except FileNotFoundError:
        return {}
    return {e.name: (e.stat().st_size, e.stat().st_mtime_ns) for e in entries}


def prefill(name: str, cache_dir: str) -> None:
    for n in PREFILL[name]:
        sm.degree_fingerprints(n, cache_dir)


def build(name: str, seed: int, cache_dir: str) -> list[Op]:
    """The operations of one workload, in the order the seed shuffles them to."""
    if name == "exact-cold":
        ops = _cli_ops(cache_dir)
    elif name == "exact-warm":
        ops = _cli_ops(cache_dir) + [
            _verdict_op(n, g, cache_dir) for n in EXACT_DEGREES for g in GROUPS
        ]
    elif name == "large-n":
        ops = [_sper_op(n) for n in SPER_DEGREES] + [
            _witness_op(lemma, n, g, cache_dir)
            for (lemma, g), degrees in ref.WITNESS_DEGREES.items()
            for n in degrees
        ]
    elif name == "oracles":
        ops = [_oracle_edges_op(n, g, cache_dir) for n, g in ORACLE_EDGE_GRAPHS]
        ops += [_oracle_wreath_op(n) for n in ORACLE_WREATH_DEGREES]
    else:
        raise ValueError(f"unknown workload {name!r}")
    random.Random(seed).shuffle(ops)
    return ops


# --- CLI calls --------------------------------------------------------------


def _cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_ops(cache_dir: str) -> list[Op]:
    ops = [
        Op(
            "table1",
            "cli",
            lambda: _cli(["table1", "--format", "json", "--cache-dir", cache_dir]),
            _check_table1,
        )
    ]
    for n in EXACT_DEGREES:
        for g in GROUPS:
            argv = ["xi", "--n", str(n), "--group", g, "--format", "json", "--cache-dir", cache_dir]
            ops.append(
                Op(f"xi-{g}{n}", "cli", lambda argv=argv: _cli(argv), _xi_checker(n, g))
            )
    return ops


def _check_table1(answer) -> str | None:
    code, text = answer
    want = [{"n": n, "sym": s, "alt": a} for n, (s, a) in sorted(ref.TABLE1.items())]
    if code != 0 or json.loads(text) != want:
        return f"table1 gave exit {code}: {text.strip()[:200]}"
    return None


def _xi_checker(n: int, g: str):
    def check(answer) -> str | None:
        code, text = answer
        if code != 0:
            return f"exit {code}"
        data = json.loads(text)
        if (data["degree"], data["group"]) != (n, GROUPS[g].value):
            return f"graph of {data['group']}{data['degree']}"
        if data["xi_diameter"] != ref.XI_DIAMETER[n, g]:
            return f"diameter {data['xi_diameter']}, want {ref.XI_DIAMETER[n, g]}"
        labels = [v["type"] + (v["split"] or "") for v in data["vertices"]]
        if any(v["isolated"] for v in data["vertices"]):
            return "isolated vertex in Xi"
        if len(labels) > ref.class_count(n, g):
            return f"{len(labels)} vertices, more than the {ref.class_count(n, g)} classes"
        shape = (len(labels), len(data["edges"]), ref.graph_digest(labels, data["edges"]))
        if shape != ref.XI_SHAPE[n, g]:
            return f"Xi shape {shape}, want {ref.XI_SHAPE[n, g]}"
        return None

    return check


# --- per-pair verdicts --------------------------------------------------------


def _verdict_op(n: int, g: str, cache_dir: str) -> Op:
    def run():
        graph = ge.build_graph(n, GROUPS[g], cache_dir)
        verdict = sm.shares_subgroup
        vertices = graph.vertices
        count = len(vertices)
        families = []
        for i in range(count):
            vi = vertices[i]
            for j in range(i + 1, count):
                sharing = verdict(vi, vertices[j], cache_dir)
                families.append(None if sharing is None else sharing.family)
        return graph, families

    def check(answer) -> str | None:
        graph, families = answer
        count = len(graph.vertices)
        if count != ref.class_count(n, g):
            return f"{count} vertices, want {ref.class_count(n, g)}"
        if len(families) != count * (count - 1) // 2:
            return f"{len(families)} verdicts for {count} vertices"
        pairs = ((i, j) for i in range(count) for j in range(i + 1, count))
        for (i, j), family in zip(pairs, families):
            if (graph.adjacency[i] >> j & 1) != (family is None):
                return f"edge bit of {graph.vertices[i]}, {graph.vertices[j]} != verdict {family}"
        edges = families.count(None)
        if (n, g) == (6, "sym") and (count, edges) != (ref.S6_VERTICES, ref.S6_EDGES):
            return f"S_6 has {count} vertices and {edges} edges"
        if (n, g) == (19, "alt"):
            isolated = [str(v.cycle_type) for v, row in zip(graph.vertices, graph.adjacency) if not row]
            if isolated != ref.A19_ISOLATED:
                return f"isolated set of A_19 is {isolated}"
        return None

    return Op(f"verdict-{g}{n}", "verdict", run, check)


# --- large degrees ------------------------------------------------------------


def _sper_op(n: int) -> Op:
    def check(answer) -> str | None:
        ok, pair = answer
        got = None if pair is None else tuple(str(p) for p in pair)
        if n not in ref.SPER_VERIFIED and n not in ref.SPER_COUNTEREXAMPLE:
            return f"no reference for verify_sper({n})"
        want = ref.SPER_COUNTEREXAMPLE.get(n)
        if (ok, got) != (want is None, want):
            return f"verify_sper({n}) = {ok}, {got}"
        return None

    return Op(f"sper{n}", "sper", lambda: wv.verify_sper(n), check)


def _witness_op(lemma: str, n: int, g: str, cache_dir: str) -> Op:
    def run():
        report = wv.verify_witness(wv.construct_witness(lemma, n, GROUPS[g]), cache_dir)
        return report.acceptable, bool(report.ledger)

    def check(answer) -> str | None:
        acceptable, ledgered = answer
        if not acceptable:
            return "not acceptable"
        if ledgered != ((lemma, n, g) in ref.LEDGERED):
            return f"ledgered is {ledgered}"
        return None

    return Op(f"witness-{lemma}-{g}{n}", "witness", run, check)


# --- oracles -----------------------------------------------------------------


def _oracle_edges_op(n: int, g: str, cache_dir: str) -> Op:
    def run():
        oracle = ge.oracle_adjacency(n, GROUPS[g])
        exact = ge.build_graph(n, GROUPS[g], cache_dir)
        return len(oracle.vertices), len(ge.adjacency_diff(exact, oracle))

    def check(answer) -> str | None:
        vertices, diffs = answer
        if (vertices, diffs) != (ref.class_count(n, g), 0):
            return f"{diffs} diffs over {vertices} vertices"
        return None

    return Op(f"oracle-edges-{g}{n}", "oracle", run, check)


def _oracle_wreath_op(n: int) -> Op:
    def run():
        checked = diffs = 0
        for m in proper_block_sizes(n):
            for t in pa.enumerate_partitions(n):
                checked += 1
                diffs += sm.wreath_member(t, m) != sm.wreath_member_oracle(t, m)
        return checked, diffs

    def check(answer) -> str | None:
        checked, diffs = answer
        want = len(proper_block_sizes(n)) * ref.partition_count(n)
        if (checked, diffs) != (want, 0):
            return f"{diffs} diffs in {checked} checks, want 0 in {want}"
        return None

    return Op(f"oracle-wreath{n}", "oracle", run, check)
