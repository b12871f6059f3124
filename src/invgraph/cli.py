"""Command-line interface.

Subcommands: graph, xi, table1, isolated, witness, oracle-edges,
oracle-wreath, catalog.  Exit status: 0 on success or Verified, 1 on a
verification failure or a nonzero diff, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from invgraph.arith import proper_block_sizes
from invgraph.partitions import enumerate_partitions
from invgraph.permutations import GroupKind
from invgraph.graph_engine import (
    SpecialDiameter,
    adjacency_diff,
    build_graph,
    diameter,
    export,
    isolated_vertices,
    oracle_adjacency,
    xi_subgraph,
)
from invgraph.subgroup_membership import (
    default_cache_dir,
    degree_fingerprints,
    primitive_catalog,
    wreath_member,
    wreath_member_oracle,
)
from invgraph.witness_verifier import (
    LEMMA_IDS,
    InadmissibleDegree,
    build_isolated_family,
    construct_witness,
    table1,
    verify_lm,
    verify_witness,
)

USAGE_ERROR = 2


def _group(value: str) -> GroupKind:
    return GroupKind.SYM if value == "sym" else GroupKind.ALT


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cache_dir(args) -> str:
    return args.cache_dir or str(default_cache_dir())


def cmd_graph(args) -> int:
    g = build_graph(args.n, _group(args.group), _cache_dir(args))
    _emit(export(g, args.format), args.out)
    return 0


def cmd_xi(args) -> int:
    g = xi_subgraph(build_graph(args.n, _group(args.group), _cache_dir(args)))
    if args.format == "text":
        d = diameter(g)
        tag = "S" if args.group == "sym" else "A"
        shown = "null graph" if d is SpecialDiameter.EMPTY else d
        _emit(
            f"Xi({tag}_{args.n}): {len(g.vertices)} vertices, {len(g.edges())} edges, "
            f"diameter {shown}\n",
            args.out,
        )
    else:
        _emit(export(g, args.format), args.out)
    return 0


def cmd_table1(args) -> int:
    rows = table1(_cache_dir(args))
    if args.format == "csv":
        lines = ["n,sym,alt"] + [f"{n},{s},{a}" for n, s, a in rows]
        _emit("\n".join(lines) + "\n", args.out)
    elif args.format == "json":
        _emit(
            json.dumps(
                [{"n": n, "sym": str(s), "alt": str(a)} for n, s, a in rows],
                sort_keys=True,
            )
            + "\n",
            args.out,
        )
    else:
        lines = [f"{'n':>3} {'d(Xi(S_n))':>12} {'d(Xi(A_n))':>12}"]
        lines += [f"{n:>3} {str(s):>12} {str(a):>12}" for n, s, a in rows]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_isolated(args) -> int:
    group = _group(args.group)
    if args.family:
        members = build_isolated_family(args.n, group)
        _emit("\n".join(str(p) for p in members) + "\n", args.out)
        return 0
    g = build_graph(args.n, group, _cache_dir(args))
    iso = isolated_vertices(g)
    lines = [f"{len(iso)} isolated of {len(g.vertices)} vertices"]
    lines += [v.text() for v in iso]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_witness(args) -> int:
    group = _group(args.group) if args.group else None
    try:
        if args.lemma == "lm":
            ok, predicted = verify_lm(args.n, _cache_dir(args))
            payload = {
                "lemma": "lm",
                "n": args.n,
                "isolated": [str(p) for p in predicted],
                "verified": ok,
            }
            _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
            return 0 if ok else 1
        claim = construct_witness(args.lemma, args.n, group)
    except InadmissibleDegree as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    report = verify_witness(claim, _cache_dir(args))
    _emit(report.to_json() + "\n", args.out)
    return 0 if report.acceptable else 1


def cmd_oracle_edges(args) -> int:
    group = _group(args.group)
    exact = build_graph(args.n, group, _cache_dir(args))
    oracle = oracle_adjacency(args.n, group)
    diffs = adjacency_diff(exact, oracle)
    _emit(
        f"{len(diffs)} diffs over {len(exact.vertices)} vertices "
        f"({len(exact.edges())} edges)\n"
        + "".join(f"{a} vs {b}\n" for a, b in diffs),
        args.out,
    )
    return 0 if not diffs else 1


def cmd_oracle_wreath(args) -> int:
    types = list(enumerate_partitions(args.n))  # raises ValueError when n < 1
    block_sizes = proper_block_sizes(args.n)
    if not block_sizes:  # nothing to compare: a pass would claim a check never made
        raise ValueError(f"degree {args.n} has no proper block size")
    diffs = []
    for m in block_sizes:
        for t in types:
            if wreath_member(t, m) != wreath_member_oracle(t, m):
                diffs.append((t, m))
    _emit(
        f"{len(diffs)} diffs at degree {args.n}\n"
        + "".join(f"type {t} block size {m}\n" for t, m in diffs),
        args.out,
    )
    return 0 if not diffs else 1


def cmd_catalog(args) -> int:
    fps = degree_fingerprints(args.n, _cache_dir(args))
    lines = []
    for spec, fp in zip(primitive_catalog(args.n).groups, fps):
        split = sum(1 for inc in fp.types.values() if inc)
        lines.append(
            f"{spec.name}: order {spec.expected_order}, family {spec.family.value}, "
            f"{len(fp.types)} cycle types, {split} split types"
        )
    _emit("\n".join(lines) + "\n" if lines else "(empty catalog)\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invgraph",
        description="Invariable-generation class graphs of symmetric and alternating groups",
    )
    parser.add_argument("--cache-dir", default=None, help="fingerprint cache directory")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--out", default=None, help="write output to a file")
        # SUPPRESS keeps a --cache-dir given before the subcommand
        p.add_argument("--cache-dir", dest="cache_dir", default=argparse.SUPPRESS)
        return p

    p = add("graph", cmd_graph, help="build and export the class graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--group", choices=("sym", "alt"), default="sym")
    p.add_argument("--format", choices=("dot", "json", "csv"), default="json")

    p = add("xi", cmd_xi, help="export the reduced graph with its diameter")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--group", choices=("sym", "alt"), default="sym")
    p.add_argument("--format", choices=("dot", "json", "csv", "text"), default="text")

    p = add("table1", cmd_table1, help="diameters for degrees 3..10")
    p.add_argument("--format", choices=("csv", "json", "text"), default="text")

    p = add("isolated", cmd_isolated, help="isolated vertices, or the structured family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--group", choices=("sym", "alt"), default="sym")
    p.add_argument("--family", action="store_true", help="emit the structured family")

    p = add("witness", cmd_witness, help="verify a witness construction")
    p.add_argument("--lemma", choices=LEMMA_IDS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--group", choices=("sym", "alt"), default=None)

    p = add("oracle-edges", cmd_oracle_edges, help="diff exact edges against brute force (n <= 9)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--group", choices=("sym", "alt"), default="sym")

    p = add("oracle-wreath", cmd_oracle_wreath, help="diff block membership against enumeration")
    p.add_argument("--n", type=int, required=True)

    p = add("catalog", cmd_catalog, help="list the primitive groups of a degree")
    p.add_argument("--n", type=int, required=True)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process, built at the first ``main`` call.

    ``parse_args`` starts every call from a fresh namespace, so no argument
    carries over from one call to the next.
    """
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ValueError as exc:  # CatalogAbsent and InadmissibleDegree too
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
