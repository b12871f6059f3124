"""Spans around the package's module-level functions, for the traced pass.

Each traced function is replaced, in every ``invgraph`` module that binds
it, by one wrapper that records a span (name, start, end, parent) and adds
counts at the same boundary.  A layer's self time is its span time minus the
time of the traced spans it encloses.  Per-pair calls (``partial_sum_mask``
and ``shares_subgroup``, up to hundreds of thousands per pass, and
``wreath_member``, ``wreath_member_oracle``) are folded into per-layer
totals instead of being kept as spans; their time is still subtracted from
their parents.

Untraced passes never import this module, so they run the package as is.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from collections import Counter

import reference as ref
from workloads import snapshot


def _misses(fn) -> int | None:
    info = getattr(fn, "cache_info", None)
    return info().misses if info else None


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [time of enclosed spans, index of kept ancestor]
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.calls: Counter = Counter()
        self.inclusive: Counter = Counter()
        self.self_time: Counter = Counter()
        self.count: Counter = Counter()
        self.originals: dict[str, object] = {}
        self._fingerprint_seen: set = set()

    def wrap(self, layer, fn, keep=True, before=None, after=None, eager=False):
        """A wrapper around ``fn`` recording spans under ``layer``.

        ``before(args)`` runs ahead of the span and its result is handed to
        ``after(args, result, fresh, state)``; ``fresh`` is False only when an
        ``lru_cache`` answered the call from memory.  ``eager`` drains a
        returned iterator inside the span, so the work it does is timed.
        """
        stack, spans = self.stack, self.spans
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            misses = _misses(fn) if after else None
            parent = stack[-1][1] if stack else -1
            index = len(spans) if keep else parent
            if keep:
                spans.append(None)
            frame = [0.0, index]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if eager:
                    result = list(result)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                calls[layer] += 1
                inclusive[layer] += dur
                self_time[layer] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if keep:
                    spans[index] = (layer, t0, t1, parent)
            if after:
                after(args, result, misses is None or _misses(fn) != misses, state)
            return iter(result) if eager else result

        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name: str, fn):
        """Run ``fn()`` as a kept root span (one benchmark operation)."""
        return self.wrap(name, fn)()

    # -- counts taken at the span boundaries --------------------------------

    def _closure(self, args, result, fresh, state):
        self.count["closure_elements"] += len(result[0])

    def _catalog(self, args, result, fresh, state):
        if fresh:
            self.count["catalog_groups"] += len(result.groups)

    def _fingerprint_before(self, args):
        # Only the first call per argument can miss the in-memory cache, so
        # only that one pays for a directory listing.
        key = (args[0], self._cache_dir(args))
        if key in self._fingerprint_seen:
            return None
        self._fingerprint_seen.add(key)
        return snapshot(key[1])

    def _fingerprint(self, args, result, fresh, state):
        # A disk lookup happens on every call the in-memory cache did not
        # answer and whose catalog is not empty; it hits when it leaves the
        # cache directory as it found it.
        if fresh and result and state is not None:
            hit = bool(state) and snapshot(self._cache_dir(args)) == state
            self.count["cache_hits" if hit else "cache_misses"] += 1
            self.count["lookups"] += 1

    @staticmethod
    def _cache_dir(args):
        if len(args) > 1 and args[1]:
            return args[1]
        return os.environ.get("INVGRAPH_CACHE_DIR", ".invgraph-cache")

    def _verdict(self, args, result, fresh, state):
        self.count["verdict_" + ("edge" if result is None else result.family)] += 1

    def _build(self, args, result, fresh, state):
        if fresh:
            v = len(result.vertices)
            self.count["build_pairs"] += v * (v - 1) // 2
            self.count["edges"] += sum(row.bit_count() for row in result.adjacency) // 2

    def _diameter(self, args, result, fresh, state):
        if isinstance(result, int):
            self.count["bfs_sources"] += len(args[0].vertices)

    def _export(self, args, result, fresh, state):
        self.count["export_bytes"] += len(result.encode())

    def _oracle(self, args, result, fresh, state):
        v = len(result.vertices)
        self.count["oracle_pairs"] += v * (v - 1) // 2

    def _enumerate(self, args, result, fresh, state):
        self.count["enumerated"] += len(result)

    def _constrained(self, args, result, fresh, state):
        self.count["constrained_out"] += len(result)

    def _sper(self, args, result, fresh, state):
        p = ref.partition_count(args[0])
        self.count["sper_pairs_bound"] += p * (p + 1) // 2

    def _verify(self, args, result, fresh, state):
        self.count["ledgered"] += bool(result.ledger)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Put a wrapper on every binding of each traced function."""
        hot = dict(keep=False)
        targets = [
            ("permutations", "closure_images", "closure", dict(after=self._closure)),
            ("subgroup_membership", "primitive_catalog", "catalog", dict(after=self._catalog)),
            (
                "subgroup_membership",
                "degree_fingerprints",
                "fingerprint",
                dict(before=self._fingerprint_before, after=self._fingerprint),
            ),
            ("subgroup_membership", "wreath_member", "wreath", hot),
            ("subgroup_membership", "wreath_member_oracle", "wreath_oracle", hot),
            ("subgroup_membership", "shares_subgroup", "verdict", dict(keep=False, after=self._verdict)),
            ("graph_engine", "build_graph", "build", dict(after=self._build)),
            ("graph_engine", "xi_subgraph", "xi", {}),
            ("graph_engine", "diameter", "diameter", dict(after=self._diameter)),
            ("graph_engine", "export", "export", dict(after=self._export)),
            ("graph_engine", "oracle_adjacency", "oracle", dict(after=self._oracle)),
            ("partitions", "enumerate_partitions", "enumerate", dict(eager=True, after=self._enumerate)),
            ("partitions", "partial_sum_mask", "mask", hot),
            (
                "partitions",
                "enumerate_partitions_with_sums_in",
                "constrained",
                dict(after=self._constrained),
            ),
            ("witness_verifier", "verify_sper", "sper", dict(after=self._sper)),
            ("witness_verifier", "construct_witness", "construct", {}),
            ("witness_verifier", "verify_witness", "verify", dict(after=self._verify)),
            ("cli", "main", "cli", {}),
        ]
        rules = importlib.import_module("invgraph.primitive_rules")
        for name, obj in vars(rules).items():
            if inspect.isfunction(obj) and obj.__module__ == rules.__name__ and name[0] != "_":
                targets.append(("primitive_rules", name, "rules", {}))
        packages = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "invgraph"]
        for module, attr, layer, options in targets:
            original = getattr(importlib.import_module("invgraph." + module), attr)
            self.originals[attr] = original
            wrapper = self.wrap(layer, original, **options)
            for package_module in packages:
                for key, value in list(vars(package_module).items()):
                    if value is original:
                        setattr(package_module, key, wrapper)

    # -- per-layer metrics -------------------------------------------------

    def metrics(self) -> dict[str, float]:
        s, c, k, inc = self.self_time, self.calls, self.count, self.inclusive

        def rate(num, layer):
            return num / inc[layer] if inc[layer] else 0.0

        wreath = self.originals["wreath_member"].cache_info()
        wreath_lookups = wreath.hits + wreath.misses
        return {
            "permutations.closure_s": s["closure"],
            "permutations.closure_calls": c["closure"],
            "permutations.closure_elements": k["closure_elements"],
            "permutations.closure_elements_per_s": rate(k["closure_elements"], "closure"),
            "subgroup_membership.catalog_s": s["catalog"],
            "subgroup_membership.catalog_groups": k["catalog_groups"],
            "subgroup_membership.fingerprint_self_s": s["fingerprint"],
            "subgroup_membership.cache_hits": k["cache_hits"],
            "subgroup_membership.cache_misses": k["cache_misses"],
            "subgroup_membership.wreath_s": s["wreath"],
            "subgroup_membership.wreath_calls": c["wreath"],
            "subgroup_membership.wreath_misses": wreath.misses,
            "subgroup_membership.wreath_hit_ratio": (
                wreath.hits / wreath_lookups if wreath_lookups else 0.0
            ),
            "subgroup_membership.wreath_oracle_s": s["wreath_oracle"],
            "subgroup_membership.verdict_s": s["verdict"],
            "subgroup_membership.verdict_pairs": c["verdict"],
            "subgroup_membership.verdict_pairs_per_s": rate(c["verdict"], "verdict"),
            "subgroup_membership.verdict_alternating": k["verdict_alternating"],
            "subgroup_membership.verdict_intransitive": k["verdict_intransitive"],
            "subgroup_membership.verdict_imprimitive": k["verdict_imprimitive"],
            "subgroup_membership.verdict_primitive": k["verdict_primitive"],
            "subgroup_membership.verdict_edge": k["verdict_edge"],
            "graph_engine.build_s": s["build"],
            "graph_engine.build_pairs": k["build_pairs"],
            "graph_engine.build_pairs_per_s": rate(k["build_pairs"], "build"),
            "graph_engine.edges": k["edges"],
            "graph_engine.xi_s": s["xi"],
            "graph_engine.diameter_s": s["diameter"],
            "graph_engine.bfs_sources": k["bfs_sources"],
            "graph_engine.export_s": s["export"],
            "graph_engine.export_bytes": k["export_bytes"],
            "graph_engine.oracle_s": s["oracle"],
            "graph_engine.oracle_pairs": k["oracle_pairs"],
            "partitions.enumerate_s": s["enumerate"],
            "partitions.enumerated": k["enumerated"],
            "partitions.mask_s": s["mask"],
            "partitions.mask_calls": c["mask"],
            "partitions.constrained_s": s["constrained"],
            "partitions.constrained_out": k["constrained_out"],
            "witness_verifier.sper_s": s["sper"],
            "witness_verifier.sper_pairs_bound": k["sper_pairs_bound"],
            "witness_verifier.construct_s": s["construct"],
            "witness_verifier.verify_s": s["verify"],
            "witness_verifier.claims": c["verify"],
            "witness_verifier.ledgered": k["ledgered"],
            "primitive_rules.s": s["rules"],
            "primitive_rules.calls": c["rules"],
            "cli.s": s["cli"],
        }
