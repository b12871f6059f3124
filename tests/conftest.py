from collections import deque
from functools import lru_cache

import pytest

from invgraph.graph_engine import build_graph
from invgraph.permutations import GroupKind


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fingerprint-cache"))


@pytest.fixture(scope="session")
def graph(cache_dir):
    """Memoized access to exact graphs; heavy degrees build once per session."""

    def get(n: int, group: GroupKind):
        return build_graph(n, group, cache_dir)

    return get


@lru_cache(maxsize=None)
def _reference_closure(gens: tuple[bytes, ...], degree: int) -> frozenset[bytes]:
    identity = bytes(range(degree))
    seen = {identity}
    queue = deque([identity])
    while queue:
        p = queue.popleft()
        for g in gens:
            q = bytes(map(p.__getitem__, g))
            if q not in seen:
                seen.add(q)
                queue.append(q)
    return frozenset(seen)


@pytest.fixture(scope="session")
def reference_closure():
    """Breadth-first closure by right multiplication, one element at a time.

    An independent check of ``closure_images``; memoized per generator set.
    """

    def get(gens, degree: int) -> frozenset[bytes]:
        return _reference_closure(tuple(bytes(g) for g in gens), degree)

    return get
