import random

import pytest
from hypothesis import strategies as st

from hypermaps.generators import fig7_example, plane_example, torus_example
from hypermaps.model import disjoint_union
from hypermaps.walsh import (
    BipartiteEdge,
    BipartiteMapSpec,
    BipartiteVertex,
    walsh_build,
)


@pytest.fixture(scope="session")
def plane():
    return plane_example()


@pytest.fixture(scope="session")
def torus():
    return torus_example()


@pytest.fixture(scope="session")
def fig7():
    return fig7_example()


class RecordingPool:
    """A stand-in for ``ThreadPoolExecutor`` that records ``max_workers`` and
    starts no thread: its one "worker" runs in the caller and drains the
    shared iterator alone."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterables):
        return [fn(iterables[0])]


def random_bipartite_spec(seed: int, twisted: bool = True) -> BipartiteMapSpec:
    """A random connected bipartite map: a spanning tree plus extra edges,
    shuffled rotations, random twists and label-block sides."""
    rng = random.Random(seed)
    nv, ne = rng.randint(1, 4), rng.randint(1, 4)
    v_names = [f"v{i}" for i in range(nv)]
    e_names = [f"w{i}" for i in range(ne)]
    edges = []
    rot = {name: [] for name in v_names + e_names}
    # spanning tree over the union, alternating sides: it grows from v0 and
    # the first hyperedge drawn, so every node after them has a joined
    # neighbour on the other side
    joined_v, joined_e = [v_names[0]], []
    pool = v_names[1:] + e_names
    rng.shuffle(pool)
    first_e = next(i for i, node in enumerate(pool) if node.startswith("w"))
    pool.insert(0, pool.pop(first_e))
    for node in pool:
        other = rng.choice(joined_e if node.startswith("v") else joined_v)
        bname = f"b{len(edges)}"
        edges.append(bname)
        rot[node].append(bname)
        rot[other].append(bname)
        (joined_v if node.startswith("v") else joined_e).append(node)
    for _ in range(rng.randint(0, 3)):
        bname = f"b{len(edges)}"
        edges.append(bname)
        rot[rng.choice(joined_v)].append(bname)
        rot[rng.choice(joined_e)].append(bname)
    for name in rot:
        rng.shuffle(rot[name])
    vertices = [BipartiteVertex(nm, "V", tuple(rot[nm])) for nm in v_names]
    vertices += [BipartiteVertex(nm, "E", tuple(rot[nm])) for nm in e_names]
    spec_edges = [
        BipartiteEdge(
            nm,
            rng.choice((1, -1)) if twisted else 1,
            rng.choice(("V", "E")),
        )
        for nm in edges
    ]
    return BipartiteMapSpec(tuple(vertices), tuple(spec_edges))


def random_disconnected_spec(seed: int, twisted: bool = True) -> BipartiteMapSpec:
    """Two random connected bipartite maps in one spec, a hypermap of two
    components: their vertices and their edges (so their labels) shuffled
    together, the second map's names primed."""
    rng = random.Random(seed)
    first = random_bipartite_spec(rng.randrange(10**6), twisted)
    second = random_bipartite_spec(rng.randrange(10**6), twisted)
    vertices = list(first.vertices) + [
        BipartiteVertex(w.name + "'", w.side, tuple(b + "'" for b in w.rotation))
        for w in second.vertices
    ]
    edges = list(first.edges) + [
        BipartiteEdge(e.name + "'", e.twist, e.u_side) for e in second.edges
    ]
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return BipartiteMapSpec(tuple(vertices), tuple(edges))


def incidence_components(h, edges) -> int:
    """Components of the vertex-hyperedge incidence graph on ``edges``,
    isolated vertices counted, by breadth-first search."""
    touching = [[] for _ in range(h.v)]
    members = []
    for k, i in enumerate(edges):
        members.append({h.vertex_of(x) for x in h.hyperedge_sets[i]})
        for u in members[-1]:
            touching[u].append(k)
    seen = [False] * h.v
    count = 0
    for start in range(h.v):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        queue = [start]
        for u in queue:
            for k in touching[u]:
                for w in members[k]:
                    if not seen[w]:
                        seen[w] = True
                        queue.append(w)
    return count


def _spec_map(seed: int):
    return walsh_build(random_bipartite_spec(seed, twisted=True))[1]


# A twisted random map with two components: one spec, or the disjoint union
# of two maps.
disconnected_spec_maps = st.one_of(
    st.builds(lambda seed: walsh_build(random_disconnected_spec(seed))[1],
              st.integers(0, 10**6)),
    st.builds(lambda a, b: disjoint_union(_spec_map(a), _spec_map(b)),
              st.integers(0, 10**6), st.integers(0, 10**6)),
)

# A twisted random map, connected or not.
spec_maps = st.one_of(st.builds(_spec_map, st.integers(0, 10**6)), disconnected_spec_maps)
