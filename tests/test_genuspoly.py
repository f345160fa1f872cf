"""Polynomial arithmetic, spectra, and the enumeration engines."""

import json
import os
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import hypermaps.constructions as constructions
import hypermaps.genuspoly as gp
from hypermaps.errors import (
    CoefficientOverflow,
    EdgeCapExceeded,
    HypermapError,
    NotConnected,
    NotOrientable,
    SelfPairedOrbit,
)
from hypermaps.genuspoly import (
    EngineConfig,
    GenusPolynomial,
    enumerate_partial_duals,
    euler_genus_polynomial,
    orientable_genus_polynomial,
    spectrum_report,
    subset_iter,
)
from hypermaps.constructions import (
    AmalgamationPicks,
    CornerRef,
    bar_amalgamation,
    join,
)
from hypermaps.duality import EdgeSubset, partial_dual
from hypermaps.generators import (
    closed_form,
    cycle_hypertree,
    fig7_example,
    ladder,
    plane_example,
    random_hypertree,
    star,
    torus_example,
)
from hypermaps.hmf import read_hmf, write_hmf
from hypermaps.model import Hypermap, disjoint_union
from hypermaps.verify import verify_hypermap
from hypermaps.perm import Permutation
from hypermaps.walsh import (
    BipartiteEdge,
    BipartiteMapSpec,
    BipartiteVertex,
    walsh_build,
)

from conftest import RecordingPool, random_bipartite_spec


def test_poly_arithmetic():
    p = GenusPolynomial({0: 2, 2: 2})
    assert p.mul(p) == GenusPolynomial({0: 4, 2: 8, 4: 4})
    assert p.mul(GenusPolynomial({0: 1})) == p
    assert p.add(p) == GenusPolynomial({0: 4, 2: 4})
    assert p.eval_at_one() == 4
    assert p == GenusPolynomial({2: 2, 0: 2})
    assert GenusPolynomial({0: 1, 3: 0}).exponents() == (0,)


def test_poly_bounds():
    with pytest.raises(CoefficientOverflow):
        GenusPolynomial({0: 2**64})
    with pytest.raises(HypermapError):
        GenusPolynomial({0: -1})
    with pytest.raises(HypermapError):
        GenusPolynomial({-1: 1})
    with pytest.raises(CoefficientOverflow):
        GenusPolynomial({0: 2**63}).mul(GenusPolynomial({0: 2}))


def test_spectrum_reports():
    rep = spectrum_report(GenusPolynomial({0: 2, 2: 2}))
    assert rep.spectrum == (0, 2)
    assert rep.gaps == ((1, 1, 1),)
    assert not rep.interpolating

    rep = spectrum_report(GenusPolynomial({0: 2**6}))
    assert rep.spectrum == (0,) and rep.interpolating

    # the documented unbounded-gap spectrum shape, on a synthetic polynomial
    for n in (7, 9, 20):
        shape = GenusPolynomial({0: 1, 4: 1, 2 * n - 8: 1, 2 * n - 4: 1})
        rep = spectrum_report(shape)
        assert (5, 2 * n - 9, 2 * n - 13) in rep.gaps
        assert not rep.interpolating


def test_subset_iter():
    assert list(subset_iter(2)) == [0, 1, 2, 3]
    assert len(subset_iter(10)) == 1024
    with pytest.raises(EdgeCapExceeded):
        subset_iter(40, edge_cap=30)


def test_engine_config(monkeypatch):
    monkeypatch.setattr(gp, "_usable_cpus", lambda: 8)  # as on an 8-CPU machine
    with pytest.raises(HypermapError):
        EngineConfig(engine="fast")
    with pytest.raises(HypermapError):
        EngineConfig(edge_cap=63)
    assert EngineConfig(worker_count=3).workers() == 3
    monkeypatch.setenv("HM_THREADS", "5")
    assert EngineConfig().workers() == 5
    monkeypatch.delenv("HM_THREADS")
    assert EngineConfig().workers() == 1


def test_worker_count_is_capped_at_the_usable_cpus(monkeypatch):
    assert 1 <= gp._usable_cpus() <= (os.cpu_count() or 1)
    monkeypatch.setattr(gp, "_usable_cpus", lambda: 2)
    assert EngineConfig(worker_count=100000).workers() == 2
    assert EngineConfig(worker_count=0).workers() == 1
    monkeypatch.setenv("HM_THREADS", "100000")
    assert EngineConfig().workers() == 2
    for junk in ("0", "-4", "two", ""):
        monkeypatch.setenv("HM_THREADS", junk)
        assert EngineConfig().workers() == 1
    # one subset pair per step: the kernel block has 16 steps to share out
    monkeypatch.setattr(gp, "_STEP_LABELS", 1)
    monkeypatch.setattr(gp, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    res = enumerate_partial_duals(cycle_hypertree(10), EngineConfig(worker_count=100000))
    assert res.block_engines == ("kernel",) and res.workers == 2
    assert RecordingPool.sizes == [2]
    assert res.polynomial == closed_form("cycle_hypertree", 10)


def test_known_polynomials(fig7):
    assert euler_genus_polynomial(ladder(2)) == GenusPolynomial({0: 2, 2: 2})
    assert euler_genus_polynomial(star(5)) == GenusPolynomial({0: 2})
    assert euler_genus_polynomial(cycle_hypertree(3)) == GenusPolynomial({0: 2, 2: 6})
    # brute-force value, frozen after both engines agreed on it
    assert euler_genus_polynomial(fig7, EngineConfig(engine="both")) == \
        GenusPolynomial({2: 2, 4: 2, 6: 12})
    assert orientable_genus_polynomial(fig7).eval_at_one() == 16
    assert orientable_genus_polynomial(ladder(2)) == GenusPolynomial({0: 2, 1: 2})


def test_engines_agree(plane, torus, fig7):
    cases = [plane, torus, fig7, ladder(3), cycle_hypertree(4)]
    cases += [random_hypertree(4, seed) for seed in range(3)]
    for h in cases:
        direct = euler_genus_polynomial(h, EngineConfig(engine="direct"))
        formula = euler_genus_polynomial(h, EngineConfig(engine="formula"))
        assert direct == formula
        assert direct.eval_at_one() == 2**h.e
    empty = Hypermap.from_flags(Permutation([]), Permutation([]), Permutation([]))
    assert euler_genus_polynomial(empty, EngineConfig(engine="both")) == \
        GenusPolynomial({0: 1})


def test_paired_batches_match_direct(monkeypatch, fig7, torus):
    # small steps and few low hyperedges: many batches, pairs split across steps
    monkeypatch.setattr(gp, "_K", 1)
    monkeypatch.setattr(gp, "_STEP_LABELS", 1)
    for h in (fig7, torus, ladder(5), cycle_hypertree(4)):
        direct = euler_genus_polynomial(h, EngineConfig(engine="direct"))
        assert gp._enumerate_formula(gp._whole(h), 1) == direct


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_formula_matches_direct_at_every_k(seed):
    _, h = walsh_build(random_bipartite_spec(seed, twisted=True))
    assert h.is_connected()
    assume(h.e <= 10)
    direct = euler_genus_polynomial(h, EngineConfig(engine="direct"))
    for k in range(h.e):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gp, "_K", k)
            assert gp._enumerate_formula(gp._whole(h), 1) == direct


def test_worker_count_is_invisible():
    h = ladder(7)
    polys = {
        euler_genus_polynomial(h, EngineConfig(worker_count=w))
        for w in (1, 2, 5)
    }
    assert len(polys) == 1


def test_orientable_relation(torus, fig7):
    for h in (torus, fig7, ladder(4)):
        eps = euler_genus_polynomial(h)
        gamma = orientable_genus_polynomial(h)
        assert all(k % 2 == 0 for k in eps.exponents())
        assert gamma.double_exponents() == eps


def twisted_digon() -> Hypermap:
    """One vertex, one hyperedge, on the projective plane."""
    spec = BipartiteMapSpec(
        (BipartiteVertex("a", "V", ("b0", "b1")),
         BipartiteVertex("w", "E", ("b0", "b1"))),
        (BipartiteEdge("b0", 1, "V"), BipartiteEdge("b1", -1, "V")),
    )
    return walsh_build(spec)[1]


def test_nonorientable_rejected():
    h = twisted_digon()
    assert euler_genus_polynomial(h).eval_at_one() == 2**h.e
    with pytest.raises(NotOrientable):
        orientable_genus_polynomial(h)


def test_polynomial_invariant_under_partial_duals(fig7):
    base = euler_genus_polynomial(fig7)
    for mask in range(1 << fig7.e):
        assert euler_genus_polynomial(partial_dual(fig7, mask)) == base


def test_planar_constant_term_at_least_two(plane):
    # the empty and full subsets both contribute the hypermap's own genus
    for h in (plane, ladder(3), cycle_hypertree(4), random_hypertree(3, 9)):
        assert h.counts().eps == 0
        assert euler_genus_polynomial(h).coeff(0) >= 2


def test_guards(plane):
    two = disjoint_union(plane, plane)
    with pytest.raises(NotConnected):
        euler_genus_polynomial(two)
    with pytest.raises(EdgeCapExceeded):
        euler_genus_polynomial(plane, EngineConfig(edge_cap=2))


def test_enumeration_result_shape(fig7):
    res = enumerate_partial_duals(fig7, EngineConfig(engine="both"))
    data = res.as_dict()
    assert data["engines_agree"] is True
    assert data["subsets"] == 16
    assert data["blocks"] == [4]
    assert data["polynomial"] == {"2": 2, "4": 2, "6": 12}
    assert data["gamma_spectrum"] == [1, 2, 3]
    assert data["spectrum"] == [2, 4, 6]
    assert "elapsed_ms" in data


def test_sharded_counts_match_single(monkeypatch):
    # one pair per step, so every worker count splits the pairs differently
    monkeypatch.setattr(gp, "_K", 2)
    monkeypatch.setattr(gp, "_STEP_LABELS", 1)
    _, twisted = walsh_build(random_bipartite_spec(21, twisted=True))  # e=4
    assert twisted.e == 4 and not twisted.is_orientable()
    for h in (ladder(6), twisted):
        single = gp._enumerate_formula(gp._whole(h), 1)
        for workers in (2, 3, 5):
            assert gp._enumerate_formula(gp._whole(h), workers) == single
        assert single == euler_genus_polynomial(h, EngineConfig(engine="direct"))


# -- join factoring ---------------------------------------------------------------

FAMILY_PIECES = {
    "digon": twisted_digon,
    "star2": lambda: star(2),
    "ladder2": lambda: ladder(2),
    "ladder3": lambda: ladder(3),
    "cycle3": lambda: cycle_hypertree(3),
    "plane": plane_example,
    "torus": torus_example,
    "fig7": fig7_example,
}


def _piece(kind: str, seed: int) -> Hypermap:
    if kind == "spec":
        return walsh_build(random_bipartite_spec(seed, twisted=True))[1]
    return FAMILY_PIECES[kind]()


def join_chain(parts, labels) -> Hypermap:
    """Join the parts left to right; ``labels`` pick the corners, any label
    of either mirror cycle of a vertex."""
    h = parts[0]
    for piece, (x, y) in zip(parts[1:], labels):
        x, y = x % h.n, y % piece.n
        h = join(h, CornerRef(h.vertex_of(x), x), piece, CornerRef(piece.vertex_of(y), y))
    return h


def crossing_vertex(twists=(1, 1, 1, 1)) -> Hypermap:
    """One vertex whose cycle meets two hyperedges as ``A B A B``."""
    spec = BipartiteMapSpec(
        (BipartiteVertex("a", "V", ("b0", "b1", "b2", "b3")),
         BipartiteVertex("w", "E", ("b0", "b2")),
         BipartiteVertex("x", "E", ("b1", "b3"))),
        tuple(BipartiteEdge(f"b{i}", t) for i, t in enumerate(twists)),
    )
    return walsh_build(spec)[1]


def rooted_at(h: Hypermap, k: int) -> Hypermap:
    """``h`` with its vertices rotated so that vertex ``k`` comes first; the
    search for separating vertices starts at vertex 0."""
    vs = h.vertex_sets
    return Hypermap.from_flags(h.tau, h.psi, h.iota, hyperedge_sets=h.hyperedge_sets,
                               vertex_sets=vs[k:] + vs[:k])


pieces = st.tuples(st.sampled_from(["spec", "spec", *FAMILY_PIECES]),
                   st.integers(0, 10**6))


@settings(max_examples=50, deadline=None)
@given(kinds=st.lists(pieces, min_size=1, max_size=3),
       labels=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)),
                       min_size=2, max_size=2),
       shuffle=st.integers(0, 10**6))
def test_join_chains_formula_matches_direct(kinds, labels, shuffle):
    parts = [_piece(kind, seed) for kind, seed in kinds]
    assert all(p.is_connected() for p in parts)
    assume(sum(p.e for p in parts) <= 12)
    # relabelled at random, and any vertex may be the root of the search
    rng = random.Random(shuffle)
    new_of_old = list(range(sum(p.n for p in parts)))
    rng.shuffle(new_of_old)
    h = join_chain(parts, labels).relabel(new_of_old)
    h = rooted_at(h, rng.randrange(h.v))
    direct = euler_genus_polynomial(h, EngineConfig(engine="direct"))
    product = GenusPolynomial({0: 1})
    for piece in gp._join_blocks(h):
        product = product.mul(euler_genus_polynomial(rebuilt(h, piece.labels),
                                                     EngineConfig(engine="direct")))
    assert product == direct
    res = enumerate_partial_duals(h)
    assert res.polynomial == direct
    assert sum(res.blocks) == h.e and len(res.blocks) >= len(parts)


def assert_whole(h: Hypermap) -> None:
    """``h`` is its own only piece, counted on its own arrays and classes."""
    (piece,) = gp._join_blocks(h)
    assert list(piece.labels) == list(range(h.n))
    assert piece.tau is h.tau.image and piece.psi is h.psi.image
    assert piece.box_of is h._hyperedge_of and piece.boxes == gp._whole(h).boxes


def test_join_blocks_keep_unsplittable_maps_whole(fig7):
    s3 = star(3)
    amalgam = bar_amalgamation(  # the bar is a cut hyperedge between the sides
        fig7, AmalgamationPicks((CornerRef(0, min(fig7.vertex_sets[0])),
                                 CornerRef(1, min(fig7.vertex_sets[1])))),
        s3, AmalgamationPicks((CornerRef(0, min(s3.vertex_sets[0])),
                               CornerRef(2, min(s3.vertex_sets[2])))),
    )
    cases = [ladder(20), fig7, amalgam]
    cases += [cycle_hypertree(n) for n in range(3, 9)]
    cases += [crossing_vertex(t) for t in ((1, 1, 1, 1), (1, -1, 1, 1), (-1, 1, 1, -1))]
    for h in cases:
        assert_whole(h)


def test_maps_without_a_separating_vertex_skip_the_vertex_pass(monkeypatch):
    def vertex_pass(h, i):
        raise AssertionError("a vertex cycle was scanned")
    monkeypatch.setattr(Hypermap, "vertex_cycle", vertex_pass)
    for h in [ladder(n) for n in range(1, 31)] + [cycle_hypertree(n) for n in range(3, 21)]:
        assert gp._incidence_blocks(h)[2] == []
        assert_whole(h)


def test_a_join_splits_at_any_vertex_the_search_meets():
    # the glued vertex comes last; rotated first, it is the root of the search
    h = join_chain([ladder(3), cycle_hypertree(4)], [(1, 2)])
    glued = h.v - 1
    for g, cut in ((h, glued), (rooted_at(h, glued), 0)):
        assert gp._incidence_blocks(g)[2] == [cut]
        assert sorted(p.e for p in gp._join_blocks(g)) == [3, 4]
        want = closed_form("ladder", 3).mul(closed_form("cycle_hypertree", 4))
        assert euler_genus_polynomial(g) == want


def test_crossing_vertex_is_not_a_join():
    # split into its two hyperedges, the map would get 2 * 2 = 4 at z^0
    for twists, want in (((1, 1, 1, 1), {0: 2, 2: 2}), ((1, -1, 1, 1), {1: 2, 2: 2})):
        h = crossing_vertex(twists)
        assert euler_genus_polynomial(h) == GenusPolynomial(want)
        assert euler_genus_polynomial(h, EngineConfig(engine="direct")) == GenusPolynomial(want)


def crossing_groups(word: list[int]) -> list[list[int]]:
    """The groups that the vertex pass makes of a cyclic word of blocks."""
    parent = list(range(max(word) + 1))
    gp._merge_crossings(parent, word)
    groups: dict[int, list[int]] = {}
    for c in sorted(set(word)):
        groups.setdefault(gp._find(parent, c), []).append(c)
    return sorted(groups.values())


def test_vertex_pass_merges_only_blocks_that_cross():
    assert crossing_groups([0, 0, 0]) == [[0]]
    assert crossing_groups([0, 1, 1, 2, 0]) == [[0], [1], [2]]  # arcs; 0 wraps around
    assert crossing_groups([0, 1, 0, 2, 0, 1]) == [[0, 1], [2]]  # 0 1 0 1, and an arc
    assert crossing_groups([0, 1, 2, 1, 0, 3, 0]) == [[0], [1], [2], [3]]  # nested arcs
    # two crossing pairs that do not cross each other
    assert crossing_groups([0, 1, 0, 1, 2, 3, 2, 3]) == [[0, 1], [2, 3]]


@pytest.mark.parametrize("x", range(8))
def test_crossing_pieces_joined_at_their_crossing_vertex_split(x):
    # each piece's only vertex crosses A B A B; joined there, the cycle holds
    # two crossing groups that do not cross each other
    twisted = (1, -1, 1, 1)
    h = join_chain([crossing_vertex(), crossing_vertex(twisted)], [(x, 3)])
    assert h.v == 1
    assert sorted(p.e for p in gp._join_blocks(h)) == [2, 2]
    want = euler_genus_polynomial(crossing_vertex()).mul(
        euler_genus_polynomial(crossing_vertex(twisted)))
    assert euler_genus_polynomial(h) == want
    assert euler_genus_polynomial(h, EngineConfig(engine="direct")) == want


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_poly_join_chain_factors_into_its_pieces(seed):
    rng = random.Random(seed)
    parts = [ladder(7), cycle_hypertree(6), twisted_digon(), ladder(6)]
    h = join_chain(parts, [(rng.randrange(100), rng.randrange(100)) for _ in range(3)])
    assert h.e == 20 and not h.is_orientable()
    assert sorted(p.e for p in gp._join_blocks(h)) == [1, 6, 6, 7]
    res = enumerate_partial_duals(h, EngineConfig(worker_count=2))
    assert sorted(res.blocks) == [1, 6, 6, 7] and res.subsets == 1 << 20
    digon = euler_genus_polynomial(twisted_digon(), EngineConfig(engine="direct"))
    want = closed_form("ladder", 7).mul(closed_form("cycle_hypertree", 6))
    assert res.polynomial == want.mul(digon).mul(closed_form("ladder", 6))


def test_direct_engine_is_never_factored():
    h = join_chain([ladder(2), twisted_digon()], [(0, 0)])
    assert len(gp._join_blocks(h)) == 2
    assert enumerate_partial_duals(h, EngineConfig(engine="direct")).blocks == (h.e,)
    assert enumerate_partial_duals(h, EngineConfig(engine="both")).blocks == (2, 1)


def test_edge_cap_bounds_each_join_block():
    h = join_chain([ladder(12), ladder(12)], [(0, 0)])
    assert h.e == 24
    res = enumerate_partial_duals(h, EngineConfig(edge_cap=16))
    assert res.blocks == (12, 12)
    assert res.polynomial == closed_form("ladder", 12).mul(closed_form("ladder", 12))
    for engine in ("direct", "both"):  # these enumerate the whole map
        with pytest.raises(EdgeCapExceeded):
            enumerate_partial_duals(h, EngineConfig(engine=engine, edge_cap=16))
    with pytest.raises(EdgeCapExceeded):
        enumerate_partial_duals(h, EngineConfig(edge_cap=11))


# -- the pieces against the arc-removal algorithm the vertex pass replaced ----------


def _root(parent: list[int], a: int) -> int:
    while parent[a] != a:
        a = parent[a]
    return a


def biconnected_blocks(h: Hypermap) -> list[int]:
    """The biconnected block of every label of the incidence multigraph, by
    definition: two labels at one node are in one block when their other
    ends are joined without that node.  Blocks are named by a label."""
    ends = [(h.vertex_of(x), h.v + h.hyperedge_of(x)) for x in range(h.n)]
    same = list(range(h.n))
    for u in range(h.v + h.e):
        joined = list(range(h.v + h.e))  # components of the graph without u
        for a, b in ends:
            if u not in (a, b):
                joined[_root(joined, a)] = _root(joined, b)
        seen: dict[int, int] = {}
        for x, (a, b) in enumerate(ends):
            if u in (a, b):
                other = _root(joined, b if a == u else a)
                same[_root(same, x)] = _root(same, seen.setdefault(other, x))
    return [_root(same, x) for x in range(h.n)]


def _interleaved(colours: list[int]) -> list[int]:
    """The colours of a cyclic word left once every colour that forms one
    contiguous arc is removed, repeatedly, on a linked list of runs."""
    runs = [c for i, c in enumerate(colours) if c != colours[i - 1]]
    r = len(runs)
    nxt = list(range(1, r)) + [0]
    prv = [r - 1] + list(range(r - 1))
    count: dict[int, int] = {}
    where: dict[int, int] = {}
    for i, c in enumerate(runs):
        count[c] = count.get(c, 0) + 1
        where[c] = i
    todo = [c for c, k in count.items() if k == 1]
    left = r
    while todo and left > 1:
        c = todo.pop()
        i = where.pop(c)
        del count[c]
        pv, nx = prv[i], nxt[i]
        nxt[pv], prv[nx] = nx, pv
        left -= 1
        if pv != nx and runs[pv] == runs[nx]:
            d = runs[pv]
            nxt[pv] = nxt[nx]
            prv[nxt[nx]] = pv
            left -= 1
            count[d] -= 1
            where[d] = pv
            if count[d] == 1:
                todo.append(d)
    return list(count) if left > 1 else []


def pieces_by_arc_removal(h: Hypermap) -> set[frozenset[int]]:
    """The labels of each join piece by the three merge passes the vertex
    pass replaced: biconnected blocks, a union of the blocks at every
    hyperedge, and at every vertex the crossing merge run only on the
    blocks that :func:`_interleaved` leaves."""
    block = biconnected_blocks(h)
    parent = list(range(h.n))

    def union(g: int, t: int) -> None:
        parent[_root(parent, t)] = _root(parent, g)

    for s in h.hyperedge_sets:
        for x in s:
            union(block[min(s)], block[x])
    for i in range(h.v):
        cycle = [block[x] for x in h.vertex_cycle(i)]
        left = set(_interleaved(cycle))
        word = [_root(parent, b) for b in cycle if b in left]
        end = {g: k for k, g in enumerate(word)}
        start = {g: k for k, g in reversed(list(enumerate(word)))}
        stack: list[int] = []
        for k, c in enumerate(word):
            if start[c] == k:
                stack.append(c)
            g = _root(parent, c)
            while stack[-1] != g:
                t = stack.pop()
                union(g, t)
                end[g] = max(end[g], end[t])
            if end[g] == k:
                stack.pop()
    groups: dict[int, set[int]] = {}
    for x in range(h.n):
        groups.setdefault(_root(parent, block[x]), set()).add(x)
    return set(map(frozenset, groups.values()))


def test_the_oracle_keeps_a_bar_and_splits_a_join():
    # a bar's hyperedge is a cut node of the incidence graph, but no vertex is
    h = two_pick_bar()
    assert len(set(biconnected_blocks(h))) > 1
    assert pieces_by_arc_removal(h) == {frozenset(range(h.n))}
    h = join_chain([crossing_vertex(), crossing_vertex((1, -1, 1, 1))], [(0, 3)])
    assert sorted(map(len, pieces_by_arc_removal(h))) == [8, 8]


@st.composite
def bars_and_joins(draw) -> Hypermap:
    """A chain of joins and single-pick bars of bundled and twisted random
    maps, at drawn corners, rooted at a drawn vertex, or a partial dual of
    it."""
    kinds = draw(st.lists(st.tuples(st.sampled_from(["spec", "cross", "cross",
                                                     *FAMILY_PIECES]),
                                    st.integers(0, 10**6)), min_size=1, max_size=4))
    parts = [crossing_vertex(random.Random(seed).choice([(1, 1, 1, 1), (1, -1, 1, 1)]))
             if kind == "cross" else _piece(kind, seed) for kind, seed in kinds]
    h = parts[0]
    for part in parts[1:]:
        x, y = draw(st.integers(0, h.n - 1)), draw(st.integers(0, part.n - 1))
        a, b = CornerRef(h.vertex_of(x), x), CornerRef(part.vertex_of(y), y)
        if draw(st.booleans()):
            h = join(h, a, part, b)
        else:
            h = bar_amalgamation(h, AmalgamationPicks((a,)), part, AmalgamationPicks((b,)))
    if draw(st.booleans()):
        h = partial_dual(h, draw(st.integers(0, (1 << h.e) - 1)))
    return rooted_at(h, draw(st.integers(0, h.v - 1)))


@settings(max_examples=300, deadline=None)
@given(h=bars_and_joins())
def test_pieces_match_the_arc_removal_algorithm(h):
    assert h.is_connected()
    assert {frozenset(p.labels) for p in gp._join_blocks(h)} == pieces_by_arc_removal(h)


# -- join pieces as label groups of the parent map --------------------------------


def rebuilt(h: Hypermap, labels) -> Hypermap:
    """The piece of ``h`` on ``labels`` as a map of its own: ``tau``
    restricted by :meth:`Permutation.restrict`, the labels renumbered in
    order, validated in full."""
    pos = {x: k for k, x in enumerate(labels)}
    return Hypermap.from_flags(*(Permutation([pos[g(x)] for x in labels])
                                 for g in (h.tau.restrict(labels), h.psi, h.iota)))


@settings(max_examples=40, deadline=None)
@given(seeds=st.lists(st.integers(0, 10**6), min_size=2, max_size=3),
       labels=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)),
                       min_size=2, max_size=2),
       mask=st.integers(0, 2**12 - 1))
def test_piece_views_match_their_rebuild(seeds, labels, mask):
    chain = join_chain([_piece("spec", seed) for seed in seeds], labels)
    for h in (chain, partial_dual(chain, EdgeSubset(mask % (1 << chain.e), chain.e))):
        pieces = gp._join_blocks(h)
        assert sorted(x for p in pieces for x in p.labels) == list(range(h.n))
        assert len(pieces) >= len(seeds)
        for piece in pieces:
            alone = rebuilt(h, piece.labels)
            pos = {x: k for k, x in enumerate(piece.labels)}
            for img, g in ((piece.tau, alone.tau), (piece.psi, alone.psi)):
                assert [pos[img[x]] for x in piece.labels] == list(g.image)
            assert [sorted(pos[x] for x in box) for box in piece.boxes] == \
                [sorted(box) for box in gp._whole(alone).boxes]
            assert (piece.e, len(piece.labels)) == (alone.e, alone.n)
            assert piece.halve == (not alone.is_orientable())
            cb = alone.counts()
            assert cb.c == 1 and piece.const == 2 - cb.e + cb.sum_n
            view, whole = gp._plan(piece), gp._plan(gp._whole(alone))
            assert (view.engine, view.seconds) == (whole.engine, whole.seconds)
            direct = euler_genus_polynomial(alone, EngineConfig(engine="direct"))
            assert each_engine(piece) == (direct, direct)


def test_every_wrong_restriction_is_caught(monkeypatch):
    h = join_chain([ladder(2), twisted_digon(), cycle_hypertree(3)], [(0, 1), (3, 2)])
    assert len(gp._join_blocks(h)) == 3
    real = gp._restricted_tau
    wrong = []

    def restricted_wrongly(g, piece, cuts):
        return wrong[-1](real(g, piece, cuts))

    def swap(a, b):
        def edit(tau_in):
            tau_in[a], tau_in[b] = tau_in[b], tau_in[a]
            return tau_in
        return edit

    def copy(a, b):
        def edit(tau_in):
            tau_in[a] = tau_in[b]
            return tau_in
        return edit

    monkeypatch.setattr(gp, "_restricted_tau", restricted_wrongly)
    # Every swap is caught: by the mirror axiom, unless b = iota(tau(a)),
    # whose swap merges a cycle with its mirror into a self-paired one.  An
    # image copied over another breaks the mirror axiom, and tau itself,
    # unrestricted, wires labels out of their pieces.
    caught = []
    for a in range(h.n):
        for b in range(h.n):
            for edit in ([swap(a, b)] if a < b else []) + ([copy(a, b)] if a != b else []):
                wrong.append(edit)
                with pytest.raises(HypermapError) as err:
                    enumerate_partial_duals(h)
                caught.append(err.type)
    wrong.append(lambda tau_in: list(h.tau.image))
    with pytest.raises(HypermapError, match="out of its join piece"):
        enumerate_partial_duals(h)
    assert len(caught) == h.n * (h.n - 1) * 3 // 2 and SelfPairedOrbit in caught


def test_a_disconnected_piece_is_caught():
    # pieces that share no vertex, put in one group, make a piece of two
    # components, though its restricted tau is a valid flag system
    h = join_chain([ladder(2), twisted_digon(), cycle_hypertree(3), star(2)],
                   [(0, 1), (3, 2), (20, 0)])
    pieces = gp._join_blocks(h)
    cuts = gp._incidence_blocks(h)[2]
    vertices = [{h.vertex_of(x) for x in p.labels} for p in pieces]
    apart = [(p, q) for p in range(len(pieces)) for q in range(p)
             if not vertices[p] & vertices[q]]
    assert apart
    for p, q in apart:
        piece = [0] * h.n
        for k, view in enumerate(pieces):
            for x in view.labels:
                piece[x] = q if k == p else k
        ids = {}  # renumbered densely, in order of least label
        piece = [ids.setdefault(k, len(ids)) for k in piece]
        with pytest.raises(NotConnected):
            gp._pieces(h, piece, len(ids), gp._restricted_tau(h, piece, cuts))


def test_pieces_build_no_map_in_either_engine(monkeypatch):
    def rebuild(*args, **kwargs):
        raise AssertionError("a piece was rebuilt as a map")

    h = join_chain([ladder(7), cycle_hypertree(6), twisted_digon(), ladder(6)],
                   [(3, 5), (40, 0), (9, 17)])
    k = join_chain([ladder(3), cycle_hypertree(10)], [(0, 0)])
    want = [enumerate_partial_duals(g).polynomial for g in (h, k)]
    monkeypatch.setattr(Hypermap, "from_flags", rebuild)
    res = enumerate_partial_duals(h)
    assert res.polynomial == want[0] and set(res.block_engines) == {"frontier"}
    assert sorted(res.blocks) == [1, 6, 6, 7]
    # the kernel counts its piece in place too
    res = enumerate_partial_duals(k)
    assert res.polynomial == want[1]
    assert sorted(zip(res.blocks, res.block_engines)) == [(3, "frontier"), (10, "kernel")]


def test_nothing_inverts_tau_on_the_counting_and_construction_paths(monkeypatch, fig7):
    # the flag axioms give tau^-1 as iota tau iota, so no path below builds
    # an inverse: not the whole-map piece, the split pieces, the corner
    # re-addressing of a bar, nor the invariance entry of a check
    def inverse(self):
        raise AssertionError("tau was inverted")

    data = Path(__file__).parent / "data"
    split = read_hmf((data / "poly_join_0.hmf").read_text())
    split_poly = json.loads((data / "poly_join_0.poly.json").read_text())["polynomial"]
    side = fig7.sides()
    far = next(x for x in sorted(fig7.vertex_sets[1]) if side[x] != side[0])
    picks = AmalgamationPicks((CornerRef(0, 0), CornerRef(1, far)))
    bar = write_hmf(bar_amalgamation(fig7, picks, fig7, picks))
    checked = json.loads((data / "fig7.check.txt").read_text())["results"][0]
    del checked["input"]
    monkeypatch.setattr(Permutation, "inverse", inverse)
    assert euler_genus_polynomial(ladder(8)) == closed_form("ladder", 8)
    assert len(gp._join_blocks(split)) > 1
    assert euler_genus_polynomial(split).as_json_dict() == split_poly
    assert constructions._normalize_side(fig7, picks.picks)[1].label != far
    assert write_hmf(bar_amalgamation(fig7, picks, fig7, picks)) == bar
    assert json.loads(json.dumps(verify_hypermap(fig7))) == checked


# -- the frontier engine and the engine of each block ------------------------------


def frontier(h: Hypermap) -> "gp._Frontier":
    """The frontier engine on the whole of ``h``, unsplit."""
    return gp._Frontier(gp._whole(h))


def each_engine(piece: "gp._Piece") -> tuple[GenusPolynomial, GenusPolynomial]:
    """The polynomial of one piece by the kernel and by the frontier engine."""
    return gp._enumerate_formula(piece, 1), gp._Frontier(piece).polynomial()


def two_pick_bar(data=None) -> Hypermap:
    """ladder(6) and cycle_hypertree(5) joined by a bar with two picks a
    side; ``data`` draws the picked vertices and corners, else the first."""
    def picks(h):
        vertices = [0, 1] if data is None else data.draw(
            st.lists(st.integers(0, h.v - 1), min_size=2, max_size=2, unique=True))
        corners = [sorted(h.vertex_sets[i]) for i in vertices]
        return AmalgamationPicks(tuple(
            CornerRef(i, c[0] if data is None else data.draw(st.sampled_from(c)))
            for i, c in zip(vertices, corners)))
    l6, c5 = ladder(6), cycle_hypertree(5)
    return bar_amalgamation(l6, picks(l6), c5, picks(c5))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_frontier_matches_direct_and_kernel_on_twisted_maps(seed):
    _, h = walsh_build(random_bipartite_spec(seed, twisted=True))
    direct = euler_genus_polynomial(h, EngineConfig(engine="direct"))
    assert each_engine(gp._whole(h)) == (direct, direct)


@settings(max_examples=30, deadline=None)
@given(kinds=st.lists(pieces, min_size=2, max_size=3),
       labels=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)),
                       min_size=2, max_size=2))
def test_frontier_matches_kernel_on_every_join_block(kinds, labels):
    h = join_chain([_piece(kind, seed) for kind, seed in kinds], labels)
    assume(h.e <= 10)
    for block in gp._join_blocks(h):
        kernel, by_frontier = each_engine(block)
        assert by_frontier == kernel
    # the frontier engine needs no split: the whole chain is one block to it
    assert frontier(h).polynomial() == \
        euler_genus_polynomial(h, EngineConfig(engine="direct"))


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_frontier_matches_kernel_on_two_pick_bars(data):
    h = two_pick_bar(data)
    assert h.e == 12
    for block in gp._join_blocks(h):
        kernel, by_frontier = each_engine(block)
        assert by_frontier == kernel
    assert frontier(h).polynomial() == gp._enumerate_formula(gp._whole(h), 1)


def test_frontier_matches_direct_on_a_two_pick_bar_and_the_examples(plane, torus, fig7):
    empty = Hypermap.from_flags(Permutation([]), Permutation([]), Permutation([]))
    for h in (two_pick_bar(), plane, torus, fig7, twisted_digon(), star(4)):
        direct = euler_genus_polynomial(h, EngineConfig(engine="direct"))
        assert frontier(h).polynomial() == direct
    assert frontier(empty).polynomial() == GenusPolynomial({0: 1})


def test_ladder_closed_form_to_the_edge_cap():
    # 2**62 kernel subsets at n = 62; the frontier keeps one state per step
    cfg = EngineConfig(edge_cap=62)
    for n in range(1, 63):
        res = enumerate_partial_duals(ladder(n), cfg)
        assert res.polynomial == closed_form("ladder", n), n
        if n >= 8:
            assert res.block_engines == ("frontier",)
    fr = frontier(ladder(62))
    fr.polynomial()
    assert fr.widths[:-1] == [2] * 61 and fr.states == [1] * 62


def test_cycle_hypertree_closed_form_past_the_kernel():
    for n in range(3, 21):
        res = enumerate_partial_duals(cycle_hypertree(n))
        assert res.polynomial == closed_form("cycle_hypertree", n), n
    assert res.block_engines == ("frontier",)


def test_engine_choice_is_a_function_of_the_block():
    # ladder: two paths cross the frontier at every step, whatever the labels
    rng = random.Random(0)
    base = ladder(20)
    new_of_old = list(range(base.n))
    rng.shuffle(new_of_old)
    assert gp._plan(gp._whole(base.relabel(new_of_old))).engine == "frontier"
    # the one-cycle hypertree's frontier grows to n/2 paths: the estimate
    # bounds its states by 2**(t-1) and keeps the kernel at this size
    assert gp._plan(gp._whole(cycle_hypertree(10))).engine == "kernel"
    for h in (base, cycle_hypertree(10), two_pick_bar(), twisted_digon()):
        first = gp._plan(gp._whole(h))
        assert first.seconds > 0
        again = [gp._plan(gp._whole(h)), gp._plan(gp._whole(h))]
        assert [(p.engine, p.seconds) for p in again] == [(first.engine, first.seconds)] * 2


def test_block_engines_are_reported():
    h = join_chain([ladder(20), cycle_hypertree(10), twisted_digon()], [(0, 5), (3, 0)])
    res = enumerate_partial_duals(h, EngineConfig(edge_cap=20))
    assert sorted(zip(res.blocks, res.block_engines)) == \
        [(1, gp._plan(gp._whole(twisted_digon())).engine), (10, "kernel"), (20, "frontier")]
    assert res.as_dict()["block_engines"] == list(res.block_engines)
    want = closed_form("ladder", 20).mul(closed_form("cycle_hypertree", 10)).mul(
        euler_genus_polynomial(twisted_digon(), EngineConfig(engine="direct")))
    assert res.polynomial == want
    direct = enumerate_partial_duals(ladder(3), EngineConfig(engine="direct"))
    assert direct.block_engines == ("direct",)
