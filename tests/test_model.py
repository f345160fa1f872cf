"""Hypermap validation, the side-pairing solver, counts, isomorphism."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from hypermaps.errors import (
    CycleFormatError,
    DuplicateLabel,
    HypermapError,
    IotaUnsolvable,
    MissingLabel,
    NotOrientable,
    PairLengthMismatch,
    SelfPairedOrbit,
)
from hypermaps.model import Hypermap, disjoint_union, solve_iota
from hypermaps.perm import Permutation

from conftest import (
    incidence_components,
    random_bipartite_spec,
    random_disconnected_spec,
    spec_maps,
)
from hypermaps.walsh import walsh_build


def test_plane_counts(plane):
    cb = plane.counts()
    assert (cb.v, cb.e, cb.sum_n, cb.f, cb.chi, cb.eps) == (5, 3, 12, 6, 2, 0)
    assert cb.c == 1 and cb.orientable
    assert plane.orientable_genus() == 0


def test_torus_counts(torus):
    cb = torus.counts()
    assert (cb.v, cb.e, cb.sum_n, cb.f, cb.chi, cb.eps) == (4, 4, 13, 5, 0, 2)
    assert cb.orientable and torus.orientable_genus() == 1


def test_fig7_counts(fig7):
    cb = fig7.counts()
    assert (cb.v, cb.e, cb.sum_n, cb.f, cb.chi, cb.eps) == (4, 4, 12, 4, 0, 2)
    assert fig7.orientable_genus() == 1


def test_smallest_hypermap():
    h = Hypermap.from_parts([([0], [1])], [([0], [1])])
    cb = h.counts()
    assert (cb.v, cb.e, cb.f, cb.sum_n, cb.chi) == (1, 1, 1, 1, 2)
    assert h.iota(0) == 1


def test_structure_invariants(plane, torus, fig7):
    for h in (plane, torus, fig7):
        assert h.n == 2 * h.counts().sum_n
        assert h.n == 2 * sum(h.degree(i) for i in range(h.v))
        assert h.tau.orbit_count() % 2 == 0
        assert h.psi.orbit_count() % 2 == 0
        assert h.face_orbit_count() % 2 == 0


def test_solver_forced_value(fig7):
    # the pairing of label 1 is forced to 18 by the cycle-pair constraints
    assert fig7.external(fig7.iota(fig7.internal(1))) == 18


def test_consecutive_pairing_is_valid_for_plane(plane):
    iota, tau, psi = plane.iota, plane.tau, plane.psi
    tau_inv, psi_inv = tau.inverse(), psi.inverse()
    for x in range(plane.n):
        assert iota(tau(iota(x))) == tau_inv(x)
        assert iota(psi(iota(x))) == psi_inv(x)
    for x in range(plane.n):
        ext = plane.external(x)
        partner = ext + 1 if ext % 2 else ext - 1
        assert plane.external(iota(x)) == partner


def test_solver_on_degree_one():
    iota = solve_iota(Permutation.identity(2), Permutation.identity(2),
                      [([0], [1])], [([0], [1])])
    assert iota.image == (1, 0)


def test_solver_unsolvable():
    # A triangle vertex pair whose hyperedge pairing runs the wrong way.
    vertex_pairs = [([0, 1, 2], [3, 4, 5])]
    hyperedge_pairs = [([0], [3]), ([1], [4]), ([2], [5])]
    with pytest.raises(IotaUnsolvable):
        Hypermap.from_parts(vertex_pairs, hyperedge_pairs)


def test_solver_solvable_when_aligned():
    vertex_pairs = [([0, 1, 2], [3, 4, 5])]
    hyperedge_pairs = [([0], [3]), ([1], [5]), ([2], [4])]
    h = Hypermap.from_parts(vertex_pairs, hyperedge_pairs)
    assert h.counts().chi == 2


def _random_declaration(seed: int):
    """Random vertex and hyperedge cycle pairs on at most 10 labels, which
    split into up to three blocks of interleaved labels that no pair
    crosses, so an unsolvable block can follow solvable ones."""
    rng = random.Random(seed)
    n = 2 * rng.randint(1, 5)
    labels = list(range(n))
    rng.shuffle(labels)
    cuts = sorted(2 * rng.randint(0, n // 2) for _ in range(2))
    blocks = (labels[:cuts[0]], labels[cuts[0]:cuts[1]], labels[cuts[1]:])

    def pairs():
        out = []
        for block in blocks:
            block = block[:]
            rng.shuffle(block)
            while block:
                k = rng.randint(1, len(block) // 2)
                out.append((block[:k], block[k:2 * k]))
                del block[:2 * k]
        return out

    return n, pairs(), pairs()


def _pairings(labels):
    """Every fixed-point-free involution on ``labels``, as a dict."""
    if not labels:
        yield {}
        return
    a, rest = labels[0], labels[1:]
    for b in rest:
        for m in _pairings([x for x in rest if x != b]):
            yield {a: b, b: a, **m}


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_solver_finds_least_valid_pairing(seed):
    n, vp, ep = _random_declaration(seed)
    tau = Permutation.from_cycles([c for p in vp for c in p], n)
    psi = Permutation.from_cycles([c for p in ep for c in p], n)
    tau_inv, psi_inv = tau.inverse(), psi.inverse()
    valid = []
    for m in _pairings(list(range(n))):
        iota = [m[x] for x in range(n)]
        if (all(iota[tau[iota[x]]] == tau_inv[x] and iota[psi[iota[x]]] == psi_inv[x]
                for x in range(n))
                and all({iota[x] for x in a} == set(b) for a, b in vp + ep)):
            valid.append(tuple(iota))
    if valid:
        assert solve_iota(tau, psi, vp, ep).image == min(valid)
    else:
        with pytest.raises(IotaUnsolvable):
            solve_iota(tau, psi, vp, ep)


def test_from_parts_errors():
    with pytest.raises(PairLengthMismatch):
        Hypermap.from_parts([([0, 1], [2])], [([0], [1]), ([2], [])])
    with pytest.raises(DuplicateLabel):
        Hypermap.from_parts([([0, 0], [1, 2])], [([0, 1], [2, 2])])
    with pytest.raises(MissingLabel):
        Hypermap.from_parts([([0], [1])], [([0], [2])])


def test_from_parts_rejects_an_empty_cycle_pair():
    with pytest.raises(CycleFormatError, match="vertex pair of two empty cycles"):
        Hypermap.from_parts([([0], [1]), ([], [])], [([0], [1])])
    with pytest.raises(CycleFormatError, match="hyperedge pair of two empty cycles"):
        Hypermap.from_parts([([0], [1])], [([0], [1]), ([], [])])


def test_self_paired_orbit_rejected():
    tau = Permutation.from_cycles([(0, 1)], 2)
    psi = Permutation.identity(2)
    iota = Permutation.from_cycles([(0, 1)], 2)
    with pytest.raises(SelfPairedOrbit):
        Hypermap.from_flags(tau, psi, iota)


def test_mirror_axiom_rejected():
    tau = Permutation.from_cycles([(0, 1, 2)], 6)
    psi = Permutation.identity(6)
    iota = Permutation.from_cycles([(0, 3), (1, 4), (2, 5)], 6)
    with pytest.raises(HypermapError):
        Hypermap.from_flags(tau, psi, iota)


def test_mirror_axiom_names_first_bad_label():
    # labels 0 and 1 satisfy both axioms; psi fails at label 2, and so does
    # the second tau, which is checked first
    iota = Permutation.from_cycles([(0, 4), (1, 5), (2, 6), (3, 7)], 8)
    psi = Permutation.from_cycles([(0, 5), (1, 4), (2, 3)], 8)
    with pytest.raises(HypermapError, match="fails for psi at label 2$"):
        Hypermap.from_flags(Permutation.identity(8), psi, iota)
    tau = Permutation.from_cycles([(2, 3)], 8)
    with pytest.raises(HypermapError, match="fails for tau at label 2$"):
        Hypermap.from_flags(tau, psi, iota)


def test_components_and_disjoint_union(plane):
    assert plane.component_count() == 1
    both = disjoint_union(plane, plane)
    assert both.component_count() == 2
    cb, single = both.counts(), plane.counts()
    assert cb.v == 2 * single.v and cb.e == 2 * single.e
    assert cb.f == 2 * single.f and cb.chi == 2 * single.chi
    assert cb.eps == 2 * single.eps and cb.c == 2


def test_disjoint_union_names_stay_unique():
    from hypermaps.generators import star

    three = disjoint_union(disjoint_union(star(2), star(2)), star(2))
    assert three.vertex_names == ("v1", "v2", "v1'", "v2'", "v1''", "v2''")
    assert three.hyperedge_names == ("e1", "e1'", "e1''")
    assert three.vertex_index("v1'") == 2 and three.vertex_index("v1''") == 4


def test_random_specs_are_connected():
    # the generator's contract: connected, or two components on request
    for seed in range(2000):
        assert walsh_build(random_bipartite_spec(seed))[1].is_connected()
    for seed in range(200):
        assert walsh_build(random_disconnected_spec(seed))[1].component_count() == 2


def test_relabel_isomorphism(fig7):
    rng = random.Random(7)
    pi = list(range(fig7.n))
    rng.shuffle(pi)
    other = fig7.relabel(pi)
    assert other.counts() == fig7.counts()
    assert fig7.is_isomorphic(other)
    assert fig7.canonical_form() == other.canonical_form()


def test_not_isomorphic(plane, torus):
    assert not plane.is_isomorphic(torus)


def test_canonical_idempotent(fig7):
    c1 = fig7.canonical_form()
    assert c1.canonical_form() == c1


def test_orientability_via_twists():
    for seed in range(25):
        for make in (random_bipartite_spec, random_disconnected_spec):
            _, h = walsh_build(make(seed, twisted=False))
            assert h.is_orientable()


def test_twisted_digon_nonorientable():
    from hypermaps.walsh import BipartiteEdge, BipartiteMapSpec, BipartiteVertex

    spec = BipartiteMapSpec(
        (BipartiteVertex("a", "V", ("b0", "b1")),
         BipartiteVertex("w", "E", ("b0", "b1"))),
        (BipartiteEdge("b0", 1, "V"), BipartiteEdge("b1", -1, "V")),
    )
    m, h = walsh_build(spec)
    assert not m.is_orientable() and not h.is_orientable()
    assert m.counts().chi == 1 and m.counts().eps == 1
    with pytest.raises(NotOrientable):
        h.orientable_genus()


def test_random_specs_preserve_characteristic():
    for seed in range(40):
        spec = (random_bipartite_spec if seed % 4 else random_disconnected_spec)(seed)
        m, h = walsh_build(spec)
        assert h.counts().chi == m.counts().chi
        assert h.counts().f == m.counts().f
        assert h.counts().eps >= 0
        assert h.n == 2 * h.counts().sum_n


@settings(max_examples=100, deadline=None)
@given(h=spec_maps)
def test_components_match_incidence_bfs(h):
    comp = h.components()
    assert h.component_count() == incidence_components(h, range(h.e))
    # dense ids, numbered in order of each component's first vertex
    firsts = [comp.index(k) for k in range(h.component_count())]
    assert firsts == sorted(firsts)
    for s in h.hyperedge_sets:
        assert len({comp[h.vertex_of(x)] for x in s}) == 1


@settings(max_examples=100, deadline=None)
@given(a=st.integers(0, 10**6), b=st.integers(0, 10**6),
       twist_a=st.booleans(), twist_b=st.booleans())
def test_union_orientable_iff_both_parts(a, b, twist_a, twist_b):
    _, h1 = walsh_build(random_bipartite_spec(a, twisted=twist_a))
    _, h2 = walsh_build(random_bipartite_spec(b, twisted=twist_b))
    both = disjoint_union(h1, h2)
    assert both.is_orientable() == (h1.is_orientable() and h2.is_orientable())
    assert both.counts().orientable == both.is_orientable()
