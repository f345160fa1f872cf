"""Partial duality: the dual construction, spanning subs, genus formulas."""

import pytest
from hypothesis import given, settings, strategies as st

import hypermaps.duality as duality

from hypermaps.duality import (
    EdgeSubset,
    SpanningSubCounts,
    _dual_flags,
    _flags,
    _spanning_table,
    check_properties,
    chi_partial_dual_formula,
    dual,
    eps_partial_dual_formula,
    gamma_partial_dual_formula,
    partial_dual,
    psi_restricted,
    spanning_counts,
    spanning_face_count_restricted,
)
from hypermaps.errors import HypermapError, NotConnected
from hypermaps.generators import ladder, star
from hypermaps.model import _component_keys, _orbit_sides, disjoint_union
from hypermaps.perm import Permutation, format_cycles, parse_cycles

from conftest import incidence_components, spec_maps

FIG7_TAU_DUAL = "(1,3,9,5,7,13,19,17,21)(2,22,18,20,14,8,6,10,4)(11,23,15)(12,16,24)"


def test_fig7_partial_dual_printed_cycles(fig7):
    hd = partial_dual(fig7, EdgeSubset.parse(fig7, "e1"))
    assert hd.format_tau() == format_cycles(parse_cycles(FIG7_TAU_DUAL))
    assert hd.v == 2
    assert hd.format_psi() != fig7.format_psi()  # the e1 cycles run backwards
    assert hd.hyperedge_sets == fig7.hyperedge_sets
    assert hd.hyperedge_names == fig7.hyperedge_names


def test_empty_subset_returns_same_object(fig7):
    assert partial_dual(fig7, EdgeSubset.empty(fig7)) is fig7


def test_involution_and_symmetric_difference(fig7):
    for mask in range(16):
        ha = partial_dual(fig7, mask)
        assert partial_dual(ha, mask) == fig7
    for a in range(16):
        ha = partial_dual(fig7, a)
        for b in range(16):
            assert partial_dual(ha, b) == partial_dual(fig7, a ^ b)


def test_subset_type():
    s = EdgeSubset(0b0101, 4)
    assert s.edges() == (0, 2) and len(s) == 2
    assert s.complement().mask == 0b1010
    assert s.complement().complement() == s
    assert 2 in s and 1 not in s
    with pytest.raises(HypermapError):
        EdgeSubset(16, 4)


def test_subset_parse(fig7):
    assert EdgeSubset.parse(fig7, "e1,e3").mask == 0b101
    assert EdgeSubset.parse(fig7, "0b1010").mask == 0b1010
    assert EdgeSubset.parse(fig7, "e2").labels(fig7) == fig7.hyperedge_sets[1]


def test_dual_counts(plane):
    d = dual(plane)
    cb, orig = d.counts(), plane.counts()
    assert (cb.v, cb.f, cb.e, cb.chi) == (orig.f, orig.v, orig.e, orig.chi)
    assert dual(d) == plane


def test_dual_of_smallest_is_self_isomorphic():
    h = star(1)
    assert dual(h).is_isomorphic(h)


def test_spanning_counts_trivial_subsets(fig7):
    empty = spanning_counts(fig7, EdgeSubset.empty(fig7))
    assert empty.f == fig7.v and empty.c == fig7.v
    assert empty.chi == 2 * fig7.v and empty.eps == 0
    full = spanning_counts(fig7, EdgeSubset.full(fig7))
    cb = fig7.counts()
    assert (full.f, full.c, full.chi, full.eps) == (cb.f, cb.c, cb.chi, cb.eps)


def test_spanning_faces_equal_dual_vertices(fig7):
    sub = EdgeSubset.parse(fig7, "e1")
    assert spanning_counts(fig7, sub).f == partial_dual(fig7, sub).v == 2


def test_restricted_face_count_cross_check(plane, torus, fig7):
    for h in (plane, torus, fig7):
        for mask in range(1 << h.e):
            sub = EdgeSubset(mask, h.e)
            assert spanning_face_count_restricted(h, sub) == spanning_counts(h, sub).f


def test_chi_formula_trivial_and_both_routes(plane, torus, fig7):
    for h in (plane, torus, fig7):
        assert chi_partial_dual_formula(h, EdgeSubset.empty(h)) == h.counts().chi
        for mask in range(1 << h.e):
            assert (chi_partial_dual_formula(h, mask)
                    == partial_dual(h, mask).counts().chi)


def test_eps_formula_ladder_single_edge():
    h2 = ladder(2)
    assert eps_partial_dual_formula(h2, EdgeSubset.parse(h2, "e1")) == 2
    assert eps_partial_dual_formula(h2, EdgeSubset.empty(h2)) == h2.counts().eps


def test_gamma_formula_sums_to_subset_count(fig7):
    total = sum(1 for mask in range(16)
                if gamma_partial_dual_formula(fig7, mask) >= 0)
    assert total == 16
    for mask in range(16):
        assert 2 * gamma_partial_dual_formula(fig7, mask) == eps_partial_dual_formula(fig7, mask)


def test_gamma_formula_counts_each_spanning_sub_once(monkeypatch, fig7):
    real, masks = duality._spanning_row, []
    monkeypatch.setattr(duality, "_spanning_row",
                        lambda h, mask: masks.append(mask) or real(h, mask))
    assert 2 * gamma_partial_dual_formula(fig7, 3) == partial_dual(fig7, 3).counts().eps
    assert masks == [3, 12]  # A and A^c, read by both formulas
    # the eps formula is still checked against the gamma formula
    monkeypatch.setattr(duality, "_dual_formulas", lambda h, mask, span: (0, 1))
    with pytest.raises(HypermapError, match="inconsistent"):
        gamma_partial_dual_formula(fig7, 3)


def test_complement_symmetry_and_face_vertex_swap(fig7, torus):
    for h in (fig7, torus):
        full = (1 << h.e) - 1
        for mask in range(1 << h.e):
            assert (eps_partial_dual_formula(h, mask)
                    == eps_partial_dual_formula(h, full ^ mask))
            assert (partial_dual(h, mask).counts().f
                    == partial_dual(h, full ^ mask).v)


def test_check_properties_all_pass(plane, fig7):
    for h in (plane, fig7):
        for mask in range(1 << h.e):
            assert check_properties(h, mask).ok
    rep = check_properties(fig7, 0b0011, 0b0101)
    assert rep.ok
    rep = check_properties(fig7, 0, 0b1111)
    assert rep.ok


def test_orientability_preserved_under_duals(torus):
    for mask in range(16):
        assert partial_dual(torus, mask).is_orientable()


def test_formulas_require_connected(plane):
    two = disjoint_union(plane, plane)
    with pytest.raises(NotConnected):
        chi_partial_dual_formula(two, 0)
    with pytest.raises(NotConnected):
        eps_partial_dual_formula(two, 0)


@settings(max_examples=100, deadline=None)
@given(h=spec_maps)
def test_spanning_components_match_incidence_bfs(h):
    for mask in range(min(1 << h.e, 64)):
        sub = EdgeSubset(mask, h.e)
        assert spanning_counts(h, sub).c == incidence_components(h, sub.edges())


def permutation_spanning_counts(h, mask: int) -> SpanningSubCounts:
    """The spanning-sub counts on ``Permutation`` objects: the orbits of
    ``psi_A then tau`` for f, the ``<tau, psi_A>`` orbits paired by ``iota``
    for c."""
    psi_a = psi_restricted(h, mask)
    f = psi_a.then(h.tau).orbit_count() // 2
    c = len(set(_component_keys(_orbit_sides(h.tau, psi_a), h.iota)))
    edges = EdgeSubset(mask, h.e).edges()
    sum_n = sum(len(h.hyperedge_sets[i]) for i in edges) // 2
    chi = h.v + len(edges) + f - sum_n
    return SpanningSubCounts(c=c, f=f, chi=chi, eps=2 * c - chi, sum_n=sum_n, e=len(edges))


@settings(max_examples=100, deadline=None)
@given(h=spec_maps, data=st.data())
def test_spanning_table_matches_the_permutation_counts(h, data):
    dual_mask = data.draw(st.integers(0, (1 << h.e) - 1))
    for g in (h, partial_dual(h, dual_mask)):
        table = _spanning_table(g)
        assert table == [permutation_spanning_counts(g, m) for m in range(1 << g.e)]
        assert [spanning_counts(g, m) for m in range(1 << g.e)] == table
        # the empty subset leaves every vertex isolated, each a component
        assert table[0].c == g.v and table[0].f == g.v


def test_spanning_table_covers_isolated_vertices_and_split_subs():
    h = ladder(4)
    rows = list(enumerate(_spanning_table(h)))

    def isolated(mask: int) -> int:
        return h.v - len({h.vertex_of(x) for x in EdgeSubset(mask, h.e).labels(h)})

    assert any(row.e and row.c > 1 and isolated(m) for m, row in rows)
    assert all(row == permutation_spanning_counts(h, m) for m, row in rows)


@settings(max_examples=50, deadline=None)
@given(h=spec_maps, data=st.data())
def test_dual_permutations_are_validated_bijections(h, data):
    mask = data.draw(st.integers(0, (1 << h.e) - 1))
    for p in (psi_restricted(h, mask), partial_dual(h, mask).psi):
        assert Permutation(p.image) == p


@settings(max_examples=50, deadline=None)
@given(h=spec_maps, data=st.data())
def test_dual_flags_are_the_images_of_the_validated_dual(h, data):
    mask = data.draw(st.integers(0, (1 << h.e) - 1))
    assert _dual_flags(h, mask) == _flags(partial_dual(h, mask))


@settings(max_examples=25, deadline=None)
@given(h=spec_maps)
def test_second_application_on_flags_equals_the_validated_one(h):
    # every pair up to e = 4; the first 16 masks on larger maps
    masks = range(min(1 << h.e, 16))
    for a in masks:
        ha = partial_dual(h, a)
        for b in masks:
            assert _dual_flags(ha, b) == _flags(partial_dual(ha, b))
