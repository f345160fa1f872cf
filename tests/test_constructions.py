"""Join, bar-amalgamation, subdivision and pendant vertices."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import hypermaps.constructions as constructions
import hypermaps.duality as duality
from hypermaps.constructions import (
    AmalgamationPicks,
    CornerRef,
    add_pendant_vertex,
    bar_amalgamation,
    check_amalgamation_theorem,
    check_join_polynomial,
    check_pendant_invariance,
    check_subdivision,
    corner_face_count,
    face_class_of_labels,
    join,
    parse_corner,
    subdivide3,
)
from hypermaps.duality import EdgeSubset, eps_partial_dual_formula, partial_dual
from hypermaps.errors import (
    BadCorner,
    DuplicateVertexPick,
    EdgeDegreeUnsupported,
    HypermapError,
    SelfPairedOrbit,
)
from hypermaps.genuspoly import GenusPolynomial, euler_genus_polynomial
from hypermaps.generators import (
    cycle_hypertree,
    fig7_example,
    ladder,
    ladder_tree,
    plane_example,
    star,
    torus_example,
)
from hypermaps.hmf import write_hmf
from hypermaps.model import Hypermap, _dedupe
from hypermaps.perm import Permutation
from hypermaps.walsh import BipartiteEdge, BipartiteMapSpec, BipartiteVertex, walsh_build

from conftest import random_bipartite_spec, spec_maps


def corner(h, v):
    return CornerRef(v, min(h.vertex_sets[v]))


def test_join_count_identities(plane, torus):
    out = join(plane, corner(plane, 0), torus, corner(torus, 1))
    cb, c1, c2 = out.counts(), plane.counts(), torus.counts()
    assert cb.v == c1.v + c2.v - 1
    assert cb.e == c1.e + c2.e
    assert cb.f == c1.f + c2.f - 1
    assert cb.chi == c1.chi + c2.chi - 2
    assert cb.eps == c1.eps + c2.eps == 2


def test_join_with_sphere_keeps_genus(fig7):
    tiny = star(1)
    out = join(fig7, corner(fig7, 2), tiny, corner(tiny, 0))
    assert out.counts().eps == fig7.counts().eps


def test_join_base_point_matters_but_counts_do_not(torus):
    v = 3  # a degree-4 vertex of the torus example
    labels = sorted(torus.tau.orbit_of(min(torus.vertex_sets[v])))
    s = star(2)
    outs = [join(torus, CornerRef(v, x), s, corner(s, 0)) for x in labels]
    assert len({o.counts() for o in outs}) == 1


def test_join_polynomial_product(fig7, plane):
    rep = check_join_polynomial(plane, corner(plane, 2), fig7, corner(fig7, 0))
    assert rep["ok"]
    h2a, h2b = ladder(2), ladder(2)
    rep = check_join_polynomial(h2a, corner(h2a, 0), h2b, corner(h2b, 1))
    assert rep["ok"]
    assert rep["enumerated"] == {"0": 4, "2": 8, "4": 4}


def test_join_bad_corner(plane, torus):
    with pytest.raises(BadCorner):
        join(plane, CornerRef(0, 23), torus, corner(torus, 0))


def test_parse_corner(fig7):
    c = parse_corner(fig7, "v1@17")
    assert c.vertex == 0 and fig7.external(c.label) == 17
    with pytest.raises(BadCorner):
        parse_corner(fig7, "v1@3")  # label of another vertex
    with pytest.raises(BadCorner):
        parse_corner(fig7, "nonsense")


def test_amalgamation_count_deltas(plane, torus):
    p1 = AmalgamationPicks((corner(plane, 0), corner(plane, 3)))
    p2 = AmalgamationPicks((corner(torus, 1), corner(torus, 2), corner(torus, 3)))
    out = bar_amalgamation(plane, p1, torus, p2)
    cb, c1, c2 = out.counts(), plane.counts(), torus.counts()
    assert cb.v == c1.v + c2.v
    assert cb.e == c1.e + c2.e + 1
    assert cb.sum_n == c1.sum_n + c2.sum_n + 2 + 3
    # the genus change is measured by corner faces on the full maps
    k1 = corner_face_count(plane, EdgeSubset.full(plane), [c.label for c in p1.picks])
    k2 = corner_face_count(torus, EdgeSubset.full(torus), [c.label for c in p2.picks])
    assert cb.eps == c1.eps + c2.eps + 2 * k1 + 2 * k2 - 4


def test_amalgamation_single_face_case():
    s3, s4 = star(3), star(4)
    p1 = AmalgamationPicks((corner(s3, 0), corner(s3, 1)))
    p2 = AmalgamationPicks((corner(s4, 0), corner(s4, 1), corner(s4, 2)))
    out = bar_amalgamation(s3, p1, s4, p2)
    cb = out.counts()
    # both stars have one face, so k1 = k2 = 1
    assert cb.f == 1 + 1 + 2 + 3 - 3
    assert cb.eps == 0


def test_amalgamation_pick_validation(plane):
    with pytest.raises(DuplicateVertexPick):
        AmalgamationPicks((corner(plane, 0), corner(plane, 0))).validate(plane)
    with pytest.raises(BadCorner):
        AmalgamationPicks((corner(plane, 0),), hyperedge=2).validate(plane)
    AmalgamationPicks((corner(plane, 0),), hyperedge=0).validate(plane)


def test_amalgamation_theorem_small(fig7):
    s2 = star(2)
    rep = check_amalgamation_theorem(
        fig7,
        AmalgamationPicks((corner(fig7, 0), corner(fig7, 1))),
        s2,
        AmalgamationPicks((corner(s2, 0),)),
    )
    assert rep["ok"]


def test_amalgamation_theorem_ladder4():
    h4 = ladder(4)
    s2 = star(2)
    rep = check_amalgamation_theorem(
        h4,
        AmalgamationPicks((corner(h4, 0), corner(h4, h4.v - 1))),
        s2,
        AmalgamationPicks((corner(s2, 0), corner(s2, 1))),
    )
    assert rep["ok"]


def corner_sum_over_all_subsets(h1, p1, h2, p2) -> dict:
    """``check_amalgamation_theorem`` with one corner-sum term per subset of
    the two sides' hyperedges together, 2^(e1 + e2) of them."""
    lhs = euler_genus_polynomial(bar_amalgamation(h1, p1, h2, p2))
    corners1 = [c.label for c in constructions._normalize_side(h1, p1.picks)]
    corners2 = [c.label for c in constructions._normalize_side(h2, p2.picks)]
    acc: dict[int, int] = {}
    e1, e2 = h1.e, h2.e
    full1, full2 = (1 << e1) - 1, (1 << e2) - 1
    for mask in range(1 << (e1 + e2)):
        m1, m2 = mask & full1, mask >> e1
        k1 = corner_face_count(h1, EdgeSubset(m1 ^ full1, e1), corners1)
        k2 = corner_face_count(h2, EdgeSubset(m2 ^ full2, e2), corners2)
        eps = (eps_partial_dual_formula(h1, m1) + eps_partial_dual_formula(h2, m2)
               + 2 * (k1 + k2 - 2))
        acc[eps] = acc.get(eps, 0) + 2
    rhs = GenusPolynomial(acc)
    return {
        "identity": "bar-amalgamation polynomial matches the corner-face sum",
        "ok": lhs == rhs,
        "enumerated": lhs.as_json_dict(),
        "corner_sum": rhs.as_json_dict(),
    }


def random_picks(h, rng) -> AmalgamationPicks:
    """Corners at distinct vertices, in a random order, at random labels."""
    vertices = rng.sample(range(h.v), rng.randint(1, h.v))
    return AmalgamationPicks(tuple(CornerRef(v, rng.choice(sorted(h.vertex_sets[v])))
                                   for v in vertices))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6), st.booleans())
def test_corner_sum_product_matches_the_sum_over_all_subsets(seed1, seed2, twisted):
    rng = random.Random(seed1 ^ seed2)
    h1 = walsh_build(random_bipartite_spec(seed1, twisted=twisted))[1]
    h2 = walsh_build(random_bipartite_spec(seed2, twisted=True))[1]
    assert h1.e + h2.e <= 8
    p1, p2 = random_picks(h1, rng), random_picks(h2, rng)
    assert (check_amalgamation_theorem(h1, p1, h2, p2)
            == corner_sum_over_all_subsets(h1, p1, h2, p2))


def test_corner_sum_product_keeps_a_failing_verdict():
    # three picks on the ladder, not in face-boundary order
    h, s2 = ladder(3), star(2)
    p1 = AmalgamationPicks(tuple(CornerRef(v, x) for v, x in ((0, 1), (1, 2), (2, 8))))
    p2 = AmalgamationPicks((corner(s2, 0),))
    rep = check_amalgamation_theorem(h, p1, s2, p2)
    assert rep == corner_sum_over_all_subsets(h, p1, s2, p2)
    assert not rep["ok"]
    assert rep["corner_sum"] == {"2": 8, "4": 16, "6": 8}


def test_corner_face_count_trivial(fig7):
    labels = [min(fig7.vertex_sets[0]), min(fig7.vertex_sets[1]),
              min(fig7.vertex_sets[2])]
    assert corner_face_count(fig7, EdgeSubset.empty(fig7), labels) == 3
    s = star(4)
    labels = [min(s.vertex_sets[i]) for i in range(4)]
    assert corner_face_count(s, EdgeSubset.full(s), labels) == 1


def test_corner_readdressing_keeps_face_class(fig7):
    # a corner label and its mirror address name the same face class
    for mask in range(1 << fig7.e):
        classes = face_class_of_labels(fig7, mask)
        for x in range(fig7.n):
            other = fig7.iota(fig7.tau.inverse()(x))
            assert classes[x] == classes[other]


def test_subdivision_deltas_and_invariance(fig7):
    for e in range(fig7.e):
        out = subdivide3(fig7, e)
        assert out.v == fig7.v + 1
        assert out.e == fig7.e + 2
        assert out.counts().sum_n == fig7.counts().sum_n + 6
        assert out.counts().f == fig7.counts().f + 3
        assert out.counts().eps == fig7.counts().eps


def test_subdivision_planar_star():
    s = star(3)
    out = subdivide3(s, 0)
    assert out.counts().eps == 0
    assert out.v == 4 and out.e == 3


def test_subdivision_rejects_other_degrees(plane):
    with pytest.raises(EdgeDegreeUnsupported):
        subdivide3(plane, 0)  # a 4-incidence hyperedge


def test_subdivision_check_reports(fig7):
    for e in range(fig7.e):
        rep = check_subdivision(fig7, e)
        assert rep["ok"] and rep["mass"] == 2 ** (fig7.e + 2)
    for e in range(3):
        assert check_subdivision(cycle_hypertree(3), e)["ok"]


@pytest.mark.parametrize("name", ["e1_2", "e1_x"])
def test_subdivision_check_reads_the_numbering_not_the_names(fig7, name):
    # e2 named like a replacement of e1 is still one of the old hyperedges
    names = list(fig7.hyperedge_names)
    names[1] = name
    g = Hypermap.from_flags(fig7.tau, fig7.psi, fig7.iota,
                            hyperedge_sets=fig7.hyperedge_sets, hyperedge_names=names,
                            vertex_sets=fig7.vertex_sets, vertex_names=fig7.vertex_names,
                            label_names=fig7.label_names)
    for e in range(g.e):
        rep = check_subdivision(g, e)
        assert rep["ok"] and rep["mass"] == 2 ** (g.e + 2), (e, rep)


def test_subdivision_check_counts_each_spanning_sub_once(monkeypatch, fig7):
    real, counted = duality._spanning_row, []
    monkeypatch.setattr(duality, "_spanning_row",
                        lambda h, mask: counted.append((h.e, mask)) or real(h, mask))
    assert check_subdivision(fig7, 0)["ok"]
    e = fig7.e
    assert sorted(counted) == ([(e, m) for m in range(1 << e)]
                               + [(e + 2, m) for m in range(1 << (e + 2))])


def test_subdivision_check_names_the_first_failing_subset(monkeypatch, fig7):
    real = constructions._dual_formulas

    def shifted(h, mask, span):
        chi, eps = real(h, mask, span)
        return chi, eps + (h.e == fig7.e + 2 and mask in (5, 9))

    monkeypatch.setattr(constructions, "_dual_formulas", shifted)
    rep = check_subdivision(fig7, 0)
    assert not rep["ok"] and not rep["shifts_ok"]
    assert rep["witness"]["subset_mask"] == 5 and rep["witness"]["delta"] % 2 == 1


def test_pendant_positions_and_counts(fig7):
    base = fig7.counts()
    for pos in sorted(fig7.hyperedge_sets[0]):
        out = add_pendant_vertex(fig7, 0, pos)
        cb = out.counts()
        assert cb.eps == base.eps
        assert cb.v == base.v + 1
        assert out.incidences(out.hyperedge_names.index("e1")) == 4


def test_pendant_on_smallest():
    h = star(1)
    out = add_pendant_vertex(h, 0, 0)
    assert out.v == 2 and out.incidences(0) == 2
    assert out.counts().chi == 2


def test_pendant_invariance_report(plane, torus):
    assert check_pendant_invariance(plane)["ok"]
    assert check_pendant_invariance(torus)["ok"]


def test_ladder_tree_reconstruction():
    for n in (2, 3, 4):
        h = ladder(n)
        e1 = h.hyperedge_names.index("e1")
        en = h.hyperedge_names.index(f"e{n}")
        out = add_pendant_vertex(h, e1, min(h.hyperedge_sets[e1]))
        e1b = out.hyperedge_names.index("e1")
        out = add_pendant_vertex(out, e1b, min(out.hyperedge_sets[e1b]))
        enb = out.hyperedge_names.index(f"e{n}")
        out = add_pendant_vertex(out, enb, min(out.hyperedge_sets[enb]))
        enb = out.hyperedge_names.index(f"e{n}")
        out = add_pendant_vertex(out, enb, min(out.hyperedge_sets[enb]))
        assert out.v == ladder_tree(n).v
        assert euler_genus_polynomial(out) == euler_genus_polynomial(ladder_tree(n))


def test_aggregate_construction_report(fig7):
    from hypermaps.constructions import check_construction_theorems

    s3 = star(3)
    rep = check_construction_theorems(fig7, corner(fig7, 0), s3, corner(s3, 0))
    assert rep["ok"]
    assert len(rep["reports"]) == 5  # join, bar, subdivision, two pendants


def test_constructions_validate(fig7):
    # every construction output re-validates from its own flag data
    s = star(3)
    outputs = [
        join(fig7, corner(fig7, 0), s, corner(s, 0)),
        bar_amalgamation(
            fig7, AmalgamationPicks((corner(fig7, 0),)),
            s, AmalgamationPicks((corner(s, 1),))),
        subdivide3(fig7, 1),
        add_pendant_vertex(fig7, 2, min(fig7.hyperedge_sets[2])),
    ]
    for out in outputs:
        again = Hypermap.from_flags(out.tau, out.psi, out.iota,
                                    hyperedge_sets=out.hyperedge_sets)
        assert again.counts() == out.counts()


@settings(max_examples=60, deadline=None)
@given(h1=spec_maps, h2=spec_maps, x=st.integers(0, 99), y=st.integers(0, 99))
def test_splices_on_random_maps(h1, h2, x, y):
    # the count changes of each construction, on twisted and disconnected maps
    x, y = x % h1.n, y % h2.n
    c1, c2 = h1.counts(), h2.counts()
    out = join(h1, CornerRef(h1.vertex_of(x), x), h2, CornerRef(h2.vertex_of(y), y))
    cb = out.counts()
    assert (out.v, out.e, out.n) == (h1.v + h2.v - 1, h1.e + h2.e, h1.n + h2.n)
    assert cb.c == c1.c + c2.c - 1 and cb.eps == c1.eps + c2.eps
    assert len(set(out.vertex_names)) == out.v
    out = bar_amalgamation(h1, AmalgamationPicks((CornerRef(h1.vertex_of(x), x),)),
                           h2, AmalgamationPicks((CornerRef(h2.vertex_of(y), y),)))
    assert (out.v, out.e, out.n) == (h1.v + h2.v, h1.e + h2.e + 1, h1.n + h2.n + 4)
    assert out.counts().c == c1.c + c2.c - 1
    edge = h1.hyperedge_of(x)
    out = add_pendant_vertex(h1, edge, x)
    assert out.incidences(out.e - 1) == h1.incidences(edge) + 1
    for edge in (i for i in range(h1.e) if h1.incidences(i) == 3):
        assert subdivide3(h1, edge).counts().eps == c1.eps


@settings(max_examples=60, deadline=None)
@given(h=spec_maps)
def test_face_classes_are_partial_dual_vertex_classes(h):
    # ids number the classes in order of their least label
    for mask in range(1, min(1 << h.e, 65)):
        expected = [0] * h.n
        for i, s in enumerate(sorted(partial_dual(h, mask).vertex_sets, key=min)):
            for x in s:
                expected[x] = i
        assert face_class_of_labels(h, mask) == expected


# -- splices checked where they splice ---------------------------------------


def _fields(h):
    return (h.tau, h.psi, h.iota, h.vertex_sets, h.hyperedge_sets, h.vertex_names,
            h.hyperedge_names, h.label_names, h._vertex_of, h._hyperedge_of)


def _assert_equals_full_rebuild(out):
    """``out`` is what the full validation of ``from_flags`` makes of its
    flags: the same classes derived from the iota pairing, and, with the
    classes declared in their order, every field, the tables included."""
    derived = Hypermap.from_flags(out.tau, out.psi, out.iota)
    assert set(derived.vertex_sets) == set(out.vertex_sets)
    assert set(derived.hyperedge_sets) == set(out.hyperedge_sets)
    again = Hypermap.from_flags(
        out.tau, out.psi, out.iota,
        hyperedge_sets=out.hyperedge_sets, hyperedge_names=out.hyperedge_names,
        vertex_sets=out.vertex_sets, vertex_names=out.vertex_names,
        label_names=out.label_names)
    assert _fields(again) == _fields(out)
    assert len(set(out.vertex_names)) == out.v
    assert len(set(out.hyperedge_names)) == out.e


@settings(max_examples=80, deadline=None)
@given(h1=spec_maps, h2=spec_maps, data=st.data())
def test_constructions_equal_their_full_rebuild(h1, h2, data):
    # twisted, possibly disconnected maps, or partial duals of them
    h1 = partial_dual(h1, data.draw(st.integers(0, (1 << h1.e) - 1)))
    h2 = partial_dual(h2, data.draw(st.integers(0, (1 << h2.e) - 1)))

    def corner_of(h):
        x = data.draw(st.integers(0, h.n - 1))
        return CornerRef(h.vertex_of(x), x)

    def picks_of(h):
        vs = data.draw(st.lists(st.integers(0, h.v - 1), min_size=1, max_size=3,
                                unique=True))
        return AmalgamationPicks(tuple(
            CornerRef(v, data.draw(st.sampled_from(sorted(h.vertex_sets[v]))))
            for v in vs))

    _assert_equals_full_rebuild(join(h1, corner_of(h1), h2, corner_of(h2)))
    _assert_equals_full_rebuild(bar_amalgamation(h1, picks_of(h1), h2, picks_of(h2)))
    edge = data.draw(st.integers(0, h1.e - 1))
    position = data.draw(st.sampled_from(sorted(h1.hyperedge_sets[edge])))
    _assert_equals_full_rebuild(add_pendant_vertex(h1, edge, position))
    s3 = star(3)
    h3 = join(h1, corner_of(h1), s3, corner_of(s3))
    for edge in (i for i in range(h3.e) if h3.incidences(i) == 3):
        _assert_equals_full_rebuild(subdivide3(h3, edge))


@given(head=st.lists(st.sampled_from(["a", "a'", "a''", "b", "b'", "c"])),
       tail=st.lists(st.sampled_from(["a", "a'", "b", "c", "d"])))
def test_names_primed_as_one_list(head, tail):
    assert constructions._unique(head, tail) == _dedupe([*head, *tail])


def _drops_the_mirror(img, iota, x, y):
    px, py = iota[img[iota[x]]], iota[img[iota[y]]]
    img[px], img[py] = img[py], img[px]
    return px, py


def _splices_nothing(img, iota, x, y):
    return ()


def _moves_images_not_predecessors(img, iota, x, y):
    img[x], img[y] = img[y], img[x]
    mx, my = iota[x], iota[y]
    img[mx], img[my] = img[my], img[mx]
    return x, y, mx, my


def _merges_a_cycle_with_its_mirror(img, iota, x, y):
    px, pm = iota[img[iota[x]]], iota[img[x]]
    img[px], img[pm] = img[pm], img[px]
    return px, pm


WRONG_SPLICES = {
    "drops the mirror": (_drops_the_mirror, "mirror axiom fails"),
    "splices nothing": (_splices_nothing, "classes disagree"),
    "moves images": (_moves_images_not_predecessors, "mirror axiom fails"),
    "twists": (_merges_a_cycle_with_its_mirror, None),
}
CONSTRUCTIONS = {
    "join": lambda h, s: join(h, corner(h, 0), s, corner(s, 0)),
    "bar": lambda h, s: bar_amalgamation(h, AmalgamationPicks((corner(h, 0),)),
                                         s, AmalgamationPicks((corner(s, 1),))),
    "subdivide": lambda h, s: subdivide3(h, 1),
    "pendant": lambda h, s: add_pendant_vertex(h, 2, min(h.hyperedge_sets[2])),
}


@pytest.mark.parametrize("construction", sorted(CONSTRUCTIONS))
@pytest.mark.parametrize("wrong", sorted(WRONG_SPLICES))
def test_a_wrong_splice_is_caught(monkeypatch, fig7, construction, wrong):
    # the checks at the splices are live: each wrong splice raises, and no
    # map comes back; a broken mirror axiom is reported at the same label
    # as the full check of from_flags reports it
    splice, message = WRONG_SPLICES[wrong]
    monkeypatch.setattr(constructions, "_splice", splice)
    local_check = constructions._Splices.check

    def checks_agree(sp, vertices, hyperedges):
        try:
            Hypermap.from_flags(*map(Permutation, (sp.tau, sp.psi, sp.iota)))
        except HypermapError as exc:
            full = str(exc)
        else:
            full = ""
        with pytest.raises(HypermapError) as local:
            local_check(sp, vertices, hyperedges)
        if full.startswith("mirror axiom"):
            assert str(local.value) == full
        raise local.value

    monkeypatch.setattr(constructions._Splices, "check", checks_agree)
    with pytest.raises(HypermapError, match=message):
        CONSTRUCTIONS[construction](fig7, star(3))


def test_a_splice_outside_the_declared_classes_is_caught():
    # two fresh pairs spliced into one vertex that no declared class holds
    sp = constructions._Splices(2)
    sp.splice("tau", 0, 2)
    with pytest.raises(HypermapError, match="vertex classes disagree"):
        sp.check([], [])
    sp.check([frozenset(range(4))], [])


def test_a_self_paired_cycle_is_caught():
    # one fresh pair made a single cycle (1 2): its mirror lies on it
    sp = constructions._Splices(1)
    sp.tau[:] = [1, 0]
    with pytest.raises(SelfPairedOrbit):
        sp.check([frozenset({0, 1})], [])
    with pytest.raises(SelfPairedOrbit):
        Hypermap.from_flags(Permutation(sp.tau), Permutation(sp.psi), Permutation(sp.iota))


# -- pinned output -------------------------------------------------------------


def _at(h, v, k):
    """The corner of vertex ``v`` at its ``k``-th smallest label."""
    return CornerRef(v, sorted(h.vertex_sets[v])[k])


def _twisted_digon():
    spec = BipartiteMapSpec(
        (BipartiteVertex("a", "V", ("b0", "b1")),
         BipartiteVertex("w", "E", ("b0", "b1"))),
        (BipartiteEdge("b0", 1, "V"), BipartiteEdge("b1", -1, "V")),
    )
    return walsh_build(spec)[1]


def _twisted_triple():
    """A non-orientable map whose 3-incidence hyperedge meets one vertex
    three times."""
    spec = BipartiteMapSpec(
        (BipartiteVertex("a", "V", ("b0", "b1", "b2")),
         BipartiteVertex("c", "V", ("b3",)),
         BipartiteVertex("w", "E", ("b0", "b2", "b1")),
         BipartiteVertex("x", "E", ("b3",))),
        (BipartiteEdge("b0", 1, "V"), BipartiteEdge("b1", -1, "E"),
         BipartiteEdge("b2", 1, "V"), BipartiteEdge("b3", 1, "V")),
    )
    return walsh_build(spec)[1]


def _golden_case(name):
    plane, torus, fig7 = plane_example(), torus_example(), fig7_example()
    digon, s2, s3 = _twisted_digon(), star(2), star(3)
    build = {
        "join_plane_torus": lambda: join(plane, _at(plane, 0, 0), torus, _at(torus, 1, 1)),
        # star(2) keeps its own v1, so the glued vertex (fig7's v1) is primed
        "join_name_order": lambda: join(fig7, _at(fig7, 0, 0), s2, _at(s2, 1, 0)),
        "bar_one_pick": lambda: bar_amalgamation(
            fig7, AmalgamationPicks((_at(fig7, 0, 1),)),
            torus, AmalgamationPicks((_at(torus, 2, 3),))),
        "bar_two_picks": lambda: bar_amalgamation(
            plane, AmalgamationPicks((_at(plane, 0, 0), _at(plane, 3, 1))),
            torus, AmalgamationPicks((_at(torus, 1, 1), _at(torus, 3, 4)))),
        "subdivide_fig7": lambda: subdivide3(fig7, 1),
        "subdivide_star3": lambda: subdivide3(s3, 0),
        "pendant_torus": lambda: add_pendant_vertex(
            torus, 2, sorted(torus.hyperedge_sets[2])[5]),
        "join_digon": lambda: join(digon, _at(digon, 0, 1), digon, _at(digon, 0, 2)),
        "bar_digon": lambda: bar_amalgamation(
            digon, AmalgamationPicks((_at(digon, 0, 3),)),
            s3, AmalgamationPicks((_at(s3, 0, 0), _at(s3, 2, 0)))),
        "subdivide_twisted": lambda: subdivide3(_twisted_triple(), 0),
        "pendant_digon": lambda: add_pendant_vertex(digon, 0, 1),
    }
    return build[name]()


# write_hmf of each construction, label numbering and class names included,
# as the cycle-list implementation of the constructions printed it.
GOLDEN = {
    'join_plane_torus': (
        'hmf 1\n'
        'labels 50\n'
        'vertex v2 (9 47 31) (10 32 48)\n'
        'vertex v3 (15 43) (16 44)\n'
        'vertex v4 (19 21 39) (20 40 22)\n'
        'vertex v5 (25 33) (26 34)\n'
        'vertex v1 (49 51 53) (50 54 52)\n'
        "vertex v3' (57 69 71) (58 72 70)\n"
        "vertex v4' (59 61 63 73) (60 74 64 62)\n"
        "vertex v1' (1 5 56 68 66) (2 65 67 55 6)\n"
        'hyperedge e1 (1 31 25 21) (2 22 26 32)\n'
        'hyperedge e2 (5 19 15 9) (6 10 16 20)\n'
        'hyperedge e3 (33 47 43 39) (34 40 44 48)\n'
        "hyperedge e1' (49 71 73) (50 74 72)\n"
        "hyperedge e2' (51 63 65) (52 66 64)\n"
        "hyperedge e3' (53 55 57 59) (54 60 58 56)\n"
        'hyperedge e4 (61 69 67) (62 68 70)\n'
        'iota (1 2)(5 6)(9 10)(15 16)(19 20)(21 22)(25 26)(31 32)(33 34)(39 40)(43 44)(47 48)(49 50)(51 52)(53 54)(55 56)(57 58)(59 60)(61 62)(63 64)(65 66)(67 68)(69 70)(71 72)(73 74)\n'
    ),
    'join_name_order': (
        'hmf 1\n'
        'labels 28\n'
        'vertex v2 (7 13 19) (8 20 14)\n'
        'vertex v3 (3 9 5) (4 6 10)\n'
        'vertex v4 (11 23 15) (12 16 24)\n'
        'vertex v1 (25) (26)\n'
        "vertex v1' (1 17 21 27) (2 22 18 28)\n"
        'hyperedge e1 (1 5 19) (4 18 8)\n'
        'hyperedge e2 (2 24 10) (3 11 21)\n'
        'hyperedge e3 (6 14 12) (7 9 15)\n'
        'hyperedge e4 (13 23 17) (16 20 22)\n'
        "hyperedge e1' (25 27) (26 28)\n"
        'iota (1 18)(2 21)(3 10)(4 5)(6 9)(7 14)(8 19)(11 24)(12 15)(13 20)(16 23)(17 22)(25 26)(27 28)\n'
    ),
    'bar_one_pick': (
        'hmf 1\n'
        'labels 54\n'
        'vertex v2 (7 13 19) (8 20 14)\n'
        'vertex v3 (3 9 5) (4 6 10)\n'
        'vertex v4 (11 23 15) (12 16 24)\n'
        'vertex v1 (29 31 33) (30 34 32)\n'
        "vertex v2' (35 45 47) (36 48 46)\n"
        "vertex v4' (39 41 43 53) (40 54 44 42)\n"
        "vertex v1' (1 17 21 27) (2 22 18 28)\n"
        "vertex v3' (25 51 37 49) (26 50 38 52)\n"
        'hyperedge e1 (1 5 19) (4 18 8)\n'
        'hyperedge e2 (2 24 10) (3 11 21)\n'
        'hyperedge e3 (6 14 12) (7 9 15)\n'
        'hyperedge e4 (13 23 17) (16 20 22)\n'
        "hyperedge e1' (29 51 53) (30 54 52)\n"
        "hyperedge e2' (31 43 45) (32 46 44)\n"
        "hyperedge e3' (33 35 37 39) (34 40 38 36)\n"
        "hyperedge e4' (41 49 47) (42 48 50)\n"
        'hyperedge bar (25 27) (26 28)\n'
        'iota (1 18)(2 21)(3 10)(4 5)(6 9)(7 14)(8 19)(11 24)(12 15)(13 20)(16 23)(17 22)(25 26)(27 28)(29 30)(31 32)(33 34)(35 36)(37 38)(39 40)(41 42)(43 44)(45 46)(47 48)(49 50)(51 52)(53 54)\n'
    ),
    'bar_two_picks': (
        'hmf 1\n'
        'labels 58\n'
        'vertex v2 (9 47 31) (10 32 48)\n'
        'vertex v3 (15 43) (16 44)\n'
        'vertex v5 (25 33) (26 34)\n'
        'vertex v1 (57 59 61) (58 62 60)\n'
        "vertex v3' (65 77 79) (66 80 78)\n"
        "vertex v1' (2 55 6) (1 5 56)\n"
        'vertex v4 (20 40 22 53) (19 54 21 39)\n'
        "vertex v2' (51 73 75 63) (52 64 76 74)\n"
        "vertex v4' (49 71 81 67 69) (50 70 68 82 72)\n"
        'hyperedge e1 (1 31 25 21) (2 22 26 32)\n'
        'hyperedge e2 (5 19 15 9) (6 10 16 20)\n'
        'hyperedge e3 (33 47 43 39) (34 40 44 48)\n'
        "hyperedge e1' (57 79 81) (58 82 80)\n"
        "hyperedge e2' (59 71 73) (60 74 72)\n"
        "hyperedge e3' (61 63 65 67) (62 68 66 64)\n"
        'hyperedge e4 (69 77 75) (70 76 78)\n'
        'hyperedge bar (49 53 55 51) (50 52 56 54)\n'
        'iota (1 2)(5 6)(9 10)(15 16)(19 20)(21 22)(25 26)(31 32)(33 34)(39 40)(43 44)(47 48)(49 50)(51 52)(53 54)(55 56)(57 58)(59 60)(61 62)(63 64)(65 66)(67 68)(69 70)(71 72)(73 74)(75 76)(77 78)(79 80)(81 82)\n'
    ),
    'subdivide_fig7': (
        'hmf 1\n'
        'labels 36\n'
        'vertex v2 (7 13 19) (8 20 14)\n'
        'vertex v1 (1 17 26 40) (18 41 27 22)\n'
        'vertex v3 (5 32 28 9) (4 6 29 33)\n'
        'vertex v4 (15 38 34 23) (12 16 35 39)\n'
        'vertex u (24 30 36) (25 37 31)\n'
        'hyperedge e1 (1 5 19) (4 18 8)\n'
        'hyperedge e3 (6 14 12) (7 9 15)\n'
        'hyperedge e4 (13 23 17) (16 20 22)\n'
        'hyperedge e2_1 (36 38 40) (37 41 39)\n'
        'hyperedge e2_2 (30 32 34) (31 35 33)\n'
        'hyperedge e2_3 (24 26 28) (25 29 27)\n'
        'iota (1 18)(4 5)(6 9)(7 14)(8 19)(12 15)(13 20)(16 23)(17 22)(24 25)(26 27)(28 29)(30 31)(32 33)(34 35)(36 37)(38 39)(40 41)\n'
    ),
    'subdivide_star3': (
        'hmf 1\n'
        'labels 18\n'
        'vertex v1 (3 17) (4 18)\n'
        'vertex v2 (11 15) (12 16)\n'
        'vertex v3 (5 9) (6 10)\n'
        'vertex u (1 7 13) (2 14 8)\n'
        'hyperedge e1_1 (13 15 17) (14 18 16)\n'
        'hyperedge e1_2 (7 9 11) (8 12 10)\n'
        'hyperedge e1_3 (1 3 5) (2 6 4)\n'
        'iota (1 2)(3 4)(5 6)(7 8)(9 10)(11 12)(13 14)(15 16)(17 18)\n'
    ),
    'pendant_torus': (
        'hmf 1\n'
        'labels 28\n'
        'vertex v1 (1 5 9) (2 10 6)\n'
        'vertex v2 (15 35 37) (16 38 36)\n'
        'vertex v3 (19 43 45) (20 46 44)\n'
        'vertex v4 (23 25 29 51) (24 52 30 26)\n'
        'vertex p5 (53) (54)\n'
        'hyperedge e1 (1 45 51) (2 52 46)\n'
        'hyperedge e2 (5 29 35) (6 36 30)\n'
        'hyperedge e4 (25 43 37) (26 38 44)\n'
        'hyperedge e3 (9 15 19 53 23) (10 24 54 20 16)\n'
        'iota (1 2)(5 6)(9 10)(15 16)(19 20)(23 24)(25 26)(29 30)(35 36)(37 38)(43 44)(45 46)(51 52)(53 54)\n'
    ),
    'join_digon': (
        'hmf 1\n'
        'labels 8\n'
        'vertex a (1 8 10 5) (2 6 9 7)\n'
        'hyperedge w (1 6) (2 5)\n'
        "hyperedge w' (7 10) (8 9)\n"
        'iota (1 2)(5 6)(7 8)(9 10)\n'
    ),
    'bar_digon': (
        'hmf 1\n'
        'labels 16\n'
        'vertex v2 (15) (16)\n'
        'vertex a (1 5 11) (2 12 6)\n'
        'vertex v1 (9 14) (10 13)\n'
        'vertex v3 (7 18) (8 17)\n'
        'hyperedge w (1 6) (2 5)\n'
        'hyperedge e1 (13 15 17) (14 18 16)\n'
        'hyperedge bar (7 11 9) (8 10 12)\n'
        'iota (1 2)(5 6)(7 8)(9 10)(11 12)(13 14)(15 16)(17 18)\n'
    ),
    'subdivide_twisted': (
        'hmf 1\n'
        'labels 20\n'
        'vertex c (13) (14)\n'
        'vertex a (17 31 29 25 20 24) (18 23 19 26 30 32)\n'
        'vertex u (15 21 27) (16 28 22)\n'
        'hyperedge x (13) (14)\n'
        'hyperedge w_1 (27 29 31) (28 32 30)\n'
        'hyperedge w_2 (21 23 25) (22 26 24)\n'
        'hyperedge w_3 (15 17 19) (16 20 18)\n'
        'iota (13 14)(15 16)(17 18)(19 20)(21 22)(23 24)(25 26)(27 28)(29 30)(31 32)\n'
    ),
    'pendant_digon': (
        'hmf 1\n'
        'labels 6\n'
        'vertex a (1 5) (2 6)\n'
        'vertex p2 (7) (8)\n'
        'hyperedge w (1 7 6) (2 5 8)\n'
        'iota (1 2)(5 6)(7 8)\n'
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_construction_output_is_pinned(name):
    assert write_hmf(_golden_case(name)) == GOLDEN[name]
