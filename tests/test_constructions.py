"""Join, bar-amalgamation, subdivision and pendant vertices."""

import pytest
from hypothesis import given, settings

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
from hypermaps.duality import EdgeSubset, partial_dual
from hypermaps.errors import (
    BadCorner,
    DuplicateVertexPick,
    EdgeDegreeUnsupported,
)
from hypermaps.genuspoly import euler_genus_polynomial
from hypermaps.generators import (
    cycle_hypertree,
    ladder,
    ladder_tree,
    star,
)

from conftest import spec_maps


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
    from hypermaps.model import Hypermap

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
@given(h=spec_maps)
def test_face_classes_are_partial_dual_vertex_classes(h):
    # ids number the classes in order of their least label
    for mask in range(1, min(1 << h.e, 65)):
        expected = [0] * h.n
        for i, s in enumerate(sorted(partial_dual(h, mask).vertex_sets, key=min)):
            for x in s:
                expected[x] = i
        assert face_class_of_labels(h, mask) == expected
