"""HMF and BMF text formats, and the Walsh builder."""

import pytest
from hypothesis import given, settings, strategies as st

from hypermaps.duality import partial_dual
from hypermaps.errors import (
    CycleFormatError,
    DuplicateLabel,
    HypermapError,
    IotaUnsolvable,
    MissingLabel,
    PairLengthMismatch,
)
from hypermaps.generators import (
    PLANE_BMF,
    TORUS_BMF,
    cycle_hypertree,
    ladder,
)
from hypermaps.hmf import read_hmf, write_hmf
from hypermaps.model import Hypermap
from hypermaps.perm import format_cycles, parse_cycles
from hypermaps.walsh import (
    BipartiteEdge,
    BipartiteMapSpec,
    BipartiteVertex,
    parse_bmf,
    walsh_build,
    write_bmf,
)

from conftest import random_bipartite_spec, spec_maps

PRINTED = {
    "plane_tau": "(1,5)(2,6)(9,47,31)(10,32,48)(15,43)(16,44)(19,21,39)(20,40,22)(25,33)(26,34)",
    "plane_psi": "(1,31,25,21)(2,22,26,32)(5,19,15,9)(6,10,16,20)(33,47,43,39)(34,40,44,48)",
    "torus_tau": "(1,5,9)(2,10,6)(15,35,37)(16,38,36)(19,43,45)(20,46,44)(23,25,29,51)(24,52,30,26)",
    "torus_psi": "(1,45,51)(2,52,46)(5,29,35)(6,36,30)(9,15,19,23)(10,24,20,16)(25,43,37)(26,38,44)",
}


def canon(text: str) -> str:
    return format_cycles(parse_cycles(text))


def test_walsh_reproduces_plane_printed_data(plane):
    spec = parse_bmf(PLANE_BMF)
    m, h = walsh_build(spec)
    assert h.format_tau() == canon(PRINTED["plane_tau"])
    assert h.format_psi() == canon(PRINTED["plane_psi"])
    assert h == plane
    assert m.counts().chi == h.counts().chi
    assert m.counts().f == h.counts().f
    assert m.n == 48 and h.n == 24


def test_walsh_reproduces_torus_printed_data(torus):
    spec = parse_bmf(TORUS_BMF)
    m, h = walsh_build(spec)
    assert h.format_tau() == canon(PRINTED["torus_tau"])
    assert h.format_psi() == canon(PRINTED["torus_psi"])
    assert h == torus


def test_walsh_single_edge_sphere():
    spec = BipartiteMapSpec(
        (BipartiteVertex("a", "V", ("b0",)), BipartiteVertex("w", "E", ("b0",))),
        (BipartiteEdge("b0", 1, "V"),),
    )
    m, h = walsh_build(spec)
    assert h.n == 2 and h.counts().chi == 2
    assert h.v == 1 and h.e == 1


def test_bmf_roundtrip():
    spec = parse_bmf(TORUS_BMF)
    assert parse_bmf(write_bmf(spec)) == spec


def test_bmf_errors():
    with pytest.raises(CycleFormatError):
        parse_bmf("bvertex V v1 (b0)\n")  # no header
    with pytest.raises(MissingLabel):
        parse_bmf("bmf 1\nbvertex V v1 (b0)\nbvertex E w1 (b0)\n")  # no edge line
    with pytest.raises(DuplicateLabel):
        parse_bmf(
            "bmf 1\nbvertex V v1 (b0 b0)\nbvertex E w1 (b0)\nedge b0 + V\n"
        )
    with pytest.raises(DuplicateLabel):
        parse_bmf(  # both ends claimed on one side
            "bmf 1\nbvertex V v1 (b0)\nbvertex V v2 (b0)\nedge b0 + V\n"
        )


@pytest.mark.parametrize("side", ["V", "E"])
def test_bmf_rejects_an_empty_rotation(side):
    # a node with no edges would be a class without labels
    text = f"bmf 1\nbvertex V v1 (b0)\nbvertex E w1 (b0)\nbvertex {side} x ()\nedge b0 + V\n"
    with pytest.raises(MissingLabel, match="empty rotation"):
        parse_bmf(text)
    spec = BipartiteMapSpec(
        (BipartiteVertex("v1", "V", ("b0",)), BipartiteVertex("w1", "E", ("b0",)),
         BipartiteVertex("x", side, ())),
        (BipartiteEdge("b0", 1),),
    )
    with pytest.raises(MissingLabel):
        walsh_build(spec)


@pytest.mark.parametrize("build", [
    lambda: ladder(3),
    lambda: cycle_hypertree(4),
])
def test_hmf_roundtrip_families(build):
    h = build()
    again = read_hmf(write_hmf(h))
    assert again == h
    assert again.vertex_names == h.vertex_names
    assert again.hyperedge_names == h.hyperedge_names


def test_hmf_roundtrip_examples(plane, torus, fig7):
    for h in (plane, torus, fig7):
        assert read_hmf(write_hmf(h)) == h


def test_hmf_without_iota_solves(fig7):
    text = "\n".join(
        line for line in write_hmf(fig7).splitlines() if not line.startswith("iota")
    )
    h = read_hmf(text)
    assert h.counts() == fig7.counts()


def test_hmf_sparse_labels_and_comments():
    text = """\
# a degree-2 digon with sparse labels
hmf 1
vertex a (7 100) (9 102)
hyperedge p (7) (9)
hyperedge q (100) (102)
"""
    h = read_hmf(text)
    assert h.n == 4 and h.v == 1 and h.e == 2
    assert h.label_names == (7, 9, 100, 102)
    assert h.counts().chi == 2


def test_hmf_errors():
    with pytest.raises(CycleFormatError):
        read_hmf("hmf 2\n")
    with pytest.raises(CycleFormatError):
        read_hmf("hmf 1\nvertex v (1 2)\nhyperedge e (1) (2)\n")  # one cycle only
    with pytest.raises(DuplicateLabel):
        read_hmf("hmf 1\nvertex v (1 2) (1 3)\nhyperedge e (1 2) (1 3)\n")
    with pytest.raises(MissingLabel):
        read_hmf("hmf 1\nlabels 6\nvertex v (1) (2)\nhyperedge e (1) (2)\n")
    with pytest.raises(MissingLabel):
        read_hmf("hmf 1\nvertex v (1) (2)\nhyperedge e (1) (3)\n")
    body = "vertex v (1) (2)\nhyperedge e (1) (2)\n"
    for line in ("labels abc", "labels", "iota", "vertex w (1 \u00b2) (3 4)",
                 "vertex w (" + "7" * 5000 + ") (3)"):
        with pytest.raises(CycleFormatError):
            read_hmf(f"hmf 1\n{line}\n{body}")


# Each error the reader raises for lines of the shape write_hmf prints.
_LONG = "7" * 5000


@pytest.mark.parametrize("text, error, message", [
    pytest.param("vertex a (1 2) (3 4)\nvertex b (2) (5)\n"
                 "hyperedge e (1 3) (2 4)\nhyperedge f (5) (5)\n",
                 DuplicateLabel, "vertex section", id="repeat-in-vertex-section"),
    pytest.param("vertex a (1 2) (3 4)\nhyperedge e (1 3) (2 4)\nhyperedge f (1) (2)\n",
                 DuplicateLabel, "hyperedge section", id="repeat-in-hyperedge-section"),
    pytest.param("vertex a (1 2) (3 4)\nhyperedge e (1 3) (2 5)\n",
                 MissingLabel, "label 5 is not in the vertex section",
                 id="hyperedge-label-not-in-vertex-section"),
    pytest.param("vertex a (1 2 3) (4)\nhyperedge e (1) (4)\nhyperedge f (2) (3)\n",
                 PairLengthMismatch, "vertex pair", id="pair-lengths-differ"),
    pytest.param("vertex a (1) (2)\nvertex b (3) (4)\nhyperedge e (1 3) (4 2)\n"
                 "iota (1 4)(2 3)\n",
                 IotaUnsolvable, "declared partner", id="iota-onto-a-non-partner"),
    pytest.param(f"vertex a (1 {_LONG}) (3 4)\nhyperedge e (1) (3)\n",
                 CycleFormatError, "label of 5000 digits", id="label-of-5000-digits"),
    pytest.param(f"vertex a (1) (2)\nhyperedge e (1) ({_LONG})\n",
                 CycleFormatError, "label of 5000 digits",
                 id="hyperedge-label-of-5000-digits"),
    pytest.param(f"vertex a (1) (2)\nhyperedge e (1) (2)\niota (1 {_LONG})\n",
                 CycleFormatError, "label of 5000 digits", id="iota-label-of-5000-digits"),
    pytest.param("vertex a (1 0) (3 4)\nhyperedge e (1 3) (0 4)\n",
                 CycleFormatError, "positive", id="label-zero"),
    pytest.param("vertex a (1) (2)\nhyperedge e (1) (2)\niota (0 1)\n",
                 CycleFormatError, "positive", id="iota-label-zero"),
])
def test_read_hmf_error_classes(text, error, message):
    with pytest.raises(error, match=message):
        read_hmf("hmf 1\n" + text)


def _without_iota(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("iota"))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**6), mask=st.integers(0, 2**8 - 1))
def test_hmf_text_roundtrips(seed, mask):
    # a twisted map and one of its partial duals; without its iota line a
    # text reads to the same cycles, with the least iota that fits them
    h = walsh_build(random_bipartite_spec(seed, twisted=True))[1]
    for m in (h, partial_dual(h, mask % (1 << h.e))):
        text = write_hmf(m)
        assert write_hmf(read_hmf(text)) == text
        bare = _without_iota(text)
        assert _without_iota(write_hmf(read_hmf(bare))) == bare


def test_hmf_without_iota_many_components():
    # one search level of the iota solver per component
    k = 1200
    text = "hmf 1\n" + "".join(
        f"vertex v{i} ({2 * i - 1}) ({2 * i})\nhyperedge e{i} ({2 * i - 1}) ({2 * i})\n"
        for i in range(1, k + 1)
    )
    h = read_hmf(text)
    assert h.label_names == tuple(range(1, 2 * k + 1))
    assert h.iota.image == tuple(x ^ 1 for x in range(2 * k))
    assert h.component_count() == k


# Valid and broken HMF directives over the labels 1..6.
_HMF_LINES = (
    "hmf 1", "hmf 2", "hmf", "labels 2", "labels 6", "labels", "labels abc",
    "vertex a (1) (2)", "vertex b (3 5) (4 6)", "vertex x", "vertex x (1 2)",
    "vertex x (1 \u00b2) (3 4)", "hyperedge p (1) (2)", "hyperedge s (3 5) (6 4)",
    "hyperedge t (1 9) (2 8)", "iota (1 2)", "iota (1 2)(3 4)(5 6)", "iota",
    "iota (1 2 3)", "iota (1 1)", "# comment", "",
)


@settings(max_examples=300, deadline=None)
@given(h=spec_maps, drop=st.sets(st.integers(0, 40), max_size=3),
       insert=st.lists(st.tuples(st.integers(0, 40),
                                 st.one_of(st.sampled_from(_HMF_LINES),
                                           st.text(max_size=12))),
                       max_size=3))
def test_read_hmf_fails_only_with_domain_errors(h, drop, insert):
    # the HMF of a random map, with lines dropped and others put in
    lines = [line for i, line in enumerate(write_hmf(h).splitlines())
             if i not in drop]
    for at, line in insert:
        lines.insert(at % (len(lines) + 1), line)
    try:
        out = read_hmf("\n".join(lines))
    except HypermapError:
        return
    assert isinstance(out, Hypermap)
