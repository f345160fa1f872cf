"""Permutation arithmetic: products, orbits, restriction, cycle text."""

import re

import pytest
from hypothesis import given, strategies as st

from hypermaps.errors import CycleFormatError, SizeMismatch
from hypermaps.perm import Permutation, format_cycles, parse_cycle_lists, parse_cycles

FIG7_TAU = "(1,17,21)(2,22,18)(7,13,19)(8,20,14)(3,9,5)(4,6,10)(11,23,15)(12,16,24)"
FIG7_PSI_A = "(1,5,19)(4,18,8)"
FIG7_TAU_DUAL = "(1,3,9,5,7,13,19,17,21)(2,22,18,20,14,8,6,10,4)(11,23,15)(12,16,24)"

perms = st.integers(min_value=1, max_value=48).flatmap(
    lambda n: st.permutations(range(n)).map(Permutation)
)


def test_then_applies_left_first():
    psi_a = parse_cycles(FIG7_PSI_A, size=24)
    tau = parse_cycles(FIG7_TAU, size=24)
    # label 1 -> 5 under the restricted hyperedge rotation, then 5 -> 3.
    assert psi_a(0) == 4 and tau(4) == 2
    assert psi_a.then(tau)(0) == 2
    assert format_cycles(psi_a.then(tau)) == format_cycles(parse_cycles(FIG7_TAU_DUAL))


def test_then_identity_and_inverse():
    p = parse_cycles("(1 3 2)(4 5)", size=6)
    ident = Permutation.identity(6)
    assert ident.then(p) == p
    assert p.then(p.inverse()) == ident
    assert p.inverse().inverse() == p


@given(perms, st.data())
def test_products_are_validated_bijections(p, data):
    q = data.draw(st.permutations(range(p.size)).map(Permutation))
    domain = data.draw(st.sets(st.integers(0, p.size - 1)))
    products = [p.then(q), p.inverse(), p.restrict(domain),
                Permutation.identity(p.size), Permutation.from_cycles(p.orbits(), p.size)]
    for r in products:
        assert type(r.image) is tuple
        assert Permutation(r.image) == r
    assert products[-1] == p


def test_non_bijection_rejected():
    for image in ([0, 0], [1], [0, 2, 1, 2], [0.0]):
        with pytest.raises(ValueError):
            Permutation(image)


def test_then_size_mismatch():
    with pytest.raises(SizeMismatch):
        Permutation.identity(3).then(Permutation.identity(4))


def test_inverse_of_cycle():
    p = parse_cycles("(2 22 18)", size=24)
    assert p.inverse()(1) == 17  # external 2 -> 18


def test_orbit_counts():
    assert Permutation.identity(6).orbit_count() == 6
    assert parse_cycles(FIG7_TAU_DUAL, size=24).orbit_count() == 4
    example1_tau = ("(1,5)(2,6)(9,47,31)(10,32,48)(15,43)(16,44)"
                    "(19,21,39)(20,40,22)(25,33)(26,34)")
    p = parse_cycles(example1_tau, size=48)
    moved_orbits = [o for o in p.orbits() if len(o) > 1]
    assert len(moved_orbits) == 10


def test_restrict_full_and_skip_rule():
    p = parse_cycles("(1 3 2)", size=3)
    assert p.restrict(range(3)) == p
    q = parse_cycles("(1 3 2)", size=3).restrict([0, 1])  # drop external 3
    assert q(0) == 1 and q(1) == 0 and q(2) == 2


def test_restrict_reproduces_printed_restriction():
    # The full bipartite bi-rotation restricted to the vertex-side labels.
    m_tau = ("(1,5)(2,6)(9,47,31)(10,32,48)(15,43)(16,44)(19,21,39)(20,40,22)"
             "(25,33)(26,34)(3,29,27,23)(4,24,28,30)(35,45,41,37)(36,38,42,46)"
             "(7,17,13,11)(8,12,14,18)")
    d_external = [1, 2, 5, 6, 9, 10, 15, 16, 19, 20, 21, 22, 25, 26,
                  31, 32, 33, 34, 39, 40, 43, 44, 47, 48]
    p = parse_cycles(m_tau, size=48)
    restricted = p.restrict([x - 1 for x in d_external])
    expected = parse_cycles(
        "(1,5)(2,6)(9,47,31)(10,32,48)(15,43)(16,44)(19,21,39)(20,40,22)"
        "(25,33)(26,34)", size=48)
    assert restricted == expected


def test_parse_simple_and_example_psi():
    p = parse_cycles("(1 5)(2 6)")
    assert p(0) == 4 and p(4) == 0 and p(1) == 5
    example1_psi = ("(1,3)(2,4)(5,7)(6,8)(9,11)(10,12)(13,15)(14,16)(17,19)"
                    "(18,20)(21,23)(22,24)(25,27)(26,28)(29,31)(30,32)(33,35)"
                    "(34,36)(37,39)(38,40)(41,43)(42,44)(45,47)(46,48)")
    p = parse_cycles(example1_psi)
    orbits = [o for o in p.orbits() if len(o) > 1]
    assert len(orbits) == 24 and all(len(o) == 2 for o in orbits)
    assert p.is_involution() and p.is_fixed_point_free()


def _canonical_reference(text: str) -> str:
    """Independent canonicalization: raw lists, rotate to min, sort, print."""
    cycles = [c for c in parse_cycle_lists(text) if len(c) > 1]
    rotated = []
    for c in cycles:
        k = c.index(min(c))
        rotated.append(c[k:] + c[:k])
    rotated.sort(key=lambda c: c[0])
    return "".join("(" + " ".join(map(str, c)) + ")" for c in rotated)


def test_format_parse_roundtrip_is_canonical():
    assert format_cycles(parse_cycles(FIG7_TAU)) == _canonical_reference(FIG7_TAU)
    shuffled = "(21 1 17)(22 18 2)(13 19 7)(20 14 8)(9 5 3)(6 10 4)(23 15 11)(16 24 12)"
    assert format_cycles(parse_cycles(shuffled)) == _canonical_reference(FIG7_TAU)


def test_parse_errors():
    with pytest.raises(CycleFormatError):
        parse_cycles("(1 2")
    with pytest.raises(CycleFormatError):
        parse_cycles("(1 2)(2 3)")
    with pytest.raises(CycleFormatError):
        parse_cycles("(1 x)")
    assert parse_cycles("()", size=3) == Permutation.identity(3)


@pytest.mark.parametrize("text, message", [
    ("((1 2))", "nested '('"),
    ("(1 2))", "unmatched ')'"),
    (")(1)", "unmatched ')'"),
    ("(1 2)(3", "unterminated cycle"),
    ("(1 x)", "unexpected character 'x'"),
    ("(1 2) y", "unexpected character 'y'"),
    ("(1\u00a02)", "unexpected character '\\xa0'"),
    ("(1\x0b2)", "unexpected character '\\x0b'"),
    ("(1 \u00b2)", "unexpected character '\u00b2'"),
    ("(1 -2)", "unexpected character '-'"),
    ("3 (1 2)", "label 3 outside any cycle"),
    ("(1 0)", "positive"),
    ("(00)", "positive"),
    ("(" + "7" * 5000 + ")", "label of 5000 digits"),
])
def test_parse_cycle_lists_error_kinds(text, message):
    with pytest.raises(CycleFormatError, match=re.escape(message)):
        parse_cycle_lists(text)


def test_parse_cycle_lists_separators():
    assert parse_cycle_lists(" (1,2 3)\t(4)\r\n() (5,,6) ") == [[1, 2, 3], [4], [5, 6]]
    assert parse_cycle_lists("(007 \u0663)") == [[7, 3]]  # any decimal digits
    assert parse_cycle_lists("") == [] and parse_cycle_lists("()()") == []


def test_predicates_and_support():
    ident = Permutation.identity(4)
    assert ident.is_involution() and not ident.is_fixed_point_free()
    assert not parse_cycles("(1 2 3)").is_involution()
    psi_a = parse_cycles(FIG7_PSI_A, size=24)
    assert psi_a.support() == frozenset(x - 1 for x in (1, 5, 19, 4, 18, 8))


@given(perms, st.randoms(use_true_random=False))
def test_orbit_count_of_products_is_symmetric(a, rng):
    b = Permutation.random(a.size, rng)
    assert a.then(b).orbit_count() == b.then(a).orbit_count()


@given(perms)
def test_inverse_involutive_and_cancels(p):
    assert p.inverse().inverse() == p
    assert p.then(p.inverse()) == Permutation.identity(p.size)


@given(perms, st.data())
def test_nested_restriction(p, data):
    d1 = data.draw(st.sets(st.sampled_from(range(p.size))))
    d2 = data.draw(st.sets(st.sampled_from(sorted(d1)))) if d1 else set()
    assert p.restrict(d1).restrict(d2) == p.restrict(d1 & d2)


@given(perms)
def test_format_parse_roundtrip(p):
    assert parse_cycles(format_cycles(p), size=p.size) == p


def _format_cycles_by_orbits(p, names=None):
    """The former three-pass ``format_cycles``: all orbits, then each cycle
    rotated to its least external label, then the cycles sorted."""
    if names is None:
        named = [[x + 1 for x in cyc] for cyc in p.orbits() if len(cyc) > 1]
    else:
        named = [[names[x] for x in cyc] for cyc in p.orbits() if len(cyc) > 1]
    rotated = []
    for cyc in named:
        k = cyc.index(min(cyc))
        rotated.append(cyc[k:] + cyc[:k])
    rotated.sort(key=lambda c: c[0])
    if not rotated:
        return "()"
    return "".join("(" + " ".join(str(x) for x in cyc) + ")" for cyc in rotated)


@given(st.data())
def test_format_cycles_matches_the_three_pass_text(data):
    # some labels moved, the rest fixed; distinct external names with gaps,
    # in shuffled order
    n = data.draw(st.integers(0, 40))
    moved = data.draw(st.lists(st.integers(0, max(n - 1, 0)), unique=True)) if n else []
    img = list(range(n))
    for x, y in zip(moved, data.draw(st.permutations(moved))):
        img[x] = y
    p = Permutation(img)
    names = data.draw(st.permutations(range(1, 3 * n + 2)))[:n]
    assert format_cycles(p) == _format_cycles_by_orbits(p)
    assert format_cycles(p, names) == _format_cycles_by_orbits(p, names)
