"""Hypermap constructions: join, bar-amalgamation, subdivision, pendants.

All constructions work on cycle lists: affected classes are rewritten as
explicit label sequences, every mirror cycle is re-derived from the side
pairing (so the mirror axioms hold by construction), and the result is
reassembled and fully validated.  A corner is addressed by a single label;
insertions land immediately before that label in its own cycle, and the
mirrored insertion position follows from the side pairing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .errors import (
    BadCorner,
    DuplicateVertexPick,
    EdgeDegreeUnsupported,
    HypermapError,
    MissingLabel,
)
from .duality import EdgeSubset, eps_partial_dual_formula, psi_restricted
from .genuspoly import EngineConfig, GenusPolynomial, euler_genus_polynomial
from .model import Hypermap, _paired_classes
from .perm import Permutation

__all__ = [
    "CornerRef",
    "AmalgamationPicks",
    "join",
    "bar_amalgamation",
    "corner_face_count",
    "subdivide3",
    "add_pendant_vertex",
    "parse_corner",
    "check_join_polynomial",
    "check_amalgamation_theorem",
    "check_subdivision",
    "check_pendant_invariance",
    "check_construction_theorems",
]


@dataclass(frozen=True)
class CornerRef:
    """A corner of a vertex, addressed by one label of its cycle pair."""

    vertex: int
    label: int

    def validate(self, h: Hypermap) -> None:
        if not 0 <= self.vertex < h.v or self.label not in h.vertex_sets[self.vertex]:
            raise BadCorner(
                f"label {self.label} does not belong to vertex index {self.vertex}"
            )


@dataclass(frozen=True)
class AmalgamationPicks:
    """Corner picks on one side of a bar-amalgamation.

    ``hyperedge`` is optional; when given, every picked vertex must be
    incident to it (the construction itself never uses the hyperedge).
    """

    picks: tuple[CornerRef, ...]
    hyperedge: int | None = None

    def validate(self, h: Hypermap) -> None:
        if not self.picks:
            raise BadCorner("at least one corner pick is required")
        seen = set()
        for c in self.picks:
            c.validate(h)
            if c.vertex in seen:
                raise DuplicateVertexPick(
                    f"vertex index {c.vertex} picked twice on one side"
                )
            seen.add(c.vertex)
        if self.hyperedge is not None:
            eset = h.hyperedge_sets[self.hyperedge]
            for c in self.picks:
                if not (h.vertex_sets[c.vertex] & eset):
                    raise BadCorner(
                        f"vertex index {c.vertex} is not incident to the named hyperedge"
                    )


def parse_corner(h: Hypermap, text: str) -> CornerRef:
    """Parse ``vertexname@externallabel`` into a corner reference."""
    try:
        vname, lbl = text.split("@", 1)
        label = h.internal(int(lbl))
    except (ValueError, MissingLabel):
        raise BadCorner(f"cannot parse corner {text!r}; expected name@label")
    corner = CornerRef(h.vertex_index(vname.strip()), label)
    corner.validate(h)
    return corner


# -- assembly of rewritten cycle systems --------------------------------------


class _Assembly:
    """Collects class primaries plus a side pairing, then builds a hypermap.

    Labels may be arbitrary non-negative integers (old, shifted, or fresh);
    they are compacted to a dense universe at build time.  Mirror cycles are
    derived from the pairing, never supplied.
    """

    def __init__(self):
        self.vertex_primaries: list[tuple[list[int], str]] = []
        self.hyperedge_primaries: list[tuple[list[int], str]] = []
        self.iota: dict[int, int] = {}
        self.external: dict[int, int] = {}
        self._fresh = -1

    def copy_from(self, h: Hypermap, offset: int = 0,
                  skip_vertices: frozenset[int] = frozenset(),
                  skip_hyperedges: frozenset[int] = frozenset()) -> None:
        for i in range(h.v):
            if i not in skip_vertices:
                self.vertex_primaries.append(
                    ([x + offset for x in h.vertex_cycle(i)], h.vertex_names[i])
                )
        for i in range(h.e):
            if i not in skip_hyperedges:
                self.hyperedge_primaries.append(
                    ([x + offset for x in h.hyperedge_cycle(i)], h.hyperedge_names[i])
                )
        for x in range(h.n):
            self.iota[x + offset] = h.iota(x) + offset

    def fresh_pair(self) -> tuple[int, int]:
        a, b = self._fresh, self._fresh - 1
        self._fresh -= 2
        self.iota[a] = b
        self.iota[b] = a
        return a, b

    def build(self) -> Hypermap:
        labels: set[int] = set()
        for cyc, _ in self.vertex_primaries:
            labels.update(cyc)
            labels.update(self.iota[x] for x in cyc)
        order = sorted(labels)
        dense = {old: i for i, old in enumerate(order)}

        def pair_of(primary: list[int]) -> tuple[list[int], list[int]]:
            mirror = [self.iota[x] for x in reversed(primary)]
            return [dense[x] for x in primary], [dense[x] for x in mirror]

        vpairs = [pair_of(cyc) for cyc, _ in self.vertex_primaries]
        epairs = [pair_of(cyc) for cyc, _ in self.hyperedge_primaries]
        iota_img = [0] * len(order)
        for old in order:
            iota_img[dense[old]] = dense[self.iota[old]]
        ext_used = {v for v in self.external.values()}
        next_ext = max(ext_used, default=0) + 1
        label_names = []
        for old in order:
            if old in self.external:
                label_names.append(self.external[old])
            else:
                label_names.append(next_ext)
                next_ext += 1
        return Hypermap.from_parts(
            vpairs, epairs, iota=Permutation(iota_img),
            vertex_names=[nm for _, nm in self.vertex_primaries],
            hyperedge_names=[nm for _, nm in self.hyperedge_primaries],
            label_names=label_names,
        )

    def keep_externals(self, h: Hypermap, offset: int = 0) -> None:
        for x in range(h.n):
            self.external[x + offset] = h.label_names[x]


def _dedupe(base: list[tuple[list[int], str]]) -> None:
    seen: set[str] = set()
    for k, (cyc, nm) in enumerate(base):
        while nm in seen:
            nm = nm + "'"
        seen.add(nm)
        base[k] = (cyc, nm)


def _rewrite(cycle: Iterable[int], rules: dict[int, list[int]]) -> list[int]:
    out: list[int] = []
    for x in cycle:
        out.extend(rules.get(x, [x]))
    return out


# -- join ---------------------------------------------------------------------


def join(h1: Hypermap, c1: CornerRef, h2: Hypermap, c2: CornerRef) -> Hypermap:
    """Glue ``h2``'s picked vertex into a corner of ``h1``'s picked vertex.

    The second vertex's cycle, rotated to start at ``c2``'s label, is spliced
    immediately before ``c1``'s label; everything else is untouched.  Labels
    of ``h2`` are shifted, so the inputs need not be disjoint objects.
    """
    c1.validate(h1)
    c2.validate(h2)
    off = h1.n
    asm = _Assembly()
    asm.copy_from(h1, 0, skip_vertices=frozenset({c1.vertex}))
    asm.copy_from(h2, off, skip_vertices=frozenset({c2.vertex}))
    asm.keep_externals(h1, 0)
    spliced = [x + off for x in h2.tau.orbit_of(c2.label)]
    spliced += list(h1.tau.orbit_of(c1.label))
    asm.vertex_primaries.append((spliced, h1.vertex_names[c1.vertex]))
    _dedupe(asm.vertex_primaries)
    _dedupe(asm.hyperedge_primaries)
    return asm.build()


# -- bar-amalgamation ---------------------------------------------------------


def _normalize_side(h: Hypermap, picks: Sequence[CornerRef]) -> list[CornerRef]:
    """Re-address corners so all picked labels share one orientation side.

    ``label`` and ``iota(tau^-1(label))`` address the same geometric corner
    from the two sides; face-class membership is unchanged by the swap.
    """
    if not h.is_orientable():
        return list(picks)
    side = h.sides()
    want = side[picks[0].label]
    out = []
    for c in picks:
        if side[c.label] == want:
            out.append(c)
        else:
            relabeled = h.iota(h.tau.inverse()(c.label))
            out.append(CornerRef(c.vertex, relabeled))
    return out


def bar_amalgamation(h1: Hypermap, p1: AmalgamationPicks,
                     h2: Hypermap, p2: AmalgamationPicks) -> Hypermap:
    """Connect the two hypermaps by one fresh hyperedge through the picks.

    Each picked vertex receives one fresh label pair at its corner; the
    connecting hyperedge runs through the first side's picks in order and the
    second side's in reverse.  Picks are normalized to a common orientation
    side per hypermap (the same corners, re-addressed), which keeps the bar
    untwisted.

    The genus-change count formulas assume picks listed in face-boundary
    order; any order still yields a valid hypermap, but picks running against
    a face boundary attach the bar with extra twisting.
    """
    p1.validate(h1)
    p2.validate(h2)
    picks1 = _normalize_side(h1, p1.picks)
    picks2 = _normalize_side(h2, p2.picks)
    off = h1.n
    asm = _Assembly()
    skip1 = frozenset(c.vertex for c in picks1)
    skip2 = frozenset(c.vertex for c in picks2)
    asm.copy_from(h1, 0, skip_vertices=skip1)
    asm.copy_from(h2, off, skip_vertices=skip2)
    asm.keep_externals(h1, 0)

    def insert_pick(h: Hypermap, offset: int, c: CornerRef) -> int:
        """Splice a fresh pair at the corner; returns the label that sits
        beside the corner label in its own cycle."""
        s, s_mirror = asm.fresh_pair()
        x = c.label + offset
        rules = {x: [s, x], asm.iota[x]: [asm.iota[x], s_mirror]}
        primary = [y + offset for y in h.tau.orbit_of(min(h.vertex_sets[c.vertex]))]
        asm.vertex_primaries.append(
            (_rewrite(primary, rules), h.vertex_names[c.vertex])
        )
        return s

    side1 = [insert_pick(h1, 0, c) for c in picks1]
    side2 = [insert_pick(h2, off, c) for c in picks2]
    bar = side1 + side2[::-1]
    asm.hyperedge_primaries.append((bar, "bar"))
    _dedupe(asm.vertex_primaries)
    _dedupe(asm.hyperedge_primaries)
    return asm.build()


# -- spanning-sub face classes and corner counting ----------------------------


def face_class_of_labels(h: Hypermap, a) -> list[int]:
    """Face-class id per label for the spanning sub-hypermap on ``a``.

    Face classes of the sub are the vertex classes of the partial dual: the
    orbits of ``then(psi_A, tau)`` grouped into mirror pairs.
    """
    psi_a = psi_restricted(h, a)
    classes = _paired_classes(psi_a.then(h.tau), psi_a.then(h.iota), "face")
    class_of = [0] * h.n
    for i, labels in enumerate(classes):
        for x in labels:
            class_of[x] = i
    return class_of


def corner_face_count(h: Hypermap, a, corner_labels: Iterable[int]) -> int:
    """Number of distinct spanning-sub faces touched by the given corners."""
    classes = face_class_of_labels(h, a)
    return len({classes[x] for x in corner_labels})


# -- subdivision of a 3-incidence hyperedge -----------------------------------


def subdivide3(h: Hypermap, edge: int) -> Hypermap:
    """Replace a hyperedge with three incidences by a star of three.

    A new degree-3 vertex ``u`` appears; hyperedge ``e = {v1, v2, v3}`` is
    replaced by ``x_i = {v_i, v_(i+1), u}``; at each ``v_i`` the old corner
    receives the two new label pairs in the order ``(x_(i-1), x_i)``.  The
    local rotations are pinned so the face count rises by exactly three,
    keeping the Euler genus unchanged; that invariance is asserted.
    """
    if not 0 <= edge < h.e:
        raise HypermapError(f"no hyperedge with index {edge}")
    if h.incidences(edge) != 3:
        raise EdgeDegreeUnsupported(
            f"subdivision needs exactly 3 incidences, hyperedge has {h.incidences(edge)}"
        )
    eps_before = h.counts().eps
    f_before = h.counts().f
    ename = h.hyperedge_names[edge]
    l = list(h.hyperedge_cycle(edge))  # (l1, l2, l3) in the first cycle's order
    dead = set(h.hyperedge_sets[edge])

    asm = _Assembly()
    touched = frozenset(h.vertex_of(x) for x in l)
    asm.copy_from(h, 0, skip_vertices=touched, skip_hyperedges=frozenset({edge}))
    asm.keep_externals(h, 0)

    a = [0, 0, 0]
    b = [0, 0, 0]
    c = [0, 0, 0]
    for i in range(3):
        a[i], _ = asm.fresh_pair()
        b[i], _ = asm.fresh_pair()
        c[i], _ = asm.fresh_pair()

    rules: dict[int, list[int]] = {}
    for i in range(3):
        seq = [a[i], b[(i - 1) % 3]]  # mirror cycle reads (x_(i-1), x_i)
        rules[l[i]] = seq
        rules[h.iota(l[i])] = [asm.iota[s] for s in reversed(seq)]
    for vi in touched:
        primary = list(h.vertex_cycle(vi))
        asm.vertex_primaries.append((_rewrite(primary, rules), h.vertex_names[vi]))
    asm.vertex_primaries.append(([c[0], c[1], c[2]], "u"))
    for i in range(3):
        asm.hyperedge_primaries.append(
            ([a[i], b[i], c[i]], f"{ename}_{i + 1}")
        )
    for x in dead:
        asm.iota.pop(x, None)
        asm.external.pop(x, None)
    _dedupe(asm.vertex_primaries)
    _dedupe(asm.hyperedge_primaries)
    out = asm.build()
    cb = out.counts()
    if cb.eps != eps_before or cb.f != f_before + 3:
        raise HypermapError(
            "subdivision postcondition failed: "
            f"eps {eps_before}->{cb.eps}, f {f_before}->{cb.f}"
        )
    return out


# -- pendant vertices ---------------------------------------------------------


def add_pendant_vertex(h: Hypermap, edge: int, position: int) -> Hypermap:
    """Attach a fresh degree-1 vertex to a hyperedge.

    ``position`` is a label in the hyperedge's cycle pair; the new label pair
    is spliced immediately before it (mirrored on the other cycle).  The
    Euler genus never changes; this is asserted.
    """
    if not 0 <= edge < h.e:
        raise HypermapError(f"no hyperedge with index {edge}")
    if position not in h.hyperedge_sets[edge]:
        raise BadCorner(f"label {position} is not on hyperedge index {edge}")
    eps_before = h.counts().eps
    asm = _Assembly()
    asm.copy_from(h, 0, skip_hyperedges=frozenset({edge}))
    asm.keep_externals(h, 0)
    s, s_mirror = asm.fresh_pair()
    rules = {position: [s, position],
             h.iota(position): [h.iota(position), s_mirror]}
    primary = _rewrite(h.hyperedge_cycle(edge), rules)
    asm.hyperedge_primaries.append((primary, h.hyperedge_names[edge]))
    asm.vertex_primaries.append(([s], f"p{h.v + 1}"))
    _dedupe(asm.vertex_primaries)
    _dedupe(asm.hyperedge_primaries)
    out = asm.build()
    if out.counts().eps != eps_before:
        raise HypermapError("pendant insertion changed the Euler genus")
    return out


# -- theorem checkers ----------------------------------------------------------


def check_join_polynomial(h1: Hypermap, c1: CornerRef,
                          h2: Hypermap, c2: CornerRef,
                          cfg: EngineConfig | None = None) -> dict:
    """Multiplicativity of the Euler-genus polynomial under join.

    The joined map is enumerated by the ``direct`` engine (``cfg``'s edge cap
    kept): the formula engine factors a map along its joins, so under it
    both sides would be the same product.  The factors use ``cfg``.
    """
    joined = join(h1, c1, h2, c2)
    lhs = euler_genus_polynomial(joined, replace(cfg or EngineConfig(), engine="direct"))
    rhs = euler_genus_polynomial(h1, cfg).mul(euler_genus_polynomial(h2, cfg))
    return {
        "identity": "join polynomial is the product",
        "ok": lhs == rhs,
        "enumerated": lhs.as_json_dict(),
        "product": rhs.as_json_dict(),
    }


def check_amalgamation_theorem(h1: Hypermap, p1: AmalgamationPicks,
                               h2: Hypermap, p2: AmalgamationPicks) -> dict:
    """Enumerated polynomial of the bar-amalgamation versus the corner sum.

    The right-hand side runs over subsets of the non-connecting hyperedges
    and shifts each term by twice the number of extra corner faces, measured
    on the complementary spanning subs; the factor two accounts for the
    connecting hyperedge being in or out of the subset.
    """
    amal = bar_amalgamation(h1, p1, h2, p2)
    lhs = euler_genus_polynomial(amal)
    picks1 = _normalize_side(h1, p1.picks)
    picks2 = _normalize_side(h2, p2.picks)
    corners1 = [c.label for c in picks1]
    corners2 = [c.label for c in picks2]
    acc: dict[int, int] = {}
    e1, e2 = h1.e, h2.e
    full1, full2 = (1 << e1) - 1, (1 << e2) - 1
    for mask in range(1 << (e1 + e2)):
        m1 = mask & full1
        m2 = mask >> e1
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


def check_subdivision(h: Hypermap, edge: int) -> dict:
    """Genus invariance and the confined exponent shifts of a subdivision.

    Each subset of the subdivided map is compared against an old subset whose
    genus it exceeds by 0, 2 or 4.  When at most one of the three replacement
    hyperedges is present that reference is the subset's trace on the old
    hyperedges; otherwise it is the trace's complement, the same reduction by
    which the confinement is proved (genus is complement-symmetric).
    """
    sub = subdivide3(h, edge)
    ok_counts = (
        sub.v == h.v + 1
        and sub.e == h.e + 2
        and sub.n == h.n + 12
        and sub.counts().eps == h.counts().eps
    )
    old_index = {}
    new_edges = []
    for k, name in enumerate(sub.hyperedge_names):
        if name.startswith(h.hyperedge_names[edge] + "_"):
            new_edges.append(k)
        else:
            old_index[k] = h.hyperedge_names.index(name)
    full_old = sum(1 << k for k in range(h.e) if k != edge)
    shifts_ok = True
    witness = None
    mass = 0
    for mask in range(1 << sub.e):
        a_mask = 0
        for new_i, old_i in old_index.items():
            if mask >> new_i & 1:
                a_mask |= 1 << old_i
        if sum(mask >> k & 1 for k in new_edges) > 1:
            a_mask ^= full_old
        delta = eps_partial_dual_formula(sub, mask) - eps_partial_dual_formula(h, a_mask)
        mass += 1
        if delta not in (0, 2, 4):
            shifts_ok = False
            witness = {"subset_mask": mask, "delta": delta}
            break
    mass_ok = mass == 1 << (h.e + 2)
    return {
        "identity": "subdivision shifts exponents by 0, 2 or 4 and keeps the genus",
        "ok": ok_counts and shifts_ok and mass_ok,
        "counts_ok": ok_counts,
        "shifts_ok": shifts_ok,
        "mass": mass,
        **({"witness": witness} if witness else {}),
    }


def check_construction_theorems(h1: Hypermap, c1: CornerRef,
                                h2: Hypermap, c2: CornerRef,
                                picks1: AmalgamationPicks | None = None,
                                picks2: AmalgamationPicks | None = None,
                                subdivide_edge: int | None = None) -> dict:
    """All construction identities on one pair of hypermaps.

    Runs the join product identity at the given corners, the
    bar-amalgamation corner-face sum (through the given picks, defaulting to
    the single corners), the subdivision confinement on the first hypermap's
    named hyperedge (or its first 3-incidence one), and pendant invariance
    on both inputs.  Intended for desk-scale inputs.
    """
    reports = [check_join_polynomial(h1, c1, h2, c2)]
    p1 = picks1 or AmalgamationPicks((c1,))
    p2 = picks2 or AmalgamationPicks((c2,))
    reports.append(check_amalgamation_theorem(h1, p1, h2, p2))
    edge = subdivide_edge
    if edge is None:
        edge = next((i for i in range(h1.e) if h1.incidences(i) == 3), None)
    if edge is not None:
        reports.append(check_subdivision(h1, edge))
    reports.append(check_pendant_invariance(h1))
    reports.append(check_pendant_invariance(h2))
    return {"ok": all(r["ok"] for r in reports), "reports": reports}


def check_pendant_invariance(h: Hypermap, cfg: EngineConfig | None = None) -> dict:
    """Pendant insertion keeps eps at every position of every hyperedge."""
    base = h.counts().eps
    for edge in range(h.e):
        for position in sorted(h.hyperedge_sets[edge]):
            out = add_pendant_vertex(h, edge, position)
            if out.counts().eps != base:
                return {
                    "identity": "pendant insertion keeps the Euler genus",
                    "ok": False,
                    "witness": {"edge": h.hyperedge_names[edge], "position": position},
                }
    return {"identity": "pendant insertion keeps the Euler genus", "ok": True}
