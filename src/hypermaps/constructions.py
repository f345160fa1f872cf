"""Hypermap constructions: join, bar-amalgamation, subdivision, pendants.

Each construction edits the flag arrays of its input: the image lists of
``tau``, ``psi`` and ``iota``, the second input's labels shifted past the
first's and fresh label pairs put in front as fixed points.  An insertion
splices one cycle into another by two transpositions of images; subdivision
then cuts the old hyperedge's six labels out by splices and renumbers.  A
corner is addressed by one label; an insertion lands just before it in its
cycle, the mirrored one just after its ``iota`` partner.

The result is built from its validated inputs, not re-validated whole.  The
inputs' classes, names and class tables are carried over, moved to the new
labels; only the splices are checked, exactly: the mirror axioms at the
eight labels per splice where they can fail (see ``_splice``), and each
rewritten or new class walked as a cycle and its mirror (``_Splices.check``).
A construction costs a copy of the arrays and tables plus the classes it
touches, and subdivision and pendants their genus postconditions.
:meth:`Hypermap.from_flags`, :meth:`Hypermap.from_parts` and ``read_hmf``
still validate in full whatever a caller hands in.

Numbering of every result.  Labels: the fresh pairs (the last pair made
first, each pair's ``iota`` partner first), then the first input's labels,
then the second input's.  External names: the first input keeps its own;
the fresh labels, then the second input's, are numbered on from the largest
name kept.  Classes: the first input's untouched ones, then the second's, in
their order, then the rewritten and new ones as each construction lists;
names are then made unique in that order by priming.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import AbstractSet, Iterable, Sequence

from .errors import (
    BadCorner,
    DuplicateVertexPick,
    EdgeDegreeUnsupported,
    HypermapError,
    MissingLabel,
)
from .duality import (
    EdgeSubset,
    _dual_formulas,
    _spanning_table,
    psi_restricted,
)
from .genuspoly import EngineConfig, GenusPolynomial, euler_genus_polynomial
from .model import Hypermap, _dedupe, _mirror_check, _paired_classes
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


# -- splices of the flag arrays ----------------------------------------------


def _flags(fresh: int, *maps: Hypermap) -> tuple[list[int], list[int], list[int]]:
    """Image lists of ``tau``, ``psi`` and ``iota``: ``fresh`` new pairs
    ``(2j, 2j + 1)``, fixed by ``tau`` and ``psi``, then each map's labels."""
    tau, psi = list(range(2 * fresh)), list(range(2 * fresh))
    iota = [x ^ 1 for x in range(2 * fresh)]
    off = 2 * fresh
    for h in maps:
        for img, perm in ((tau, h.tau), (psi, h.psi), (iota, h.iota)):
            img += [y + off for y in perm.image] if off else perm.image
        off += h.n
    return tau, psi, iota


def _splice(img: list[int], iota: Sequence[int], x: int, y: int) -> tuple[int, ...]:
    """Splice the cycle of ``img`` through ``y`` in just before ``x``, and
    its mirror cycle in just after ``iota[x]``; return the labels whose
    image changed.

    Two transpositions: of the images of the predecessors of ``x`` and
    ``y``, and of the images of ``iota[x]`` and ``iota[y]``, so ``img``
    stays a bijection.  A fixed point ``y`` whose partner is fixed too
    becomes one new label in each of the two cycles.  Predecessors come
    from the mirror axiom, ``img^-1(x) = iota(img(iota(x)))``.

    Where the mirror axiom can break.  Let ``t`` satisfy it,
    ``t[i[t[i[z]]]] == z`` for every ``z``, and let splices turn ``t`` into
    ``t'``, changing the images of the labels in ``S`` only.  Take ``z``
    with ``i[z]`` not in ``S``: then ``t'[i[z]] == t[i[z]]``, and
    ``w = i[t[i[z]]]`` is ``t^-1[z]`` by the axiom for ``t``.  If ``w`` is
    not in ``S`` either, ``t'[w] == t[w] == z``, so the axiom holds at
    ``z``.  It can therefore fail only at ``z`` in ``i(S)`` or in
    ``t(S)``: eight labels per splice, which :meth:`_Splices.check` tests.
    """
    px, py = iota[img[iota[x]]], iota[img[iota[y]]]
    img[px], img[py] = img[py], img[px]
    mx, my = iota[x], iota[y]
    img[mx], img[my] = img[my], img[mx]
    return px, py, mx, my


class _Splices:
    """The flag arrays of a construction (see :func:`_flags`), spliced in
    place.  Each spliced array keeps its images from before its first
    splice and the labels whose image a splice changed."""

    def __init__(self, fresh: int, *maps: Hypermap):
        self.tau, self.psi, self.iota = _flags(fresh, *maps)
        self._before: dict[str, tuple[tuple[int, ...], set[int]]] = {}

    def splice(self, name: str, x: int, y: int) -> None:
        """:func:`_splice` on the array ``name``, ``"tau"`` or ``"psi"``."""
        img = getattr(self, name)
        _, changed = self._before.setdefault(name, (tuple(img), set()))
        changed.update(_splice(img, self.iota, x, y))

    def cycle(self, name: str, labels: Sequence[int]) -> None:
        """Make fixed points ``labels`` one cycle of ``name``, in that order,
        and their partners its mirror cycle."""
        for y in labels[1:]:
            self.splice(name, labels[0], y)

    def check(self, vertices: Iterable[AbstractSet[int]],
              hyperedges: Iterable[AbstractSet[int]]) -> None:
        """Check the spliced arrays as :meth:`Hypermap.from_flags` would,
        at the splices only.

        The inputs are valid, and ``vertices`` and ``hyperedges`` are the
        classes the construction declares rewritten or new; every other
        class it declares is an input's class, moved, and all of them
        partition the labels.  The mirror axioms are tested where
        :func:`_splice` shows they can fail, in label order.  Each declared
        class must be the cycle through its least label together with that
        cycle's mirror, which must be another cycle (``model``'s class walk),
        and the declared classes must cover every label whose image changed.
        Then every other class is an input's: a cycle with no changed label
        is a cycle of the inputs, and so is its mirror under ``iota``.
        """
        i = self.iota
        suspects: set[int] = set()
        for before, changed in self._before.values():
            suspects.update(i[s] for s in changed)
            suspects.update(before[s] for s in changed)
        _mirror_check(self.tau, self.psi, i, sorted(suspects))
        for name, kind, classes in (("tau", "vertex", vertices),
                                    ("psi", "hyperedge", hyperedges)):
            classes = list(classes)  # walked only if any: a join declares no hyperedge
            walked = classes and _paired_classes(getattr(self, name), i, kind,
                                                 map(min, classes))
            changed = self._before.get(name, ((), set()))[1]
            if walked != classes or not changed <= set().union(*walked):
                raise HypermapError(
                    f"declared {kind} classes disagree with the iota pairing")


def _carried(sets: Sequence[frozenset[int]], names: Sequence[str],
             table: Sequence[int], move=None, base: int = 0,
             gone: dict[int, int] | None = None):
    """The classes of one input that a construction keeps, their names, and
    the class of every label of the input in the result.

    The kept classes keep their order and are numbered from ``base``; input
    class ``k`` in ``gone`` becomes result class ``gone[k]``.  ``move`` maps
    an input label to its result label (``None``: unchanged).
    """
    gone = gone or {}
    kept: list[frozenset[int]] = []
    kept_names: list[str] = []
    remap: list[int] = []
    start = 0
    for k in [*sorted(gone), len(sets)]:
        remap += range(base + len(kept), base + len(kept) + k - start)
        kept += sets[start:k]
        kept_names += names[start:k]
        remap.append(gone.get(k, -1))
        start = k + 1
    if move is not None:
        kept = [frozenset(map(move, s)) for s in kept]
    if base or gone:
        table = list(map(remap.__getitem__, table))
    return kept, kept_names, table


def _unique(head: Sequence[str], tail: Sequence[str]) -> list[str]:
    """``_dedupe`` of ``head`` then ``tail``, where ``head``, an input's
    names, are usually unique already and are then kept as they are."""
    taken = set(head)
    if len(taken) < len(head):
        return _dedupe([*head, *tail])
    return [*head, *_dedupe(tail, taken)]


def _label_names(kept: Sequence[int], fresh: int, tail: int = 0) -> list[int]:
    """External names: ``fresh`` new ones, ``kept``, then ``tail`` new ones,
    the new ones numbered on from ``max(kept)``."""
    top = max(kept, default=0)
    new = range(top + 1, top + 1 + fresh + tail)
    return [*new[:fresh], *kept, *new[fresh:]]


def _assemble(sp: _Splices, vertices, hyperedges, label_names) -> Hypermap:
    """The hypermap of checked flag arrays; ``vertices`` and ``hyperedges``
    are each ``(sets, names, table)``, the names unique."""
    return Hypermap(Permutation._of(sp.tau), Permutation._of(sp.psi),
                    Permutation._of(sp.iota), vertices[0], hyperedges[0],
                    vertices[1], hyperedges[1], label_names,
                    vertex_of=vertices[2], hyperedge_of=hyperedges[2])


# -- join ---------------------------------------------------------------------


def join(h1: Hypermap, c1: CornerRef, h2: Hypermap, c2: CornerRef) -> Hypermap:
    """Glue ``h2``'s picked vertex into a corner of ``h1``'s picked vertex.

    The second vertex's cycle, entered at ``c2``'s label, is spliced in
    immediately before ``c1``'s label; everything else is untouched.  Labels
    of ``h2`` are shifted, so the inputs need not be distinct objects.

    Numbering as the module says; the glued vertex comes last, under
    ``h1``'s name.
    """
    c1.validate(h1)
    c2.validate(h2)
    off = h1.n
    sp = _Splices(0, h1, h2)
    sp.splice("tau", c1.label, c2.label + off)
    glued = h1.vertex_sets[c1.vertex] | {x + off for x in h2.vertex_sets[c2.vertex]}
    sp.check([glued], [])
    g = h1.v + h2.v - 2
    vsets1, vnames1, vof1 = _carried(h1.vertex_sets, h1.vertex_names,
                                     h1._vertex_of, gone={c1.vertex: g})
    vsets2, vnames2, vof2 = _carried(h2.vertex_sets, h2.vertex_names,
                                     h2._vertex_of, off.__add__, h1.v - 1,
                                     {c2.vertex: g})
    esets1, enames1, eof1 = _carried(h1.hyperedge_sets, h1.hyperedge_names,
                                     h1._hyperedge_of)
    esets2, enames2, eof2 = _carried(h2.hyperedge_sets, h2.hyperedge_names,
                                     h2._hyperedge_of, off.__add__, h1.e)
    return _assemble(
        sp,
        ([*vsets1, *vsets2, glued],
         _unique(vnames1, [*vnames2, h1.vertex_names[c1.vertex]]),
         [*vof1, *vof2]),
        ([*esets1, *esets2], _unique(enames1, enames2), [*eof1, *eof2]),
        _label_names(h1.label_names, 0, h2.n))


# -- bar-amalgamation ---------------------------------------------------------


def _normalize_side(h: Hypermap, picks: Sequence[CornerRef]) -> list[CornerRef]:
    """Re-address corners so all picked labels share one orientation side.

    ``label`` and ``iota(tau^-1(label)) = tau(iota(label))`` address the
    same geometric corner from the two sides; face-class membership is
    unchanged by the swap.
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
            out.append(CornerRef(c.vertex, h.tau(h.iota(c.label))))
    return out


def bar_amalgamation(h1: Hypermap, p1: AmalgamationPicks,
                     h2: Hypermap, p2: AmalgamationPicks) -> Hypermap:
    """Connect the two hypermaps by one fresh hyperedge through the picks.

    Each picked vertex receives one fresh label pair, spliced in before its
    corner label; the connecting hyperedge runs through the first side's
    picks in order and the second side's in reverse.  Picks are normalized
    to a common orientation side per hypermap (the same corners,
    re-addressed: ``x`` as ``iota(tau^-1(x)) = tau(iota(x))``), which keeps
    the bar untwisted.

    The genus-change count formulas assume picks listed in face-boundary
    order; any order still yields a valid hypermap, but picks running against
    a face boundary attach the bar with extra twisting.

    Numbering as the module says, one fresh pair per pick made in pick
    order; the picked vertices come last in that order, then ``bar``.
    """
    p1.validate(h1)
    p2.validate(h2)
    picks1 = _normalize_side(h1, p1.picks)
    picks2 = _normalize_side(h2, p2.picks)
    fresh = len(picks1) + len(picks2)
    off1, off2 = 2 * fresh, 2 * fresh + h1.n
    sp = _Splices(fresh, h1, h2)
    picked = []
    for k, (h, off, c) in enumerate([(h1, off1, c) for c in picks1]
                                    + [(h2, off2, c) for c in picks2]):
        s = 2 * (fresh - k) - 1  # the pair made k-th, partner s - 1
        sp.splice("tau", c.label + off, s)
        labels = frozenset(x + off for x in h.vertex_sets[c.vertex]) | {s, s - 1}
        picked.append((s, labels))
    side = len(picks1)
    sp.cycle("psi", [s for s, _ in picked[:side] + picked[side:][::-1]])
    bar = frozenset(range(2 * fresh))
    sp.check([labels for _, labels in picked], [bar])
    first = h1.v - len(picks1) + h2.v - len(picks2)  # the first picked vertex
    vsets1, vnames1, vof1 = _carried(
        h1.vertex_sets, h1.vertex_names, h1._vertex_of, off1.__add__, 0,
        {c.vertex: first + k for k, c in enumerate(picks1)})
    vsets2, vnames2, vof2 = _carried(
        h2.vertex_sets, h2.vertex_names, h2._vertex_of, off2.__add__, len(vsets1),
        {c.vertex: first + side + k for k, c in enumerate(picks2)})
    esets1, enames1, eof1 = _carried(h1.hyperedge_sets, h1.hyperedge_names,
                                     h1._hyperedge_of, off1.__add__)
    esets2, enames2, eof2 = _carried(h2.hyperedge_sets, h2.hyperedge_names,
                                     h2._hyperedge_of, off2.__add__, h1.e)
    picked_names = [h1.vertex_names[c.vertex] for c in picks1]
    picked_names += [h2.vertex_names[c.vertex] for c in picks2]
    return _assemble(
        sp,
        ([*vsets1, *vsets2, *(labels for _, labels in picked)],
         _unique(vnames1, [*vnames2, *picked_names]),
         # fresh label x is in the pair made (fresh - 1 - x // 2)-th
         [*(first + fresh - 1 - x // 2 for x in range(2 * fresh)), *vof1, *vof2]),
        ([*esets1, *esets2, bar], _unique(enames1, [*enames2, "bar"]),
         [*[h1.e + h2.e] * (2 * fresh), *eof1, *eof2]),
        _label_names(h1.label_names, 2 * fresh, h2.n))


# -- spanning-sub face classes and corner counting ----------------------------


def face_class_of_labels(h: Hypermap, a) -> list[int]:
    """Face-class id per label for the spanning sub-hypermap on ``a``.

    Face classes of the sub are the vertex classes of the partial dual: the
    orbits of ``then(psi_A, tau)`` grouped into mirror pairs.
    """
    psi_a = psi_restricted(h, a)
    classes = _paired_classes(psi_a.then(h.tau).image, psi_a.then(h.iota).image,
                              "face")
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

    Numbering as the module says, nine fresh pairs made as ``a_i, b_i,
    c_i`` for ``x_i`` in turn; the ``v_i`` (in the iteration order of their
    index set) and ``u`` come last, as do ``e_1, e_2, e_3``.
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
    l = h.hyperedge_cycle(edge)  # (l1, l2, l3) in the first cycle's order
    touched = frozenset(h.vertex_of(x) for x in l)

    sp = _Splices(9, h)
    made = [2 * (9 - k) - 1 for k in range(9)]
    a, b, c = made[0::3], made[1::3], made[2::3]

    def paired(*xs):  # fresh labels with their iota partners
        return frozenset(y for x in xs for y in (x, x - 1))

    rewired = {vi: {x + 18 for x in h.vertex_sets[vi]} for vi in touched}
    for i in range(3):
        # the old corner label gives way to (x_(i-1), x_i) in its mirror cycle
        sp.splice("tau", l[i] + 18, a[i])
        sp.splice("tau", l[i] + 18, b[i - 1])
        rewired[h.vertex_of(l[i])] |= paired(a[i], b[i - 1])
        sp.cycle("psi", [a[i], b[i], c[i]])
    sp.cycle("tau", c)
    u = paired(*c)
    stars = [paired(a[i], b[i], c[i]) for i in range(3)]
    sp.check([*rewired.values(), u], stars)

    # Cut the six old labels of e out of tau, each splice leaving one label
    # of the first cycle and its mirror fixed (psi keeps them as one class),
    # then drop them, each survivor ranked in label order.
    for x in l:
        _splice(sp.tau, sp.iota, sp.tau[x + 18], x + 18)
    dead = sorted(x + 18 for x in h.hyperedge_sets[edge])
    rank = list(range(18))
    for k, d in enumerate(dead):
        rank += range(len(rank) - k, d - k)
        rank.append(-1)
    rank += range(len(rank) - 6, len(sp.tau) - 6)

    def cut(values: list, off: int = 0) -> list:
        for d in reversed(dead):
            del values[d - off]
        return values

    moved = rank[18:].__getitem__
    gone = {vi: h.v - len(rewired) + k for k, vi in enumerate(rewired)}
    vsets, vnames, vof = _carried(h.vertex_sets, h.vertex_names, h._vertex_of,
                                  moved, 0, gone)
    esets, enames, eof = _carried(h.hyperedge_sets, h.hyperedge_names,
                                  h._hyperedge_of, moved, 0, {edge: -1})
    fresh_v = [h.v] * 18  # u, but for the pairs given to the v_i
    for vi, labels in rewired.items():
        for x in labels:
            if x < 18:
                fresh_v[x] = gone[vi]
    # x_(i+1), hyperedge h.e - 1 + i, holds the fresh labels 12 - 6i .. 17 - 6i
    fresh_e = [h.e + 1 - x // 6 for x in range(18)]
    sp.tau, sp.psi, sp.iota = (cut(list(map(rank.__getitem__, img)))
                               for img in (sp.tau, sp.psi, sp.iota))
    # an image ranked -1 is a dropped label still referenced: a bad cut,
    # whose arrays would not be permutations
    if any(-1 in img for img in (sp.tau, sp.psi, sp.iota)):
        raise HypermapError("subdivision left an image on a dropped label")
    out = _assemble(
        sp,
        ([*vsets, *(frozenset(rank[x] for x in s if rank[x] >= 0)
                    for s in rewired.values()), u],
         _unique(vnames, [*(h.vertex_names[vi] for vi in rewired), "u"]),
         cut([*fresh_v, *vof])),
        ([*esets, *stars], _unique(enames, [f"{ename}_{i + 1}" for i in range(3)]),
         cut([*fresh_e, *eof])),
        _label_names(cut(list(h.label_names), 18), 18))
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

    Numbering as the module says; ``p<v+1>`` comes last, and so does the
    grown hyperedge.
    """
    if not 0 <= edge < h.e:
        raise HypermapError(f"no hyperedge with index {edge}")
    if position not in h.hyperedge_sets[edge]:
        raise BadCorner(f"label {position} is not on hyperedge index {edge}")
    eps_before = h.counts().eps
    sp = _Splices(1, h)
    sp.splice("psi", position + 2, 1)
    pendant = frozenset({0, 1})
    grown = frozenset(x + 2 for x in h.hyperedge_sets[edge]) | pendant
    sp.check([pendant], [grown])
    vsets, vnames, vof = _carried(h.vertex_sets, h.vertex_names, h._vertex_of,
                                  (2).__add__)
    esets, enames, eof = _carried(h.hyperedge_sets, h.hyperedge_names,
                                  h._hyperedge_of, (2).__add__, 0, {edge: h.e - 1})
    out = _assemble(
        sp,
        ([*vsets, pendant], _unique(vnames, [f"p{h.v + 1}"]), [h.v, h.v, *vof]),
        ([*esets, grown], _unique(enames, [h.hyperedge_names[edge]]),
         [h.e - 1, h.e - 1, *eof]),
        _label_names(h.label_names, 2))
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


def _corner_side_sum(h: Hypermap, corners: list[int]) -> dict[int, int]:
    """One side's factor of the corner sum: ``eps(H^A) + 2 k(A^c)`` over the
    hyperedge subsets ``A`` of ``h``, with ``k`` the number of spanning-sub
    faces that the corner labels touch, as exponent -> count."""
    span = _spanning_table(h).__getitem__
    full = (1 << h.e) - 1
    out: dict[int, int] = {}
    for mask in range(full + 1):
        x = (_dual_formulas(h, mask, span)[1]
             + 2 * corner_face_count(h, EdgeSubset(mask ^ full, h.e), corners))
        out[x] = out.get(x, 0) + 1
    return out


def check_amalgamation_theorem(h1: Hypermap, p1: AmalgamationPicks,
                               h2: Hypermap, p2: AmalgamationPicks) -> dict:
    """Enumerated polynomial of the bar-amalgamation versus the corner sum.

    The right-hand side runs over subsets of the non-connecting hyperedges
    and shifts each term by twice the number of extra corner faces, measured
    on the complementary spanning subs; the factor two accounts for the
    connecting hyperedge being in or out of the subset.  A term's exponent
    is a part of side 1 plus a part of side 2, so the sum is the product
    ``2 z^-4 Q1(z) Q2(z)`` with ``Q_i(z) = sum_A z^(eps_i(A) + 2 k_i(A^c))``:
    ``2^e1 + 2^e2`` terms instead of ``2^(e1 + e2)``.
    """
    amal = bar_amalgamation(h1, p1, h2, p2)
    lhs = euler_genus_polynomial(amal)
    q1, q2 = (_corner_side_sum(h, [c.label for c in _normalize_side(h, p.picks)])
              for h, p in ((h1, p1), (h2, p2)))
    acc: dict[int, int] = {}
    for x1, n1 in q1.items():
        for x2, n2 in q2.items():
            acc[x1 + x2 - 4] = acc.get(x1 + x2 - 4, 0) + 2 * n1 * n2
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
    # subdivide3 keeps the other hyperedges in order and puts the three new
    # ones last, whatever the names
    old_index = {k: k + (k >= edge) for k in range(h.e - 1)}
    new_edges = range(h.e - 1, h.e + 2)
    full_old = sum(1 << k for k in range(h.e) if k != edge)
    # one table of spanning counts per map: each is read by the formulas of
    # A and of A^c, and each old subset is the reference of several new ones
    span_sub = _spanning_table(sub).__getitem__
    span_h = _spanning_table(h).__getitem__
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
        delta = (_dual_formulas(sub, mask, span_sub)[1]
                 - _dual_formulas(h, a_mask, span_h)[1])
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


def check_pendant_invariance(h: Hypermap) -> dict:
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
