"""The hypermap flag system and its derived counts.

A hypermap is stored as a triple of permutations on an even label universe:
``tau`` (vertex bi-rotations), ``psi`` (hyperedge bi-rotations) and ``iota``,
the fixed-point-free side-pairing involution that conjugates both ``tau`` and
``psi`` to their inverses.  Vertices and hyperedges are pairs of mirror
orbits; every count (v, e, f, incidence sum, Euler characteristic, Euler
genus, components, orientability) derives from the triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from .errors import (
    CycleFormatError,
    DuplicateLabel,
    HypermapError,
    IotaUnsolvable,
    MissingLabel,
    NotOrientable,
    PairLengthMismatch,
    SelfPairedOrbit,
    SizeMismatch,
)
from .perm import Permutation, format_cycles

__all__ = [
    "CountsBundle",
    "Hypermap",
    "solve_iota",
    "disjoint_union",
]


@dataclass(frozen=True)
class CountsBundle:
    """All counts of a hypermap in one record."""

    v: int
    e: int
    f: int
    sum_n: int
    chi: int
    eps: int
    c: int
    orientable: bool

    def as_dict(self) -> dict:
        return {
            "v": self.v,
            "e": self.e,
            "f": self.f,
            "sum_n": self.sum_n,
            "chi": self.chi,
            "eps": self.eps,
            "c": self.c,
            "orientable": self.orientable,
        }


def _axiom_check(tau: Permutation, psi: Permutation, iota: Permutation) -> None:
    n = tau.size
    if psi.size != n or iota.size != n:
        raise SizeMismatch("tau, psi and iota must share one universe")
    if n % 2 != 0:
        raise HypermapError(f"label universe must be even, got {n}")
    if not iota.is_involution() or not iota.is_fixed_point_free():
        raise HypermapError("iota must be a fixed-point-free involution")
    # iota(tau(iota(x))) == tau^-1(x) exactly when tau maps that label back to x
    t, p, i = tau.image, psi.image, iota.image
    for x in range(n):
        if t[i[t[i[x]]]] != x:
            raise HypermapError(f"mirror axiom fails for tau at label {x}")
        if p[i[p[i[x]]]] != x:
            raise HypermapError(f"mirror axiom fails for psi at label {x}")


def _orbit_sides(tau: Permutation, psi: Permutation) -> tuple[int, ...]:
    """The ``<tau, psi>`` orbit of every label, orbits numbered in order of
    their least label."""
    t, p = tau.image, psi.image
    side = [-1] * len(t)
    count = 0
    for start in range(len(t)):
        if side[start] != -1:
            continue
        side[start] = count
        stack = [start]
        while stack:
            x = stack.pop()
            for y in (t[x], p[x]):
                if side[y] == -1:
                    side[y] = count
                    stack.append(y)
        count += 1
    return tuple(side)


def _component_keys(side: Sequence[int], iota: Permutation) -> list[int]:
    """A key per label, equal exactly for labels of one component.

    ``iota`` conjugates ``tau`` and ``psi`` to their inverses, so a label's
    component is its ``<tau, psi>`` orbit together with that of ``iota(x)``.
    """
    return [min(s, side[y]) for s, y in zip(side, iota.image)]


def _paired_classes(perm: Permutation, iota: Permutation, kind: str):
    """Group the orbits of ``perm`` into mirror pairs under ``iota``.

    Returns a list of frozensets (one per class, ordered by smallest label).
    A self-paired orbit is rejected.  ``iota`` must map orbits onto orbits.
    """
    img, mirror = perm.image, iota.image
    mark = [False] * len(img)
    classes = []
    for start in range(len(img)):
        if mark[start]:
            continue
        labels = []
        for first in (start, mirror[start]):
            if mark[first]:  # the mirror lies on the orbit just walked
                raise SelfPairedOrbit(
                    f"{kind} orbit {tuple(labels)} is its own mirror image under iota"
                )
            y = first
            while not mark[y]:
                mark[y] = True
                labels.append(y)
                y = img[y]
        classes.append(frozenset(labels))
    return classes


class Hypermap:
    """An immutable hypermap ``(tau, psi, iota)`` with named classes.

    Do not call the constructor directly; use :meth:`from_parts` (declared
    cycle pairs, solving for ``iota`` when absent) or :meth:`from_flags`
    (ready-made permutations).  Both validate the flag axioms.
    """

    __slots__ = (
        "tau",
        "psi",
        "iota",
        "vertex_sets",
        "hyperedge_sets",
        "vertex_names",
        "hyperedge_names",
        "label_names",
        "_vertex_of",
        "_hyperedge_of",
        "_counts",
        "_components",
        "_sides",
    )

    def __init__(self, tau, psi, iota, vertex_sets, hyperedge_sets,
                 vertex_names, hyperedge_names, label_names,
                 vertex_of=None, hyperedge_of=None):
        """Assemble validated parts.  ``vertex_of`` and ``hyperedge_of``, the
        class index of every label, are derived from the classes unless a
        caller that already has them passes them."""
        self.tau: Permutation = tau
        self.psi: Permutation = psi
        self.iota: Permutation = iota
        self.vertex_sets: tuple[frozenset[int], ...] = tuple(vertex_sets)
        self.hyperedge_sets: tuple[frozenset[int], ...] = tuple(hyperedge_sets)
        self.vertex_names: tuple[str, ...] = tuple(vertex_names)
        self.hyperedge_names: tuple[str, ...] = tuple(hyperedge_names)
        self.label_names: tuple[int, ...] = tuple(label_names)
        self._vertex_of = tuple(vertex_of if vertex_of is not None
                                else _class_table(self.vertex_sets, tau.size))
        self._hyperedge_of = tuple(hyperedge_of if hyperedge_of is not None
                                   else _class_table(self.hyperedge_sets, tau.size))
        self._counts = None
        self._components = None
        self._sides = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_flags(cls, tau: Permutation, psi: Permutation, iota: Permutation,
                   hyperedge_sets: Sequence[frozenset[int]] | None = None,
                   hyperedge_names: Sequence[str] | None = None,
                   vertex_sets: Sequence[frozenset[int]] | None = None,
                   vertex_names: Sequence[str] | None = None,
                   label_names: Sequence[int] | None = None) -> "Hypermap":
        """Build and validate a hypermap from ready-made permutations.

        Vertex and hyperedge classes are derived from the iota pairing;
        passing ``vertex_sets`` or ``hyperedge_sets`` fixes their order and
        naming, and the grouping must agree with the derived one.
        """
        _axiom_check(tau, psi, iota)

        def settle(derived, declared, kind):
            if declared is None:
                return derived
            sets = [frozenset(s) for s in declared]
            if sorted(sets, key=min) != sorted(derived, key=min):
                raise HypermapError(
                    f"declared {kind} classes disagree with the iota pairing"
                )
            return sets

        vsets = settle(_paired_classes(tau, iota, "vertex"), vertex_sets, "vertex")
        esets = settle(_paired_classes(psi, iota, "hyperedge"), hyperedge_sets,
                       "hyperedge")
        n = tau.size
        if sum(len(s) for s in esets) != n:
            raise MissingLabel("hyperedge classes do not cover the universe")
        if vertex_names is None:
            vertex_names = [f"v{i + 1}" for i in range(len(vsets))]
        if hyperedge_names is None:
            hyperedge_names = [f"e{i + 1}" for i in range(len(esets))]
        if label_names is None:
            label_names = range(1, n + 1)
        return cls(tau, psi, iota, vsets, esets,
                   vertex_names, hyperedge_names, label_names)

    @classmethod
    def from_parts(cls,
                   vertex_pairs: Sequence[tuple[Sequence[int], Sequence[int]]],
                   hyperedge_pairs: Sequence[tuple[Sequence[int], Sequence[int]]],
                   iota: Permutation | None = None,
                   vertex_names: Sequence[str] | None = None,
                   hyperedge_names: Sequence[str] | None = None,
                   label_names: Sequence[int] | None = None) -> "Hypermap":
        """Build a hypermap from declared mirror-cycle pairs.

        Every label must occur in exactly one vertex cycle and exactly one
        hyperedge cycle; the two cycles of a pair must have equal length.
        When ``iota`` is omitted a side pairing satisfying both mirror axioms
        and mapping each cycle onto its declared partner is solved for.

        The checks fail in a fixed order: a repeated vertex label, a repeated
        hyperedge label, sections covering different labels, labels not
        dense, a vertex pair of unequal lengths or of two empty cycles, the
        same for a hyperedge pair, no side pairing to solve for, the flag
        axioms, a cycle not mapped onto its partner.
        Each is linear in the labels; the label checks are set operations
        and the pair lengths are checked while the images are built.
        """
        labels_v = _section_labels(vertex_pairs, "vertex")
        labels_e = _section_labels(hyperedge_pairs, "hyperedge")
        if labels_v != labels_e:
            missing = labels_v.symmetric_difference(labels_e)
            raise MissingLabel(
                f"vertex and hyperedge sections cover different labels: {sorted(missing)[:8]}"
            )
        n = len(labels_v)
        if labels_v != set(range(n)):
            raise MissingLabel("labels must be dense 0..n-1 internally")
        tau, vcyc = _cycle_images(vertex_pairs, n, "vertex")
        psi, ecyc = _cycle_images(hyperedge_pairs, n, "hyperedge")
        if iota is None:
            iota = solve_iota(tau, psi, vertex_pairs, hyperedge_pairs)
        _axiom_check(tau, psi, iota)
        # iota maps a cycle onto a whole cycle under the mirror axiom, so a
        # cycle lands on its partner exactly when its first label does
        img = iota.image
        for cyc, pairs in ((vcyc, vertex_pairs), (ecyc, hyperedge_pairs)):
            for a, b in pairs:
                if cyc[img[a[0]]] != cyc[b[0]]:
                    raise IotaUnsolvable(
                        f"iota does not map cycle {tuple(a)} onto its declared partner"
                    )
        vsets = [frozenset(a).union(b) for a, b in vertex_pairs]
        esets = [frozenset(a).union(b) for a, b in hyperedge_pairs]
        if vertex_names is None:
            vertex_names = [f"v{i + 1}" for i in range(len(vsets))]
        if hyperedge_names is None:
            hyperedge_names = [f"e{i + 1}" for i in range(len(esets))]
        if label_names is None:
            label_names = range(1, n + 1)
        return cls(tau, psi, iota, vsets, esets,
                   vertex_names, hyperedge_names, label_names)

    # -- basic structure ----------------------------------------------------

    @property
    def n(self) -> int:
        """Number of labels (always even)."""
        return self.tau.size

    @property
    def v(self) -> int:
        return len(self.vertex_sets)

    @property
    def e(self) -> int:
        return len(self.hyperedge_sets)

    def vertex_of(self, label: int) -> int:
        return self._vertex_of[label]

    def hyperedge_of(self, label: int) -> int:
        return self._hyperedge_of[label]

    def vertex_index(self, name: str) -> int:
        return _index_of(self.vertex_names, name, "vertex")

    def hyperedge_index(self, name: str) -> int:
        return _index_of(self.hyperedge_names, name, "hyperedge")

    def vertex_cycle(self, i: int) -> tuple[int, ...]:
        """One of vertex ``i``'s two mirror cycles (through its least label)."""
        return self.tau.orbit_of(min(self.vertex_sets[i]))

    def hyperedge_cycle(self, i: int) -> tuple[int, ...]:
        return self.psi.orbit_of(min(self.hyperedge_sets[i]))

    def degree(self, i: int) -> int:
        """Degree of vertex ``i`` (length of either mirror cycle)."""
        return len(self.vertex_sets[i]) // 2

    def incidences(self, i: int) -> int:
        """Number of incidences of hyperedge ``i``."""
        return len(self.hyperedge_sets[i]) // 2

    def external(self, label: int) -> int:
        return self.label_names[label]

    def internal(self, external: int) -> int:
        return _index_of(self.label_names, external, "label")

    def format_tau(self) -> str:
        return format_cycles(self.tau, self.label_names)

    def format_psi(self) -> str:
        return format_cycles(self.psi, self.label_names)

    def format_iota(self) -> str:
        return format_cycles(self.iota, self.label_names)

    def __eq__(self, other: object) -> bool:
        """Exact equality of the flag system on the same label set.

        Class names are presentation, not structure, and are ignored; the
        hyperedge class order is part of the subset indexing and is not.
        """
        if not isinstance(other, Hypermap):
            return NotImplemented
        return (self.tau == other.tau and self.psi == other.psi
                and self.iota == other.iota
                and self.label_names == other.label_names
                and self.hyperedge_sets == other.hyperedge_sets)

    def __hash__(self) -> int:
        return hash((self.tau, self.psi, self.iota, self.label_names))

    def __repr__(self) -> str:
        return (f"<Hypermap v={self.v} e={self.e} labels={self.n} "
                f"tau={self.format_tau()} psi={self.format_psi()}>")

    # -- derived counts -------------------------------------------------------

    def face_orbit_count(self) -> int:
        """Number of orbits of the face product (psi then tau)."""
        return self.psi.then(self.tau).orbit_count()

    def counts(self) -> CountsBundle:
        if self._counts is None:
            fo = self.face_orbit_count()
            if fo % 2:
                raise SelfPairedOrbit("odd number of face orbits; faces do not pair")
            f = fo // 2
            v = len(self.vertex_sets)
            e = len(self.hyperedge_sets)
            sum_n = self.n // 2
            chi = v + e + f - sum_n
            c = self.component_count()
            eps = 2 * c - chi
            self._counts = CountsBundle(v, e, f, sum_n, chi, eps, c,
                                        self.is_orientable())
        return self._counts

    def sides(self) -> tuple[int, ...]:
        """The ``<tau, psi>`` orbit of every label, numbered in order of least
        label.  On an orientable hypermap these are the two orientation sides
        of each component."""
        if self._sides is None:
            self._sides = _orbit_sides(self.tau, self.psi)
        return self._sides

    def components(self) -> tuple[int, ...]:
        """Component index for every vertex (indices are 0-based, dense)."""
        if self._components is None:
            keys = _component_keys(self.sides(), self.iota)
            ids: dict[int, int] = {}
            self._components = tuple(
                ids.setdefault(keys[next(iter(s))], len(ids))
                for s in self.vertex_sets
            )
        return self._components

    def component_count(self) -> int:
        comp = self.components()
        return max(comp) + 1 if comp else 0

    def is_connected(self) -> bool:
        return self.component_count() <= 1

    def is_orientable(self) -> bool:
        """True iff no label shares its ``<tau, psi>`` orbit with its mirror."""
        side = self.sides()
        return all(side[x] != side[y] for x, y in enumerate(self.iota.image))

    def orientable_genus(self) -> int:
        cb = self.counts()
        if not cb.orientable:
            raise NotOrientable("orientable genus of a non-orientable hypermap")
        return cb.eps // 2

    # -- relabeling and isomorphism -------------------------------------------

    def relabel(self, new_of_old: Sequence[int]) -> "Hypermap":
        """Apply a relabeling bijection (``new_of_old[old] = new``)."""
        n = self.n
        pi = list(new_of_old)
        inv = [0] * n
        for old, new in enumerate(pi):
            inv[new] = old
        conj = lambda p: Permutation([pi[p(inv[x])] for x in range(n)])
        names = [0] * n
        for old, new in enumerate(pi):
            names[new] = self.label_names[old]
        return Hypermap(
            conj(self.tau), conj(self.psi), conj(self.iota),
            [frozenset(pi[x] for x in s) for s in self.vertex_sets],
            [frozenset(pi[x] for x in s) for s in self.hyperedge_sets],
            self.vertex_names, self.hyperedge_names, names,
        )

    def _component_labels(self) -> list[list[int]]:
        comp = self.components()
        out: list[list[int]] = [[] for _ in range(self.component_count())]
        for x in range(self.n):
            out[comp[self._vertex_of[x]]].append(x)
        return out

    def _component_signature(self, labels: list[int]):
        """Lexicographically least BFS relabeling of one component."""
        gens = (self.tau, self.psi, self.iota)
        best = None
        for start in labels:
            pos = {start: 0}
            order = [start]
            for x in order:
                for g in gens:
                    y = g(x)
                    if y not in pos:
                        pos[y] = len(order)
                        order.append(y)
            sig = tuple(
                tuple(pos[g(order[i])] for i in range(len(order)))
                for g in gens
            )
            if best is None or sig < best:
                best = sig
        return best

    def canonical_signature(self):
        """Label-order-independent signature; equal iff isomorphic."""
        sigs = sorted(
            self._component_signature(lbls) for lbls in self._component_labels()
        )
        return tuple(sigs)

    def canonical_form(self) -> "Hypermap":
        """Relabel into the canonical representative of the isomorphism class."""
        parts = sorted(
            (self._component_signature(lbls) for lbls in self._component_labels())
        )
        tau_img: list[int] = []
        psi_img: list[int] = []
        iota_img: list[int] = []
        for tau_sig, psi_sig, iota_sig in parts:
            off = len(tau_img)
            tau_img.extend(x + off for x in tau_sig)
            psi_img.extend(x + off for x in psi_sig)
            iota_img.extend(x + off for x in iota_sig)
        return Hypermap.from_flags(
            Permutation(tau_img), Permutation(psi_img), Permutation(iota_img)
        )

    def is_isomorphic(self, other: "Hypermap") -> bool:
        if (self.n, self.v, self.e) != (other.n, other.v, other.e):
            return False
        return self.canonical_signature() == other.canonical_signature()


def _class_table(sets: Sequence[frozenset[int]], n: int) -> list[int]:
    """The index of the class of every label."""
    table = [-1] * n
    for i, s in enumerate(sets):
        for x in s:
            table[x] = i
    return table


def _index_of(values: tuple, value, kind: str) -> int:
    try:
        return values.index(value)
    except ValueError:
        raise MissingLabel(f"no {kind} {value!r}") from None


def _section_labels(pairs, kind: str) -> set[int]:
    """The labels of a section of cycle pairs; a repeated one raises
    :class:`DuplicateLabel`, the first repeat in section order."""
    cycles = list(chain.from_iterable(pairs))
    labels = set(chain.from_iterable(cycles))
    if len(labels) != sum(map(len, cycles)):
        seen: set[int] = set()
        for x in chain.from_iterable(cycles):
            if x in seen:
                raise DuplicateLabel(f"label {x} repeated in {kind} section")
            seen.add(x)
    return labels


def _cycle_images(pairs, n: int, kind: str) -> tuple[Permutation, list[int]]:
    """The permutation whose cycles are the declared ones, which cover
    0..n-1 once each, and the cycle of every label: the two cycles of pair
    ``k`` are ``2k`` and ``2k + 1``.  A pair of unequal lengths raises
    :class:`PairLengthMismatch`, a pair of two empty cycles
    :class:`CycleFormatError`."""
    img = list(range(n))
    cyc = [-1] * n
    number = 0
    for a, b in pairs:
        if len(a) != len(b):
            raise PairLengthMismatch(f"{kind} pair {tuple(a)}/{tuple(b)}")
        if not a:
            raise CycleFormatError(f"{kind} pair of two empty cycles")
        for c in (a, b):
            prev = c[-1]
            for x in c:
                img[prev] = x
                cyc[x] = number
                prev = x
            number += 1
    # disjoint cycles covering 0..n-1: a bijection
    return Permutation._of(img), cyc


def _cycle_numbers(pairs, n: int) -> list[int]:
    """The cycle of every label, numbered as :func:`_cycle_images` does."""
    cyc = [-1] * n
    for k, (a, b) in enumerate(pairs):
        for x in a:
            cyc[x] = 2 * k
        for x in b:
            cyc[x] = 2 * k + 1
    return cyc


def solve_iota(tau: Permutation, psi: Permutation,
               vertex_pairs, hyperedge_pairs) -> Permutation:
    """Solve for a side pairing consistent with the declared cycle pairs.

    The pairing must be a fixed-point-free involution satisfying
    ``iota(tau(x)) = tau^-1(iota(x))`` and ``iota(psi(x)) = psi^-1(iota(x))``
    and mapping every declared cycle onto its partner.  Deterministic:
    the smallest unassigned label is bound first, candidates in increasing
    order, constraints propagated, with backtracking on conflict.
    """
    n = tau.size
    # y may pair with x only on the partner cycles of x's two cycles: the
    # partner of cycle c is c ^ 1
    vcyc, ecyc = _cycle_numbers(vertex_pairs, n), _cycle_numbers(hyperedge_pairs, n)
    vcycles = [c for pair in vertex_pairs for c in pair]
    t, p = tau.image, psi.image
    t_inv, p_inv = tau.inverse().image, psi.inverse().image
    iota = [-1] * n

    def assign(x: int, y: int, trail: list[int]) -> bool:
        """Bind iota(x) = y and propagate; False on conflict."""
        stack = [(x, y)]
        while stack:
            x, y = stack.pop()
            if iota[x] != -1:
                if iota[x] != y:
                    return False
                continue
            if x == y or iota[y] not in (-1, x):
                return False
            if vcyc[y] != vcyc[x] ^ 1 or ecyc[y] != ecyc[x] ^ 1:
                return False
            iota[x] = y
            iota[y] = x
            trail.append(x)
            stack += ((t[x], t_inv[y]), (p[x], p_inv[y]),
                      (t[y], t_inv[x]), (p[y], p_inv[x]))
        return True

    def undo(trail: list[int]) -> None:
        for x in trail:
            y = iota[x]
            iota[x] = -1
            iota[y] = -1

    def unbound_from(x: int) -> int:
        while x < n and iota[x] != -1:
            x += 1
        return x

    def level(x: int):
        """A search level: label ``x``, its untried candidates, and the
        bindings made by the candidate being tried."""
        mate = ecyc[x] ^ 1
        partners = vcycles[vcyc[x] ^ 1] if vcyc[x] != -1 else ()
        return x, iter(sorted(y for y in partners if ecyc[y] == mate)), []

    # Depth-first search on an explicit stack.  Every label below a level's
    # label is bound, so the next level's label is found by scanning forward.
    x = unbound_from(0)
    levels = [level(x)] if x < n else []
    while x < n:
        if not levels:
            raise IotaUnsolvable("no side pairing satisfies the mirror constraints")
        x, candidates, trail = levels[-1]
        undo(trail)
        trail.clear()
        y = next((y for y in candidates if iota[y] == -1), None)
        if y is None:
            levels.pop()
        elif assign(x, y, trail):
            x = unbound_from(x + 1)
            if x < n:
                levels.append(level(x))
    return Permutation(iota)


def _dedupe(names: Sequence[str], taken: Iterable[str] = ()) -> list[str]:
    """Class names made unique in order: a name already taken, in ``taken``
    or earlier in ``names``, gets primes appended until it is free, so the
    first occurrence keeps its name."""
    seen = set(taken)
    out = []
    for nm in names:
        while nm in seen:
            nm += "'"
        seen.add(nm)
        out.append(nm)
    return out


def disjoint_union(h1: Hypermap, h2: Hypermap) -> Hypermap:
    """Disjoint union, with the second hypermap's labels shifted upward.

    External label names of the second part are renumbered after the first
    part's maximum so the combined symbol table stays collision-free; class
    names are made unique by :func:`_dedupe`, in the order first part, then
    second part.
    """
    n1 = h1.n
    tau = Permutation(list(h1.tau.image) + [y + n1 for y in h2.tau.image])
    psi = Permutation(list(h1.psi.image) + [y + n1 for y in h2.psi.image])
    iota = Permutation(list(h1.iota.image) + [y + n1 for y in h2.iota.image])
    base = max(h1.label_names)
    label_names = list(h1.label_names) + [base + k + 1 for k in range(h2.n)]
    return Hypermap(
        tau, psi, iota,
        list(h1.vertex_sets) + [frozenset(x + n1 for x in s) for s in h2.vertex_sets],
        list(h1.hyperedge_sets) + [frozenset(x + n1 for x in s) for s in h2.hyperedge_sets],
        _dedupe(h1.vertex_names + h2.vertex_names),
        _dedupe(h1.hyperedge_names + h2.hyperedge_names),
        label_names,
    )
