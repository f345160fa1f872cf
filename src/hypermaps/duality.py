"""Geometric and partial duality, spanning sub-hypermaps, genus formulas.

The partial dual with respect to a hyperedge subset ``A`` replaces ``tau`` by
``then(psi_A, tau)``, reverses the ``A``-cycles of ``psi`` and composes the
side pairing with ``psi_A``.  With these choices the dual is an involution per
subset, composes by symmetric difference, and satisfies every identity of the
underlying theory at exact permutation level; the cycle reversal (rather than
keeping ``psi`` verbatim) is what makes the second application undo the first
when a hyperedge has three or more incidences.

The spanning-sub counts of a subset come from one pass over the image lists
(:func:`_spanning_row`); a check that reads many subsets builds the table of
all of them once (:func:`_spanning_table`).  The face count on
``Permutation`` objects, :func:`spanning_face_count_restricted`, is kept as
an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .errors import HypermapError, NotConnected, NotOrientable
from .model import Hypermap
from .perm import Permutation

__all__ = [
    "EdgeSubset",
    "SpanningSubCounts",
    "partial_dual",
    "dual",
    "spanning_counts",
    "spanning_face_count_restricted",
    "chi_partial_dual_formula",
    "eps_partial_dual_formula",
    "gamma_partial_dual_formula",
    "check_properties",
    "PropertyReport",
]


@dataclass(frozen=True)
class EdgeSubset:
    """A subset of the hyperedges of one hypermap, as a bitmask."""

    mask: int
    e_count: int

    def __post_init__(self):
        if not 0 <= self.mask < (1 << self.e_count):
            raise HypermapError(f"mask {self.mask:#b} out of range for {self.e_count} hyperedges")

    @classmethod
    def empty(cls, h: Hypermap) -> "EdgeSubset":
        return cls(0, h.e)

    @classmethod
    def full(cls, h: Hypermap) -> "EdgeSubset":
        return cls((1 << h.e) - 1, h.e)

    @classmethod
    def of(cls, h: Hypermap, edges: Iterable[int]) -> "EdgeSubset":
        mask = 0
        for i in edges:
            mask |= 1 << i
        return cls(mask, h.e)

    @classmethod
    def parse(cls, h: Hypermap, text: str) -> "EdgeSubset":
        """Parse ``e1,e3``-style names or a ``0b...`` bitmask literal."""
        text = text.strip()
        if text in ("", "-"):
            return cls.empty(h)
        if text.startswith("0b"):
            try:
                mask = int(text, 2)
            except ValueError:
                raise HypermapError(f"{text!r} is not a bitmask") from None
            return cls(mask, h.e)
        return cls.of(h, (h.hyperedge_index(nm.strip()) for nm in text.split(",")))

    def complement(self) -> "EdgeSubset":
        return EdgeSubset(self.mask ^ ((1 << self.e_count) - 1), self.e_count)

    def symmetric_difference(self, other: "EdgeSubset") -> "EdgeSubset":
        return EdgeSubset(self.mask ^ other.mask, self.e_count)

    def edges(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.e_count) if self.mask >> i & 1)

    def __contains__(self, edge: int) -> bool:
        return bool(self.mask >> edge & 1)

    def __len__(self) -> int:
        return bin(self.mask).count("1")

    def labels(self, h: Hypermap) -> frozenset[int]:
        """The label set carried by the subset's hyperedges."""
        out: set[int] = set()
        for i in self.edges():
            out |= h.hyperedge_sets[i]
        return frozenset(out)

    def names(self, h: Hypermap) -> tuple[str, ...]:
        return tuple(h.hyperedge_names[i] for i in self.edges())


def _as_subset(h: Hypermap, a) -> EdgeSubset:
    if isinstance(a, EdgeSubset):
        if a.e_count != h.e:
            raise HypermapError("subset belongs to a hypermap with a different hyperedge count")
        return a
    if isinstance(a, int):
        return EdgeSubset(a, h.e)
    return EdgeSubset.of(h, a)


def psi_restricted(h: Hypermap, a) -> Permutation:
    """``psi`` on the labels of ``A``'s hyperedges, identity elsewhere."""
    sub = _as_subset(h, a)
    img, psi = list(range(h.n)), h.psi.image
    for i in sub.edges():
        for x in h.hyperedge_sets[i]:
            img[x] = psi[x]
    # psi keeps each hyperedge's labels together, so this is a bijection
    return Permutation._of(img)


def _dual_flags(h: Hypermap, mask: int) -> tuple[tuple[int, ...], ...]:
    """The ``(tau, psi, iota)`` image tuples of the partial dual of ``h`` with
    respect to the hyperedge bitmask ``mask``, not validated.

    On a label ``x`` of ``A``'s hyperedges ``tau`` and ``iota`` are applied
    after ``psi`` and ``psi`` runs backwards; every other label keeps its
    images.
    """
    tau, psi, iota = h.tau.image, h.psi.image, h.iota.image
    tau2, psi2, iota2 = list(tau), list(psi), list(iota)
    for k, labels in enumerate(h.hyperedge_sets):
        if mask >> k & 1:
            for x in labels:
                y = psi[x]
                tau2[x] = tau[y]
                iota2[x] = iota[y]
                psi2[y] = x
    return tuple(tau2), tuple(psi2), tuple(iota2)


def _flags(h: Hypermap) -> tuple[tuple[int, ...], ...]:
    return h.tau.image, h.psi.image, h.iota.image


def partial_dual(h: Hypermap, a) -> Hypermap:
    """The partial dual of ``h`` with respect to the hyperedge subset ``a``.

    The flags come from one step on the image tuples, ``_dual_flags``, which
    the identity checks of this module also apply to compare partial duals
    without building them; here they go through ``Hypermap.from_flags``, so
    the result is fully validated.  Hyperedge classes keep their order,
    names and label sets (the cycles on ``A`` run backwards); vertex classes
    are recomputed from the new side pairing.
    """
    sub = _as_subset(h, a)
    if sub.mask == 0:
        return h
    # each image is a bijection whenever h's are: from_flags checks the rest
    tau, psi, iota = map(Permutation._of, _dual_flags(h, sub.mask))
    return Hypermap.from_flags(
        tau, psi, iota,
        hyperedge_sets=h.hyperedge_sets,
        hyperedge_names=h.hyperedge_names,
        label_names=h.label_names,
    )


def dual(h: Hypermap) -> Hypermap:
    """Geometric dual: the partial dual with respect to all hyperedges."""
    return partial_dual(h, EdgeSubset.full(h))


@dataclass(frozen=True)
class SpanningSubCounts:
    """Counts of the spanning sub-hypermap on a hyperedge subset."""

    c: int
    f: int
    chi: int
    eps: int
    sum_n: int
    e: int


def spanning_counts(h: Hypermap, a) -> SpanningSubCounts:
    """Counts of the spanning sub-hypermap ``(V(H), A)``.

    Faces are counted over the full label set (labels of hyperedges outside
    ``A`` ride along inside the face orbits), which makes the vertex count of
    the partial dual equal ``f(A)`` exactly.  Components are taken over all
    vertices, isolated ones included.
    """
    return _spanning_row(h, _as_subset(h, a).mask)


def _spanning_row(h: Hypermap, mask: int) -> SpanningSubCounts:
    """:func:`spanning_counts` on the hyperedge bitmask ``mask``, in one pass
    over the image lists.

    ``face`` is ``psi_A then tau``: ``tau`` off A's labels, ``tau(psi(x))``
    on them; its cycles are counted by walking each once.  The components
    come from a union-find over the vertices, joining those that each of A's
    hyperedges meets.
    """
    tau, psi, vertex_of = h.tau.image, h.psi.image, h._vertex_of
    face = list(tau)
    root = list(range(h.v))
    c, e_a, sum_n = h.v, 0, 0
    for k, labels in enumerate(h.hyperedge_sets):
        if not mask >> k & 1:
            continue
        e_a += 1
        sum_n += len(labels)
        first = -1
        for x in labels:
            face[x] = tau[psi[x]]
            u = vertex_of[x]
            while root[u] != u:
                root[u] = u = root[root[u]]
            if first < 0:
                first = u
            elif u != first:
                root[u] = first
                c -= 1
    f = 0
    for start in range(len(face)):
        x = face[start]
        if x < 0:
            continue
        f += 1
        face[start] = -1
        while x != start:
            face[x], x = -1, face[x]
    f //= 2
    sum_n //= 2
    chi = h.v + e_a + f - sum_n
    return SpanningSubCounts(c=c, f=f, chi=chi, eps=2 * c - chi, sum_n=sum_n, e=e_a)


def _spanning_table(h: Hypermap) -> list[SpanningSubCounts]:
    """The spanning-sub counts of every hyperedge bitmask, indexed by it:
    the one table that the formulas of A and of A^c, and the identities of
    each subset, all read."""
    return [_spanning_row(h, mask) for mask in range(1 << h.e)]


def spanning_face_count_restricted(h: Hypermap, a) -> int:
    """Cross-check for ``spanning_counts``: faces on the restricted labels.

    Deletes all labels outside the subset from the face product and counts
    one face per isolated vertex instead.  Must equal ``spanning_counts(...).f``.
    """
    sub = _as_subset(h, a)
    ba = sub.labels(h)
    face = psi_restricted(h, sub).then(h.tau).restrict(ba)
    own = sum(1 for cyc in face.orbits() if cyc[0] in ba)
    touched = {h.vertex_of(x) for x in ba}
    isolated = h.v - len(touched)
    return own // 2 + isolated


def _dual_formulas(h: Hypermap, mask: int, span) -> tuple[int, int]:
    """Euler characteristic and Euler genus of the partial dual on ``mask``
    from the two spanning subs; ``span(m)`` gives the counts of the spanning
    sub on the bitmask ``m``."""
    if not h.is_connected():
        raise NotConnected("the partial-dual formulas need a connected hypermap")
    sa, sc = span(mask), span(mask ^ ((1 << h.e) - 1))
    chi = sa.chi + sc.chi - 2 * h.v
    eps = sa.eps + sc.eps + 2 * (h.component_count() - sa.c - sc.c) + 2 * h.v
    return chi, eps


def chi_partial_dual_formula(h: Hypermap, a) -> int:
    """Euler characteristic of the partial dual from the two spanning subs."""
    return _dual_formulas(h, _as_subset(h, a).mask, lambda m: spanning_counts(h, m))[0]


def eps_partial_dual_formula(h: Hypermap, a) -> int:
    """Euler genus of the partial dual from the two spanning subs."""
    return _dual_formulas(h, _as_subset(h, a).mask, lambda m: spanning_counts(h, m))[1]


def gamma_partial_dual_formula(h: Hypermap, a) -> int:
    """Orientable genus of the partial dual from the two spanning subs."""
    if not h.is_connected():
        raise NotConnected("the partial-dual genus formula needs a connected hypermap")
    if not h.is_orientable():
        raise NotOrientable("orientable-genus formula on a non-orientable hypermap")
    sub = _as_subset(h, a)
    comp = sub.complement()
    sa = spanning_counts(h, sub)
    sc = spanning_counts(h, comp)
    c_h = h.component_count()
    gamma = (sa.eps // 2) + (sc.eps // 2) + c_h - sa.c - sc.c + h.v
    # the eps formula reads the same two spanning subs
    eps = _dual_formulas(h, sub.mask, {sub.mask: sa, comp.mask: sc}.__getitem__)[1]
    if eps != 2 * gamma:
        raise HypermapError(f"gamma formula inconsistent with eps: {gamma} vs {eps}")
    return gamma


@dataclass
class PropertyReport:
    """Outcome of the partial-duality identity suite."""

    entries: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(entry["ok"] for entry in self.entries)

    def add(self, name: str, ok: bool, witness: dict | None = None) -> None:
        entry: dict = {"identity": name, "ok": bool(ok)}
        if witness and not ok:
            entry["witness"] = witness
        self.entries.append(entry)

    def as_dict(self) -> dict:
        return {"ok": self.ok, "identities": self.entries}


def check_properties(h: Hypermap, a, b=None) -> PropertyReport:
    """Check the partial-duality identities for one subset (and subset pair).

    Verified at exact permutation level on the same label set:
    component/incidence invariance, orientability preservation, composition by
    symmetric difference, duality of the complement, and involutivity.  The
    duals of ``h`` are validated maps; the second application in an identity
    is compared as flag images (``_dual_flags``), so a result that is not a
    valid hypermap fails its identity instead of raising.
    """
    sub_a = _as_subset(h, a)
    ha = partial_dual(h, sub_a)
    report = _add_single(PropertyReport(), h, sub_a.mask, ha,
                         partial_dual(h, sub_a.complement()), spanning_counts(h, sub_a))
    if b is not None:
        sub_b = _as_subset(h, b)
        _add_compositions(report, h, sub_a.mask, sub_b.mask, ha, partial_dual(h, sub_b),
                          partial_dual(h, sub_a.symmetric_difference(sub_b)))
    return report


def _add_all(report: PropertyReport, checks, witness) -> PropertyReport:
    """Add the ``(name, ok)`` pairs to ``report``; ``witness()`` builds their
    shared witness, and is called only when one of them fails."""
    wit = None if all(ok for _, ok in checks) else witness()
    for name, ok in checks:
        report.add(name, ok, wit)
    return report


def _add_single(report: PropertyReport, h: Hypermap, a: int, ha: Hypermap,
                hac: Hypermap, sa: SpanningSubCounts) -> PropertyReport:
    """Add the single-subset identities of the hyperedge bitmask ``a`` to
    ``report``, given the validated H^A and H^(A^c) and the counts of the
    spanning sub on A."""
    cb_h, cb_a = h.counts(), ha.counts()
    full = (1 << h.e) - 1
    return _add_all(report, (
        ("c(H^A) = c(H)", cb_a.c == cb_h.c),
        ("sum_n(H^A) = sum_n(H)", cb_a.sum_n == cb_h.sum_n),
        ("e(H^A) = e(H)", cb_a.e == cb_h.e),
        ("v(H^A) = f(A)", cb_a.v == sa.f),
        ("orientability preserved", cb_a.orientable == cb_h.orientable),
        ("(H^A)^A = H", _dual_flags(ha, a) == _flags(h)),
        ("(H^A)^* = H^(A^c)", _dual_flags(ha, full) == _flags(hac)),
    ), lambda: {"A": EdgeSubset(a, h.e).names(h)})


def _add_compositions(report: PropertyReport, h: Hypermap, a: int, b: int,
                      ha: Hypermap, hb: Hypermap, h_ab: Hypermap) -> PropertyReport:
    """Add the two pair identities of the hyperedge bitmasks ``a`` and ``b``
    to ``report``, given the validated H^A, H^B and H^(A xor B)."""
    lhs = _dual_flags(ha, b)
    return _add_all(report, (
        ("(H^A)^B = (H^B)^A", lhs == _dual_flags(hb, a)),
        ("(H^A)^B = H^(A xor B)", lhs == _flags(h_ab)),
    ), lambda: {"A": EdgeSubset(a, h.e).names(h), "B": EdgeSubset(b, h.e).names(h)})


def _first_failing_pair(duals: list[Hypermap]) -> tuple[int, int] | None:
    """The first ordered pair of hyperedge bitmasks ``(A, B)``, in row-major
    order, at which one of the identities of :func:`_add_compositions`
    fails, given the table of all partial duals indexed by bitmask.

    Each unordered pair is composed once in each order, and nothing is kept.
    Both orders of a pair fail together: each compares (H^A)^B with (H^B)^A,
    and when those agree both compare the same flags with H^(A xor B).  So
    the first failing ordered pair is the first failing one with A <= B.
    """
    masks = range(len(duals))
    for a in masks:
        ha = duals[a]
        for b in masks[a:]:
            lhs = _dual_flags(ha, b)
            if (a != b and lhs != _dual_flags(duals[b], a)) or lhs != _flags(duals[a ^ b]):
                return a, b
    return None
