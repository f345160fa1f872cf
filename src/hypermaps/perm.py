"""Exact permutation arithmetic on dense label universes.

A :class:`Permutation` is an immutable bijection on ``0..n-1``, stored as its
image tuple.  It is the workhorse for vertex bi-rotations, hyperedge
bi-rotations, side pairings and all their products.  Composition is always
spelled :meth:`Permutation.then` (apply the receiver first), never an
ambiguous ``*``.

Cycle-notation text uses positive integers; label ``k`` in text corresponds
to internal label ``k - 1``.  The canonical text form sorts cycles by their
smallest label, rotates each cycle to start at that label, and omits fixed
points.
"""

from __future__ import annotations

import random
import re
from operator import eq
from typing import Iterable, Iterator, Sequence

from .errors import CycleFormatError, SizeMismatch

__all__ = [
    "Permutation",
    "parse_cycle_lists",
    "parse_cycles",
    "format_cycles",
]


class Permutation:
    """An immutable bijection on the dense universe ``0..size-1``."""

    __slots__ = ("_img",)

    def __init__(self, image: Sequence[int]):
        img = tuple(image)
        seen = [False] * len(img)
        for y in img:
            if not isinstance(y, int) or not 0 <= y < len(img) or seen[y]:
                raise ValueError(f"image {img!r} is not a bijection on 0..{len(img) - 1}")
            seen[y] = True
        object.__setattr__(self, "_img", img)

    @classmethod
    def _of(cls, image: Iterable[int]) -> "Permutation":
        """A permutation on an image that is a bijection by construction.

        Skips the bijection check of the public constructor.  Only code
        whose result is a bijection whenever its operands are calls it: the
        products and constructors of this class, the restricted ``psi`` and
        the partial-dual flags built by :mod:`hypermaps.duality`, and flag
        arrays handed straight to ``Hypermap.from_flags`` or to the
        mirror-axiom check it runs, which fails on any image that is not a
        bijection.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "_img", tuple(image))
        return p

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls._of(range(n))

    @classmethod
    def from_cycles(cls, cycles: Iterable[Sequence[int]], size: int) -> "Permutation":
        """Product of disjoint cycles over internal labels; omitted labels are fixed."""
        img = list(range(size))
        touched = [False] * size
        for cyc in cycles:
            for x in cyc:
                if not 0 <= x < size:
                    raise CycleFormatError(f"label {x} outside universe 0..{size - 1}")
                if touched[x]:
                    raise CycleFormatError(f"label {x} repeated across cycles")
                touched[x] = True
            for i, x in enumerate(cyc):
                img[x] = cyc[(i + 1) % len(cyc)]
        return cls._of(img)

    @classmethod
    def random(cls, n: int, rng: random.Random | None = None) -> "Permutation":
        img = list(range(n))
        (rng or random).shuffle(img)
        return cls(img)

    # -- mapping interface ------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._img)

    @property
    def image(self) -> tuple[int, ...]:
        return self._img

    def __call__(self, x: int) -> int:
        return self._img[x]

    def __getitem__(self, x: int) -> int:
        return self._img[x]

    def __len__(self) -> int:
        return len(self._img)

    def __iter__(self) -> Iterator[int]:
        return iter(self._img)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self._img == other._img

    def __hash__(self) -> int:
        return hash(self._img)

    def __repr__(self) -> str:
        return f"Permutation.from_text({format_cycles(self)!r}, size={self.size})"

    # -- products ---------------------------------------------------------

    def then(self, other: "Permutation") -> "Permutation":
        """The product *self then other*: ``result(x) = other(self(x))``."""
        if other.size != self.size:
            raise SizeMismatch(f"sizes differ: {self.size} != {other.size}")
        oth = other._img
        return Permutation._of([oth[y] for y in self._img])

    def inverse(self) -> "Permutation":
        inv = [0] * self.size
        for x, y in enumerate(self._img):
            inv[y] = x
        return Permutation._of(inv)

    # -- orbits -----------------------------------------------------------

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """All cycles (fixed points included), each starting at its minimum,
        ordered by minimum."""
        seen = [False] * self.size
        out = []
        for start in range(self.size):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            y = self._img[start]
            while y != start:
                seen[y] = True
                cyc.append(y)
                y = self._img[y]
            out.append(tuple(cyc))
        return tuple(out)

    def orbit_count(self) -> int:
        seen = [False] * self.size
        count = 0
        for start in range(self.size):
            if seen[start]:
                continue
            count += 1
            y = start
            while not seen[y]:
                seen[y] = True
                y = self._img[y]
        return count

    def orbit_of(self, x: int) -> tuple[int, ...]:
        """The cycle through ``x``, starting at ``x``."""
        cyc = [x]
        y = self._img[x]
        while y != x:
            cyc.append(y)
            y = self._img[y]
        return tuple(cyc)

    def restrict(self, domain: Iterable[int]) -> "Permutation":
        """Remove all labels outside ``domain`` from the cycles.

        For ``x`` in the domain the image is the first iterate that lies in
        the domain again; labels outside the domain become fixed points, so
        the result stays a bijection on the full universe.
        """
        keep = [False] * self.size
        for x in domain:
            keep[x] = True
        img = list(range(self.size))
        for x in range(self.size):
            if not keep[x]:
                continue
            y = self._img[x]
            while not keep[y]:
                y = self._img[y]
            img[x] = y
        return Permutation._of(img)

    # -- predicates and small queries --------------------------------------

    def is_involution(self) -> bool:
        img = self._img
        return [img[y] for y in img] == list(range(len(img)))

    def is_fixed_point_free(self) -> bool:
        return not any(map(eq, self._img, range(len(self._img))))

    def support(self) -> frozenset[int]:
        """Labels moved by the permutation."""
        return frozenset(x for x, y in enumerate(self._img) if y != x)

    @classmethod
    def from_text(cls, text: str, size: int | None = None) -> "Permutation":
        return parse_cycles(text, size=size)


# Commas, spaces, tabs and line breaks separate labels.  Once they are
# spaces, any character but a space, a parenthesis or a digit is an error.
_SEPARATORS = str.maketrans(",\t\r\n", "    ")
_STRAY = re.compile(r"[^\d ()]")


def parse_cycle_lists(text: str) -> list[list[int]]:
    """Split cycle notation into raw label lists (positive integers).

    Commas, spaces, tabs and line breaks separate labels.  No disjointness
    is enforced here; callers decide what repetition means.  The text is
    split at each ``)``: every piece but the last holds one cycle after its
    ``(``, and the last piece holds none.
    """
    text = text.translate(_SEPARATORS)
    stray = _STRAY.search(text)
    if stray:
        raise CycleFormatError(f"unexpected character {stray.group()!r} in cycle notation")
    cycles: list[list[int]] = []
    *closed, rest = text.split(")")
    for piece in closed:
        outside, paren, inside = piece.partition("(")
        if outside.strip(" "):
            raise CycleFormatError(f"label {outside.split()[0]} outside any cycle")
        if not paren:
            raise CycleFormatError("unmatched ')' in cycle notation")
        if "(" in inside:
            raise CycleFormatError("nested '(' in cycle notation")
        tokens = inside.split()
        if tokens:  # "()" is the identity marker and adds no cycle
            try:
                cycles.append(list(map(int, tokens)))
            except ValueError:  # more digits than int() converts
                longest = max(map(len, tokens))
                raise CycleFormatError(f"label of {longest} digits") from None
    outside, paren, _ = rest.partition("(")
    if outside.strip(" "):
        raise CycleFormatError(f"label {outside.split()[0]} outside any cycle")
    if paren:
        raise CycleFormatError("unterminated cycle; missing ')'")
    if cycles and min(map(min, cycles)) <= 0:
        raise CycleFormatError("labels must be positive integers")
    return cycles


def parse_cycles(text: str, size: int | None = None) -> Permutation:
    """Parse disjoint-cycle notation over positive labels into a permutation.

    The universe is ``1..size`` (default: the largest label seen); text label
    ``k`` becomes internal label ``k - 1`` and unmentioned labels are fixed.
    """
    lists = parse_cycle_lists(text)
    maxlabel = max((max(c) for c in lists), default=0)
    n = maxlabel if size is None else size
    if maxlabel > n:
        raise CycleFormatError(f"label {maxlabel} exceeds universe size {n}")
    internal = [[x - 1 for x in c] for c in lists]
    return Permutation.from_cycles(internal, n)


def format_cycles(p: Permutation, names: Sequence[int] | None = None) -> str:
    """Canonical cycle text of ``p``.

    ``names`` maps internal labels to distinct external positive integers
    used in the text (default ``i + 1``).  Cycles are rotated to start at
    their smallest external label and sorted by it; fixed points are
    omitted.  An identity permutation formats as ``"()"``.

    One walk: labels are visited in order of their external names, so the
    first label met on each cycle is its smallest, and the cycle is walked
    from there, already rotated and in sorted place.
    """
    img = p.image
    if names is None:
        names = range(1, len(img) + 1)
        order: Iterable[int] = range(len(img))
    else:
        order = sorted(range(len(img)), key=names.__getitem__)
    seen = bytearray(len(img))
    parts = []
    for start in order:
        y = img[start]
        if y == start or seen[start]:
            continue
        parts.append(f"({names[start]}")
        while y != start:
            seen[y] = 1
            parts.append(f" {names[y]}")
            y = img[y]
        parts.append(")")
    return "".join(parts) or "()"
