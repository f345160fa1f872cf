"""The hypermap text format (HMF): one hypermap per file.

    hmf 1
    labels 24
    vertex v1 (1 17 21) (2 22 18)
    hyperedge e1 (1 5 19) (4 18 8)
    iota (1 18)(2 21)...

Labels are arbitrary positive integers, each appearing exactly once in the
vertex section and once in the hyperedge section; ``iota`` is optional and is
solved for when absent.  ``#`` starts a comment.

Reading is one pass over the lines.  A ``vertex`` or ``hyperedge`` line of
the shape ``write_hmf`` prints, ``(a b ...) (c d ...)`` with single spaces
and no leading zeros, and an ``iota`` line of the shape ``(a b)(c d)...``
are matched by one regular expression and converted with ``int``.  Every
other line goes through the general tokenizer, ``parse_cycle_lists``, so a
malformed line fails with the error it always had.  The labels are then
made dense and the cycle pairs go to ``Hypermap.from_parts``, which checks
them in linear time while it builds the images.  Writing walks each class's
two cycles over the image tuples.
"""

from __future__ import annotations

import re
from itertools import chain

from .errors import CycleFormatError, DuplicateLabel, MissingLabel
from .model import Hypermap
from .perm import Permutation, parse_cycle_lists

__all__ = ["read_hmf", "write_hmf"]

_LABEL = r"[1-9][0-9]*"
_CYCLE = rf"\(({_LABEL}(?: {_LABEL})*)\)"
# a vertex or hyperedge line as write_hmf prints it: kind, name, two cycles
_CLASS_LINE = re.compile(rf"(vertex|hyperedge) ([^\s#]+) {_CYCLE} {_CYCLE}")
_IOTA = re.compile(rf"(?:\({_LABEL} {_LABEL}\))+")


def _iota_labels(text: str, lineno: int) -> list[int]:
    """The labels of an ``iota`` line, pair after pair."""
    if _IOTA.fullmatch(text):
        try:
            return list(map(int, text[1:-1].replace(")(", " ").split(" ")))
        except ValueError:  # more digits than int() converts: reported below
            pass
    pairs = parse_cycle_lists(text)
    if any(len(c) != 2 for c in pairs):
        raise CycleFormatError(f"line {lineno}: iota must be 2-cycles")
    return [x for c in pairs for x in c]


def _iota_image(labels: list[int], dense: dict[int, int]) -> list[int]:
    """The side pairing named by the ``iota`` labels, on dense labels.

    Pairs are checked in order: an unknown label, then a repeated one; then
    the pairs must cover every label.
    """
    n = len(dense)
    try:
        flat = list(map(dense.__getitem__, labels))
    except KeyError:
        flat = None
    if flat is None or len(flat) != n or len(set(flat)) != n:
        # a check fails, or a pair (a a), which the axiom check rejects
        # later: run the checks pair by pair
        img = list(range(n))
        seen: set[int] = set()
        pairs = iter(labels)
        for a, b in zip(pairs, pairs):
            if a not in dense or b not in dense:
                raise MissingLabel(f"iota names unknown label {a} or {b}")
            if dense[a] in seen or dense[b] in seen:
                raise DuplicateLabel("label repeated in iota")
            seen.update((dense[a], dense[b]))
            img[dense[a]] = dense[b]
            img[dense[b]] = dense[a]
        if len(seen) != n:
            raise MissingLabel("iota must pair every label")
        return img
    img = [0] * n
    pairs = iter(flat)
    for a, b in zip(pairs, pairs):
        img[a] = b
        img[b] = a
    return img


def read_hmf(text: str) -> Hypermap:
    saw_header = False
    declared_n: int | None = None
    vertex_lines: list[tuple[str, list[list[int]]]] = []
    hyperedge_lines: list[tuple[str, list[list[int]]]] = []
    iota_labels: list[int] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        m = _CLASS_LINE.fullmatch(raw)
        if m:
            kind, name, a, b = m.groups()
            try:
                cycles = [list(map(int, a.split(" "))), list(map(int, b.split(" ")))]
            except ValueError:  # more digits than int() converts: reported below
                pass
            else:
                target = vertex_lines if kind == "vertex" else hyperedge_lines
                target.append((name, cycles))
                continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 2)
        kind = parts[0]
        if kind in ("vertex", "hyperedge"):
            if len(parts) < 3:
                raise CycleFormatError(f"line {lineno}: missing name or cycles")
            cycles = parse_cycle_lists(parts[2])
            if len(cycles) != 2:
                raise CycleFormatError(
                    f"line {lineno}: a {kind} needs exactly two cycles"
                )
            target = vertex_lines if kind == "vertex" else hyperedge_lines
            target.append((parts[1], cycles))
        elif kind == "hmf":
            if parts[1:2] != ["1"]:
                raise CycleFormatError(f"line {lineno}: unsupported hmf version")
            saw_header = True
        elif kind == "labels":
            try:
                declared_n = int(parts[1])
            except (IndexError, ValueError):
                raise CycleFormatError(
                    f"line {lineno}: 'labels' needs an integer count"
                ) from None
        elif kind == "iota":
            if len(parts) < 2:
                raise CycleFormatError(f"line {lineno}: 'iota' needs its 2-cycles")
            iota_labels = _iota_labels(line.split(None, 1)[1], lineno)
        else:
            raise CycleFormatError(f"line {lineno}: unknown directive {kind!r}")
    if not saw_header:
        raise CycleFormatError("missing 'hmf 1' header")
    if not vertex_lines or not hyperedge_lines:
        raise MissingLabel("need at least one vertex and one hyperedge")

    externals = sorted(set(chain.from_iterable(
        chain.from_iterable(cycles for _, cycles in vertex_lines))))
    if declared_n is not None and declared_n != len(externals):
        raise MissingLabel(
            f"labels line declares {declared_n}, found {len(externals)}"
        )
    dense = dict(zip(externals, range(len(externals))))
    internal = dense.__getitem__
    vpairs = [(list(map(internal, a)), list(map(internal, b)))
              for _, (a, b) in vertex_lines]
    try:
        epairs = [(list(map(internal, a)), list(map(internal, b)))
                  for _, (a, b) in hyperedge_lines]
    except KeyError as exc:
        raise MissingLabel(f"label {exc.args[0]} is not in the vertex section") from None
    iota = None
    if iota_labels is not None:
        # a bijection by construction; from_parts checks the flag axioms
        iota = Permutation._of(_iota_image(iota_labels, dense))

    return Hypermap.from_parts(
        vpairs, epairs, iota=iota,
        vertex_names=[nm for nm, _ in vertex_lines],
        hyperedge_names=[nm for nm, _ in hyperedge_lines],
        label_names=externals,
    )


def write_hmf(h: Hypermap) -> str:
    names, iota = h.label_names, h.iota.image

    def pair_text(img: tuple[int, ...], labels: frozenset[int]) -> str:
        """A class's cycle through its least label, then the mirror cycle,
        each rotated to start at its least external label."""
        texts = []
        first = min(labels)
        for start in (first, iota[first]):
            ext = [names[start]]
            y = img[start]
            while y != start:
                ext.append(names[y])
                y = img[y]
            k = ext.index(min(ext))
            texts.append("(" + " ".join(map(str, ext[k:] + ext[:k])) + ")")
        return " ".join(texts)

    lines = ["hmf 1", f"labels {h.n}"]
    tau, psi = h.tau.image, h.psi.image
    lines += [f"vertex {name} {pair_text(tau, labels)}"
              for name, labels in zip(h.vertex_names, h.vertex_sets)]
    lines += [f"hyperedge {name} {pair_text(psi, labels)}"
              for name, labels in zip(h.hyperedge_names, h.hyperedge_sets)]
    # each pair once, as (least, greatest) external label
    pairs = sorted((a, b) for a, b in zip(names, [names[y] for y in iota]) if a < b)
    lines.append("iota " + "".join([f"({a} {b})" for a, b in pairs]))
    return "\n".join(lines) + "\n"
