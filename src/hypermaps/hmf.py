"""The hypermap text format (HMF): one hypermap per file.

    hmf 1
    labels 24
    vertex v1 (1 17 21) (2 22 18)
    hyperedge e1 (1 5 19) (4 18 8)
    iota (1 18)(2 21)...

Labels are arbitrary positive integers, each appearing exactly once in the
vertex section and once in the hyperedge section; ``iota`` is optional and is
solved for when absent.  ``#`` starts a comment.
"""

from __future__ import annotations

from .errors import CycleFormatError, DuplicateLabel, MissingLabel
from .model import Hypermap
from .perm import Permutation, parse_cycle_lists

__all__ = ["read_hmf", "write_hmf"]


def read_hmf(text: str) -> Hypermap:
    saw_header = False
    declared_n: int | None = None
    vertex_lines: list[tuple[str, list[list[int]]]] = []
    hyperedge_lines: list[tuple[str, list[list[int]]]] = []
    iota_pairs: list[list[int]] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 2)
        kind = parts[0]
        if kind == "hmf":
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
        elif kind in ("vertex", "hyperedge"):
            if len(parts) < 3:
                raise CycleFormatError(f"line {lineno}: missing name or cycles")
            cycles = parse_cycle_lists(parts[2])
            if len(cycles) != 2:
                raise CycleFormatError(
                    f"line {lineno}: a {kind} needs exactly two cycles"
                )
            target = vertex_lines if kind == "vertex" else hyperedge_lines
            target.append((parts[1], cycles))
        elif kind == "iota":
            if len(parts) < 2:
                raise CycleFormatError(f"line {lineno}: 'iota' needs its 2-cycles")
            iota_pairs = parse_cycle_lists(line.split(None, 1)[1])
            if any(len(c) != 2 for c in iota_pairs):
                raise CycleFormatError(f"line {lineno}: iota must be 2-cycles")
        else:
            raise CycleFormatError(f"line {lineno}: unknown directive {kind!r}")
    if not saw_header:
        raise CycleFormatError("missing 'hmf 1' header")
    if not vertex_lines or not hyperedge_lines:
        raise MissingLabel("need at least one vertex and one hyperedge")

    externals = sorted({x for _, cycs in vertex_lines for c in cycs for x in c})
    if declared_n is not None and declared_n != len(externals):
        raise MissingLabel(
            f"labels line declares {declared_n}, found {len(externals)}"
        )
    dense = {ext: i for i, ext in enumerate(externals)}

    def to_internal(cycles: list[list[int]]):
        try:
            return tuple([dense[x] for x in c] for c in cycles)
        except KeyError as exc:
            raise MissingLabel(
                f"label {exc.args[0]} is not in the vertex section"
            ) from None

    vpairs = [to_internal(cycs) for _, cycs in vertex_lines]
    epairs = [to_internal(cycs) for _, cycs in hyperedge_lines]
    iota = None
    if iota_pairs is not None:
        img = list(range(len(externals)))
        seen: set[int] = set()
        for a, b in iota_pairs:
            if a not in dense or b not in dense:
                raise MissingLabel(f"iota names unknown label {a} or {b}")
            if dense[a] in seen or dense[b] in seen:
                raise DuplicateLabel("label repeated in iota")
            seen.update((dense[a], dense[b]))
            img[dense[a]] = dense[b]
            img[dense[b]] = dense[a]
        if len(seen) != len(externals):
            raise MissingLabel("iota must pair every label")
        iota = Permutation(img)

    return Hypermap.from_parts(
        vpairs, epairs, iota=iota,
        vertex_names=[nm for nm, _ in vertex_lines],
        hyperedge_names=[nm for nm, _ in hyperedge_lines],
        label_names=externals,
    )


def _cycle_text(h: Hypermap, cycle: tuple[int, ...]) -> str:
    ext = [h.label_names[x] for x in cycle]
    k = ext.index(min(ext))
    ext = ext[k:] + ext[:k]
    return "(" + " ".join(str(x) for x in ext) + ")"


def _pair_text(h: Hypermap, perm, labels: frozenset[int]) -> str:
    primary = perm.orbit_of(min(labels))
    mirror = perm.orbit_of(h.iota(primary[0]))
    a, b = _cycle_text(h, primary), _cycle_text(h, mirror)
    return f"{a} {b}"


def write_hmf(h: Hypermap) -> str:
    lines = ["hmf 1", f"labels {h.n}"]
    for i in range(h.v):
        lines.append(
            f"vertex {h.vertex_names[i]} {_pair_text(h, h.tau, h.vertex_sets[i])}"
        )
    for i in range(h.e):
        lines.append(
            f"hyperedge {h.hyperedge_names[i]} {_pair_text(h, h.psi, h.hyperedge_sets[i])}"
        )
    pairs = []
    for x in range(h.n):
        y = h.iota(x)
        if x < y:
            pairs.append((h.label_names[x], h.label_names[y]))
    pairs.sort(key=lambda p: min(p))
    lines.append("iota " + "".join(f"({min(p)} {max(p)})" for p in pairs))
    return "\n".join(lines) + "\n"
