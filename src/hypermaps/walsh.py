"""Signed bipartite maps and the Walsh construction of hypermaps.

A hypermap corresponds to an embedding of its incidence bipartite graph.  The
builder labels each bipartite edge ``i`` with four integers ``4i-3 .. 4i``
(the first block at the edge's "u" end, the second at its "v" end, odd
numbers on the left side), forms the edge permutation from the twists and the
vertex bi-rotations from the rotations, and then extracts the hypermap on the
labels that sit at vertex-side endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from .errors import CycleFormatError, DuplicateLabel, HypermapError, MissingLabel
from .model import Hypermap
from .perm import Permutation

__all__ = [
    "BipartiteVertex",
    "BipartiteEdge",
    "BipartiteMapSpec",
    "parse_bmf",
    "write_bmf",
    "walsh_build",
]


@dataclass(frozen=True)
class BipartiteVertex:
    name: str
    side: str  # "V" (hypermap vertices) or "E" (hypermap hyperedges)
    rotation: tuple[str, ...]


@dataclass(frozen=True)
class BipartiteEdge:
    name: str
    twist: int  # +1 untwisted, -1 twisted
    u_side: str = "V"  # side holding the first label block


@dataclass(frozen=True)
class BipartiteMapSpec:
    """A signed rotation system of a bipartite graph."""

    vertices: tuple[BipartiteVertex, ...]
    edges: tuple[BipartiteEdge, ...]

    def validate(self) -> None:
        edge_names = [e.name for e in self.edges]
        if len(set(edge_names)) != len(edge_names):
            raise DuplicateLabel("duplicate bipartite edge name")
        vertex_names = [w.name for w in self.vertices]
        if len(set(vertex_names)) != len(vertex_names):
            raise DuplicateLabel("duplicate bipartite vertex name")
        for w in self.vertices:
            if w.side not in ("V", "E"):
                raise HypermapError(f"vertex {w.name}: side must be V or E")
            if not w.rotation:  # a vertex or hyperedge with no labels
                raise MissingLabel(f"vertex {w.name}: empty rotation")
        for e in self.edges:
            if e.twist not in (1, -1) or e.u_side not in ("V", "E"):
                raise HypermapError(f"edge {e.name}: bad twist or side")
        seen = {"V": set(), "E": set()}
        for w in self.vertices:
            for name in w.rotation:
                if name not in edge_names:
                    raise MissingLabel(f"rotation of {w.name} names unknown edge {name}")
                if name in seen[w.side]:
                    raise DuplicateLabel(
                        f"edge {name} appears twice on side {w.side}"
                    )
                seen[w.side].add(name)
        for name in edge_names:
            if name not in seen["V"] or name not in seen["E"]:
                raise MissingLabel(f"edge {name} must have one end on each side")


def parse_bmf(text: str) -> BipartiteMapSpec:
    """Parse the bipartite map text format.

    Lines: ``bmf 1`` header, ``bvertex <V|E> <name> (<edge> ...)`` and
    ``edge <name> <+|-> [V|E]``; ``#`` starts a comment.
    """
    vertices: list[BipartiteVertex] = []
    edges: list[BipartiteEdge] = []
    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "bmf":
            if parts[1:] != ["1"]:
                raise CycleFormatError(f"line {lineno}: unsupported bmf version")
            saw_header = True
        elif parts[0] == "bvertex":
            if len(parts) < 4 or parts[1] not in ("V", "E"):
                raise CycleFormatError(f"line {lineno}: bad bvertex line")
            rot = " ".join(parts[3:]).strip()
            if not (rot.startswith("(") and rot.endswith(")")):
                raise CycleFormatError(f"line {lineno}: rotation must be parenthesized")
            names = tuple(rot[1:-1].replace(",", " ").split())
            vertices.append(BipartiteVertex(parts[2], parts[1], names))
        elif parts[0] == "edge":
            if len(parts) not in (3, 4) or parts[2] not in ("+", "-"):
                raise CycleFormatError(f"line {lineno}: bad edge line")
            u_side = parts[3] if len(parts) == 4 else "V"
            edges.append(BipartiteEdge(parts[1], 1 if parts[2] == "+" else -1, u_side))
        else:
            raise CycleFormatError(f"line {lineno}: unknown directive {parts[0]!r}")
    if not saw_header:
        raise CycleFormatError("missing 'bmf 1' header")
    spec = BipartiteMapSpec(tuple(vertices), tuple(edges))
    spec.validate()
    return spec


def write_bmf(spec: BipartiteMapSpec) -> str:
    lines = ["bmf 1"]
    for w in spec.vertices:
        lines.append(f"bvertex {w.side} {w.name} ({' '.join(w.rotation)})")
    for e in spec.edges:
        lines.append(f"edge {e.name} {'+' if e.twist == 1 else '-'} {e.u_side}")
    return "\n".join(lines) + "\n"


def walsh_build(spec: BipartiteMapSpec) -> tuple[Hypermap, Hypermap]:
    """Build the bipartite map and extract its hypermap.

    Returns ``(M, H)``: the bipartite map as a hypermap over four labels per
    edge, and the hypermap over the labels at vertex-side endpoints, whose
    hyperedge permutation is the restricted face product composed with the
    inverse restricted bi-rotation.  External label numbers of ``H`` are the
    original bipartite ones, so cycles can be compared against printed data.
    """
    spec.validate()
    edge_index = {e.name: k for k, e in enumerate(spec.edges)}
    n = 4 * len(spec.edges)

    # Edge permutation from the twists: labels 4k..4k+3 internally, the
    # cycles (4k 4k+2)(4k+1 4k+3), or (4k 4k+3)(4k+1 4k+2) when twisted.
    psi = []
    for k, e in enumerate(spec.edges):
        b = 4 * k
        psi += [b + 2, b + 3, b, b + 1] if e.twist == 1 else [b + 3, b + 2, b + 1, b]

    def end_labels(edge: BipartiteEdge, side: str) -> tuple[int, int]:
        """(left, right) labels of the edge's end on the given side."""
        b = 4 * edge_index[edge.name]
        return (b, b + 1) if edge.u_side == side else (b + 2, b + 3)

    # Bi-rotations: the left labels in rotation order, the right ones reversed.
    tau = list(range(n))
    vertex_sets = []
    for w in spec.vertices:
        ends = [end_labels(spec.edges[edge_index[name]], w.side) for name in w.rotation]
        for (l, r), (l2, r2) in zip(ends, ends[1:] + ends[:1]):
            tau[l], tau[r2] = l2, r
        vertex_sets.append(frozenset(x for end in ends for x in end))

    # Every array is a bijection for a validated spec, and from_flags'
    # mirror-axiom check would reject any that is not.
    m = Hypermap.from_flags(
        Permutation._of(tau), Permutation._of(psi),
        Permutation._of([x ^ 1 for x in range(n)]),
        hyperedge_sets=[frozenset(range(4 * k, 4 * k + 4)) for k in range(len(spec.edges))],
        hyperedge_names=[e.name for e in spec.edges],
        vertex_sets=vertex_sets,
        vertex_names=[w.name for w in spec.vertices],
    )

    # Extraction: D = the labels at V-side ends.  Each edge has one V end,
    # and edge k's becomes the label pair (2k, 2k + 1) of H.
    order = [x for e in spec.edges for x in end_labels(e, "V")]
    dense = {x: i for i, x in enumerate(order)}

    tau_d = m.tau.restrict(order)
    face_d = m.psi.then(m.tau).restrict(order)
    psi_h_masked = face_d.then(tau_d.inverse())

    def extract(p: Permutation) -> Permutation:
        # p maps D onto itself, so its compaction is a bijection
        return Permutation._of([dense[p(lbl)] for lbl in order])

    def pairs(w: BipartiteVertex) -> frozenset[int]:
        return frozenset(2 * edge_index[name] + j for name in w.rotation for j in (0, 1))

    v_side = [w for w in spec.vertices if w.side == "V"]
    e_side = [w for w in spec.vertices if w.side == "E"]
    h = Hypermap.from_flags(
        extract(tau_d), extract(psi_h_masked), extract(m.iota),
        hyperedge_sets=[pairs(w) for w in e_side],
        hyperedge_names=[w.name for w in e_side],
        vertex_sets=[pairs(w) for w in v_side],
        vertex_names=[w.name for w in v_side],
        label_names=[lbl + 1 for lbl in order],
    )
    return m, h
