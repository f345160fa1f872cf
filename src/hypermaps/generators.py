"""Bundled example hypermaps, parametric families, and closed forms.

The three worked examples carry the exact permutations printed in their
source figures (external label numbers included), so derived quantities can
be compared string-for-string.  The parametric families (hyper-ladders, the
one-cycle hypertree, stars) are built from planar rotation schemes; their
embeddings are pinned by the closed-form polynomials they must reproduce.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from .errors import UnknownFamily
from .constructions import CornerRef, join
from .genuspoly import GenusPolynomial
from .model import Hypermap
from .perm import Permutation, parse_cycle_lists

__all__ = [
    "example",
    "plane_example",
    "torus_example",
    "fig7_example",
    "ladder",
    "ladder_tree",
    "cycle_hypertree",
    "star",
    "random_hypertree",
    "closed_form",
    "build_oriented",
]


def _paper_hypermap(tau_pairs: Sequence[tuple[str, str]],
                    psi_pairs: Sequence[tuple[str, str]],
                    consecutive_iota: bool = False) -> Hypermap:
    """Build a hypermap from printed cycle-pair strings (sparse labels)."""
    def raw(pairs):
        return [tuple(parse_cycle_lists(a)[0] for a in p) for p in pairs]

    rv, re_ = raw(tau_pairs), raw(psi_pairs)
    externals = sorted({x for p in rv for c in p for x in c})
    dense = {ext: i for i, ext in enumerate(externals)}
    vmap = [tuple([dense[x] for x in c] for c in p) for p in rv]
    emap = [tuple([dense[x] for x in c] for c in p) for p in re_]
    iota = None
    if consecutive_iota:
        img = [0] * len(externals)
        for ext in externals:
            partner = ext + 1 if ext % 2 else ext - 1
            img[dense[ext]] = dense[partner]
        iota = Permutation(img)
    return Hypermap.from_parts(vmap, emap, iota=iota, label_names=externals)


# The planar example: five vertices, three hyperedges, twelve incidences.
_PLANE_TAU = [
    ("(1 5)", "(2 6)"),
    ("(9 47 31)", "(10 32 48)"),
    ("(15 43)", "(16 44)"),
    ("(19 21 39)", "(20 40 22)"),
    ("(25 33)", "(26 34)"),
]
_PLANE_PSI = [
    ("(1 31 25 21)", "(2 22 26 32)"),
    ("(5 19 15 9)", "(6 10 16 20)"),
    ("(33 47 43 39)", "(34 40 44 48)"),
]

# The toroidal example: four vertices, four hyperedges, thirteen incidences.
_TORUS_TAU = [
    ("(1 5 9)", "(2 10 6)"),
    ("(15 35 37)", "(16 38 36)"),
    ("(19 43 45)", "(20 46 44)"),
    ("(23 25 29 51)", "(24 52 30 26)"),
]
_TORUS_PSI = [
    ("(1 45 51)", "(2 52 46)"),
    ("(5 29 35)", "(6 36 30)"),
    ("(9 15 19 23)", "(10 24 20 16)"),
    ("(25 43 37)", "(26 38 44)"),
]

# The partial-duality example: four vertices, four 3-incidence hyperedges.
_FIG7_TAU = [
    ("(1 17 21)", "(2 22 18)"),
    ("(7 13 19)", "(8 20 14)"),
    ("(3 9 5)", "(4 6 10)"),
    ("(11 23 15)", "(12 16 24)"),
]
_FIG7_PSI = [
    ("(1 5 19)", "(4 18 8)"),
    ("(3 11 21)", "(2 24 10)"),
    ("(7 9 15)", "(6 14 12)"),
    ("(13 23 17)", "(16 20 22)"),
]


def plane_example() -> Hypermap:
    """The planar worked example (labels as printed)."""
    return _paper_hypermap(_PLANE_TAU, _PLANE_PSI, consecutive_iota=True)


def torus_example() -> Hypermap:
    """The toroidal worked example (labels as printed)."""
    return _paper_hypermap(_TORUS_TAU, _TORUS_PSI, consecutive_iota=True)


def fig7_example() -> Hypermap:
    """The partial-duality example; the side pairing is solved for."""
    return _paper_hypermap(_FIG7_TAU, _FIG7_PSI)


# Signed rotation systems of the associated bipartite maps, reverse-engineered
# from the printed permutations.  The trailing V/E on each edge line says on
# which side its first label block sits.

PLANE_BMF = """\
bmf 1
bvertex V v1 (b1 b2)
bvertex V v2 (b3 b12 b8)
bvertex V v3 (b4 b11)
bvertex V v4 (b5 b6 b10)
bvertex V v5 (b7 b9)
bvertex E e1 (b1 b8 b7 b6)
bvertex E e2 (b2 b5 b4 b3)
bvertex E e3 (b9 b12 b11 b10)
edge b1 + V
edge b2 + V
edge b3 + V
edge b4 + E
edge b5 + E
edge b6 + V
edge b7 + V
edge b8 + E
edge b9 + V
edge b10 + E
edge b11 + E
edge b12 + E
"""

TORUS_BMF = """\
bmf 1
bvertex V v1 (b1 b2 b3)
bvertex V v2 (b4 b9 b10)
bvertex V v3 (b5 b11 b12)
bvertex V v4 (b6 b7 b8 b13)
bvertex E e1 (b1 b12 b13)
bvertex E e2 (b2 b8 b9)
bvertex E e3 (b3 b4 b5 b6)
bvertex E e4 (b7 b11 b10)
edge b1 + V
edge b2 + V
edge b3 + V
edge b4 + E
edge b5 + E
edge b6 + E
edge b7 + V
edge b8 + V
edge b9 + E
edge b10 + V
edge b11 + E
edge b12 + V
edge b13 + E
"""


def example(tag: str) -> Hypermap:
    """Bundled example by tag: plane_example, torus_example or fig7."""
    builders = {
        "plane_example": plane_example,
        "torus_example": torus_example,
        "fig7": fig7_example,
    }
    if tag not in builders:
        raise UnknownFamily(f"no bundled example {tag!r}")
    return builders[tag]()


# -- rotation-scheme builder ----------------------------------------------------


def build_oriented(vertex_rotations: Sequence[tuple[str, Sequence[int]]],
                   edge_rotations: Sequence[tuple[str, Sequence[int]]]) -> Hypermap:
    """Build an orientable hypermap from incidence rotations.

    Incidences are integers ``0..k-1``; each appears exactly once in one
    vertex rotation and once in one hyperedge rotation.  Incidence ``k``
    carries the label pair ``(2k, 2k+1)``.
    """
    n = 2 * sum(len(rot) for _, rot in vertex_rotations)

    def rotations(named):
        # incidence order on the even labels, the reverse on the odd ones
        img = list(range(n))
        for _, rot in named:
            for i, j in zip(rot, [*rot[1:], *rot[:1]]):
                img[2 * i], img[2 * j + 1] = 2 * j, 2 * i + 1
        # from_flags' mirror-axiom check rejects an image that is no bijection
        return (Permutation._of(img),
                [frozenset(2 * i + b for i in rot for b in (0, 1)) for _, rot in named])

    tau, vertex_sets = rotations(vertex_rotations)
    psi, hyperedge_sets = rotations(edge_rotations)
    return Hypermap.from_flags(
        tau, psi, Permutation._of([x ^ 1 for x in range(n)]),
        hyperedge_sets=hyperedge_sets,
        hyperedge_names=[nm for nm, _ in edge_rotations],
        vertex_sets=vertex_sets,
        vertex_names=[nm for nm, _ in vertex_rotations],
    )


def star(k: int) -> Hypermap:
    """One hyperedge through ``k`` degree-1 vertices, on the sphere."""
    if k < 1:
        raise UnknownFamily("a star needs at least one vertex")
    vertices = [(f"v{j + 1}", [j]) for j in range(k)]
    return build_oriented(vertices, [("e1", list(range(k)))])


def ladder_tree(n: int) -> Hypermap:
    """The 4-uniform hypertree path on hyperedges ``e1..en`` (planar)."""
    if n < 1:
        raise UnknownFamily("ladder_tree needs n >= 1")
    # incidence (i, r): hyperedge i with the r-th of its four vertices
    # x_(2i-1), x_(2i), x_(2i+1), x_(2i+2); ids are 4*(i-1)+r.
    inc = lambda i, r: 4 * (i - 1) + r
    edges = []
    for i in range(1, n + 1):
        edges.append((f"e{i}", [inc(i, 0), inc(i, 2), inc(i, 3), inc(i, 1)]))
    vertices = []
    for j in range(1, 2 * n + 3):
        rot = []
        # x_j belongs to e_i iff 2i-1 <= j <= 2i+2
        for i in range(1, n + 1):
            if 2 * i - 1 <= j <= 2 * i + 2:
                rot.append(inc(i, j - (2 * i - 1)))
        vertices.append((f"x{j}", rot))
    return build_oriented(vertices, edges)


def ladder(n: int) -> Hypermap:
    """The hyper-ladder: the 4-uniform path with its degree-1 ends removed.

    For ``n = 1`` that removal would leave no vertices at all, so the single
    hyperedge is kept on one vertex (its polynomial is the constant 2 either
    way).
    """
    if n < 1:
        raise UnknownFamily("ladder needs n >= 1")
    if n == 1:
        return star(1)
    inc = lambda i, r: 4 * (i - 1) + r
    edges = []
    for i in range(1, n + 1):
        slots = [inc(i, 0), inc(i, 2), inc(i, 3), inc(i, 1)]
        if i == 1:
            slots = [inc(1, 2), inc(1, 3)]
        if i == n:
            slots = [inc(n, 0), inc(n, 1)]
        edges.append((f"e{i}", slots))
    vertices = []
    for j in range(3, 2 * n + 1):
        rot = []
        for i in range(1, n + 1):
            if 2 * i - 1 <= j <= 2 * i + 2:
                rot.append(inc(i, j - (2 * i - 1)))
        vertices.append((f"x{j}", rot))
    used = sorted({i for _, rot in vertices for i in rot})
    remap = {old: new for new, old in enumerate(used)}
    vertices = [(nm, [remap[i] for i in rot]) for nm, rot in vertices]
    edges = [(nm, [remap[i] for i in rot]) for nm, rot in edges]
    return build_oriented(vertices, edges)


def cycle_hypertree(n: int) -> Hypermap:
    """The hypertree with one cycle: a fan of triples closed by one big
    hyperedge (planar)."""
    if n < 3:
        raise UnknownFamily("cycle_hypertree needs n >= 3")
    # incidences: e_i (i < n) has (u, v_i, x_i) at ids 3*(i-1)+{0,1,2};
    # e_n has (v_1..v_(n-1), x_n) at ids 3*(n-1)+{0..n-1}.  The closing
    # hyperedge runs around the fan the other way, which is what keeps the
    # embedding planar.
    base = 3 * (n - 1)
    edges = []
    for i in range(1, n):
        edges.append((f"e{i}", [3 * (i - 1), 3 * (i - 1) + 1, 3 * (i - 1) + 2]))
    edges.append((f"e{n}", [base + j for j in range(n - 2, -1, -1)] + [base + n - 1]))
    vertices = [("u", [3 * (i - 1) for i in range(1, n)])]
    for i in range(1, n):
        vertices.append((f"v{i}", [3 * (i - 1) + 1, base + i - 1]))
    for i in range(1, n):
        vertices.append((f"x{i}", [3 * (i - 1) + 2]))
    vertices.append((f"x{n}", [base + n - 1]))
    return build_oriented(vertices, edges)


def random_hypertree(e_count: int, seed: int) -> Hypermap:
    """A random cycle-free hypertree, grown by joining stars at corners.

    Every star has at least two vertices, so removing any hyperedge isolates
    one of them and the hypertree property holds.  Deterministic per seed.
    """
    if e_count < 1:
        raise UnknownFamily("a hypertree needs at least one hyperedge")
    rng = random.Random(seed)
    h = star(rng.randint(2, 4))
    for _ in range(e_count - 1):
        piece = star(rng.randint(2, 4))
        x = rng.randrange(h.n)
        y = rng.randrange(piece.n)
        h = join(h, CornerRef(h.vertex_of(x), x),
                 piece, CornerRef(piece.vertex_of(y), y))
    return h


def is_hypertree(h: Hypermap) -> bool:
    """Connected, and removing any one hyperedge disconnects (spanning-sub
    components over the remaining hyperedges, isolated vertices counted)."""
    from .duality import EdgeSubset, spanning_counts

    if not h.is_connected():
        return False
    full = (1 << h.e) - 1
    return all(
        spanning_counts(h, EdgeSubset(full ^ (1 << i), h.e)).c > 1
        for i in range(h.e)
    )


# -- closed forms ---------------------------------------------------------------


def closed_form(family: str, n: int) -> GenusPolynomial:
    """The known polynomial for a family, by exact integer arithmetic."""
    if family in ("ladder", "ladder_tree"):
        if n < 1:
            raise UnknownFamily("ladder closed form needs n >= 1")
        return GenusPolynomial(
            {2 * k: 2 * math.comb(n - 1, k) for k in range(n)}
        )
    if family in ("tree", "star"):
        e = n if family == "tree" else 1
        return GenusPolynomial({0: 2**e})
    if family == "cycle_hypertree":
        if n < 3:
            raise UnknownFamily("cycle_hypertree closed form needs n >= 3")
        acc: dict[int, int] = {0: 2}
        acc[2 * n - 4] = acc.get(2 * n - 4, 0) + 2
        if n % 2:
            for i in range(1, n // 2 + 1):
                acc[2 * i] = acc.get(2 * i, 0) + 2 * math.comb(n - 1, i)
            for i in range(2, n // 2 + 1):
                acc[2 * n - 2 * i] = acc.get(2 * n - 2 * i, 0) + 2 * math.comb(n - 1, i - 1)
        else:
            for i in range(1, n // 2):
                acc[2 * i] = acc.get(2 * i, 0) + 2 * math.comb(n - 1, i)
            for i in range(2, n // 2):
                acc[2 * n - 2 * i] = acc.get(2 * n - 2 * i, 0) + 2 * math.comb(n - 1, i - 1)
            acc[n] = acc.get(n, 0) + math.comb(n - 1, n // 2) + math.comb(n - 1, n // 2 - 1)
        return GenusPolynomial(acc)
    raise UnknownFamily(f"no closed form for family {family!r}")
