"""Partial-dual genus polynomials, spectra, and the enumeration engines.

Summing ``z**eps(H^A)`` over all ``2**e`` hyperedge subsets is done by one of
two engines.  ``direct`` constructs every partial dual and reads its Euler
characteristic; it is the oracle.  ``formula`` evaluates the genus-change
formula instead.  Since ``eps(A) = 2c(A) - chi(A)``, the component terms of
that formula cancel and per subset only the two spanning-sub face counts
survive:

    eps(H^A) = 2c(H) - e(H) + sum_n(H) - f(A) - f(A^c)

Before counting, the formula engine factors the map along its joins.  The
polynomial of a join is the product of the polynomials of its two parts, so
the map is split at its separating vertices, the cut vertices of the
vertex-hyperedge incidence graph.  Each kind of node has one merge rule: the
depth-first search closes a block only at a vertex, so blocks that meet at a
hyperedge come out as one, and one pass over each separating vertex's cycle
merges the blocks whose labels cross there.  A merge only joins blocks that
share a node, so it never joins two blocks at another vertex (the block-cut
tree has no cycle), and one pass per vertex is enough.  The groups left at a
vertex cross nowhere, so one of them holds a contiguous arc of its cycle,
which is what a join splices in.  The piece polynomials are multiplied, so
``2**e`` subsets become ``sum 2**e_i``.  A map with no separating vertex,
such as the hyper-ladder, costs one depth-first search and is counted whole,
on its own arrays and cached sides.  ``direct`` never factors.

A piece is a group of labels of the map itself, not a map of its own
(:class:`_Piece`).  ``tau`` restricted to each label's piece is one array
for the whole map, in which only the cycles of the separating vertices are
rewritten; ``psi`` and ``iota`` are the map's.  One check of the flag axioms
on that array, and one ``<tau, psi>`` side pass, stand for validating and
counting every piece: the pass gives each piece's orientability and the
orbit it is counted on, and each piece is connected, so its constant is
``2 - e + n/2``.  Both counters read a piece in place, on those arrays, so
no piece is ever built as a :class:`Hypermap` of its own.

Each piece goes to one of two counters of f(A) + f(A^c), whichever has the
lower cost estimate (:func:`_plan`).  Both count on one ``<tau, psi>`` orbit
of an orientable map (half the labels, one cycle of every face pair), and on
all labels with the count halved otherwise.

* The kernel (:class:`_ContractedKernel`) counts ``2**e`` subsets in numpy.
  Subsets come in batches that share the assignment of all but ``k`` "low"
  hyperedges; walking through the fixed hyperedges contracts a batch to a
  map on the low labels plus a count of the cycles that never reach them,
  and the ``2**k`` subsets of the batch are counted by pointer doubling on
  the low labels.  Each batch is paired with the batch of the complementary
  high assignment, so f(A) and f(A^c) come out together.  Workers take steps
  of pairs from one shared iterator, each into scratch arrays of its own,
  and merge by integer addition, so output is identical for any worker
  count.
* The frontier engine (:class:`_Frontier`) is a transfer matrix, as for the
  Tutte polynomial (Sekine, Imai and Tani, ISAAC 1995; Noble, CPC 1998):
  it places the hyperedges one at a time and keeps, for A and A^c jointly,
  where each path that enters the placed part leaves it, merging equal
  states.  Its cost follows the number of states, not ``2**e``: one state
  per step on the hyper-ladder, ``2**(n/2 - 1)`` at the widest step of
  ``cycle_hypertree(n)``.

The estimates are deterministic functions of the piece, computed before any
work: the kernel's grows with ``2**e`` times the labels counted, the
frontier's with a bound on its states, each scaled by constants measured
with ``tools/engine_costs.py``.  On a 2-core Intel Xeon the 20-rung
hyper-ladder (one piece, e = 20, the ``perfbench`` workload
``poly_ladder``) takes under a millisecond median op time
(``BENCH_12.json``, ``BENCH_13.json``), against 0.44 s when the kernel
counted it; small pieces (e <= 8) take 0.02-0.3 ms in either engine.
"""

from __future__ import annotations

import logging
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    CoefficientOverflow,
    EdgeCapExceeded,
    HypermapError,
    NotConnected,
    NotOrientable,
    SelfPairedOrbit,
)
from . import __version__
from .duality import EdgeSubset, partial_dual
from .model import Hypermap, _axiom_check, _orbit_sides
from .perm import Permutation

__all__ = [
    "GenusPolynomial",
    "SpectrumReport",
    "EngineConfig",
    "EnumerationResult",
    "subset_iter",
    "euler_genus_polynomial",
    "orientable_genus_polynomial",
    "enumerate_partial_duals",
    "spectrum_report",
]

_COEFF_MAX = 2**64 - 1

_log = logging.getLogger(__name__)


class GenusPolynomial:
    """A polynomial with nonnegative integer coefficients, exponent-indexed.

    Zero coefficients are never stored; arithmetic is exact and checked
    against the 64-bit coefficient range.
    """

    __slots__ = ("_c",)

    def __init__(self, coefficients: dict[int, int] | None = None):
        clean: dict[int, int] = {}
        for k, v in (coefficients or {}).items():
            if k < 0:
                raise HypermapError(f"negative exponent {k}")
            if v < 0:
                raise HypermapError(f"negative coefficient {v} at z^{k}")
            if v > _COEFF_MAX:
                raise CoefficientOverflow(f"coefficient {v} at z^{k} exceeds 64 bits")
            if v:
                clean[k] = int(v)
        object.__setattr__(self, "_c", dict(sorted(clean.items())))

    @property
    def coefficients(self) -> dict[int, int]:
        return dict(self._c)

    def coeff(self, k: int) -> int:
        return self._c.get(k, 0)

    def exponents(self) -> tuple[int, ...]:
        return tuple(self._c)

    def add(self, other: "GenusPolynomial") -> "GenusPolynomial":
        out = dict(self._c)
        for k, v in other._c.items():
            out[k] = out.get(k, 0) + v
        return GenusPolynomial(out)

    def mul(self, other: "GenusPolynomial") -> "GenusPolynomial":
        out: dict[int, int] = {}
        for k1, v1 in self._c.items():
            for k2, v2 in other._c.items():
                out[k1 + k2] = out.get(k1 + k2, 0) + v1 * v2
        return GenusPolynomial(out)

    def eval_at_one(self) -> int:
        return sum(self._c.values())

    def halve_exponents(self) -> "GenusPolynomial":
        if any(k % 2 for k in self._c):
            raise HypermapError("cannot halve exponents: an odd exponent is present")
        return GenusPolynomial({k // 2: v for k, v in self._c.items()})

    def double_exponents(self) -> "GenusPolynomial":
        return GenusPolynomial({2 * k: v for k, v in self._c.items()})

    def as_json_dict(self) -> dict[str, int]:
        return {str(k): v for k, v in self._c.items()}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GenusPolynomial) and self._c == other._c

    def __hash__(self) -> int:
        return hash(tuple(self._c.items()))

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for k, v in self._c.items():
            if k == 0:
                parts.append(str(v))
            elif k == 1:
                parts.append(f"{v}z" if v != 1 else "z")
            else:
                parts.append(f"{v}z^{k}" if v != 1 else f"z^{k}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"GenusPolynomial({self._c!r})"


@dataclass(frozen=True)
class SpectrumReport:
    """Exponent set of a polynomial, its gaps, and whether it interpolates."""

    spectrum: tuple[int, ...]
    gaps: tuple[tuple[int, int, int], ...]  # (lo, hi, size) of each missing run
    interpolating: bool

    def as_dict(self) -> dict:
        return {
            "spectrum": list(self.spectrum),
            "gaps": [list(g) for g in self.gaps],
            "interpolating": self.interpolating,
        }


def spectrum_report(p: GenusPolynomial) -> SpectrumReport:
    """Spectrum and maximal missing integer intervals of a nonzero polynomial."""
    spec = p.exponents()
    if not spec:
        raise HypermapError("spectrum of the zero polynomial")
    gaps = []
    for lo, hi in zip(spec, spec[1:]):
        if hi - lo >= 2:
            gaps.append((lo + 1, hi - 1, hi - lo - 1))
    return SpectrumReport(spec, tuple(gaps), not gaps)


@dataclass(frozen=True)
class EngineConfig:
    """How to run a subset enumeration."""

    engine: str = "formula"
    worker_count: int | None = None
    edge_cap: int = 30

    def __post_init__(self):
        if self.engine not in ("direct", "formula", "both"):
            raise HypermapError(f"unknown engine {self.engine!r}")
        if not 1 <= self.edge_cap <= 62:
            raise HypermapError("edge_cap must be between 1 and 62")

    def workers(self) -> int:
        """The worker count: ``worker_count``, else ``HM_THREADS``, else 1,
        and never more than the CPUs this process may run on."""
        if self.worker_count is not None:
            asked = self.worker_count
        else:
            env = os.environ.get("HM_THREADS", "")
            asked = int(env) if env.isdigit() else 1
        return max(1, min(asked, _usable_cpus()))


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def subset_iter(e_count: int, edge_cap: int = 62):
    """All hyperedge bitmasks for ``e_count`` hyperedges, ascending."""
    if e_count > edge_cap:
        raise EdgeCapExceeded(f"{e_count} hyperedges exceeds the cap of {edge_cap}")
    return range(1 << e_count)


# -- join pieces: label groups of the map being enumerated -----------------------


class _Piece(NamedTuple):
    """One join piece, kept on its parent map's labels: the one input of both
    face-count engines.

    ``tau`` is the parent's ``tau`` restricted to each label's own piece;
    ``psi`` and ``iota`` are the parent's, and ``psi`` keeps every
    hyperedge, so every piece, whole.  The flag axioms hold for the three,
    so ``tau^-1`` is ``iota tau iota``.  The arrays are shared by all the
    pieces of one map.  ``boxes`` holds the counted labels of each of the
    piece's hyperedges, in order of least label, and ``const`` is
    ``2c - e + sum_n`` of the piece; ``box_of`` gives the index of each
    label's hyperedge among the piece's.
    """

    labels: Sequence[int]  # the piece's labels, ascending
    tau: Sequence[int]
    iota: Sequence[int]
    psi: Sequence[int]
    boxes: list[list[int]]
    box_of: Sequence[int]
    halve: bool  # not orientable: f(A) is counted on every label, twice over
    const: int

    @property
    def e(self) -> int:
        return len(self.boxes)


def _whole(h: Hypermap) -> _Piece:
    """A map as its own only piece, from its cached counts and sides."""
    cb = h.counts()
    # On an orientable map the engines count on one <tau, psi> orbit: iota
    # swaps the two orbits of a connected orientable hypermap and conjugates
    # psi_A then tau to an inverse, so each orbit carries one cycle of every
    # face pair.  Otherwise they count on every label, each face twice.
    halve = not cb.orientable
    side = h.sides()
    boxes = [[x for x in s if halve or side[x] == side[0]] for s in h.hyperedge_sets]
    return _Piece(range(h.n), h.tau.image, h.iota.image, h.psi.image,
                  boxes, h._hyperedge_of, halve, 2 * cb.c - cb.e + cb.sum_n)


# -- the formula engine: one contracted, paired face-count kernel -------------

# Both chosen by measurement: a larger _K shifts work from the per-batch
# contraction to the per-subset count; _STEP_LABELS is large enough to amortise
# numpy call overhead and the GIL hand-offs between workers, and small enough
# to keep a step's arrays in cache.
_K = 5  # hyperedges enumerated inside one batch
_STEP_LABELS = 1 << 17  # labels touched per vectorised step


def _jump(nxt: np.ndarray, mins: np.ndarray, tmp: np.ndarray, steps: int) -> np.ndarray:
    """Pointer doubling on a flat successor array, in place.

    ``mins`` enters holding each label's own index and leaves holding the
    least label among itself and its next ``2**steps - 1`` successors.
    Returns whichever of ``nxt`` and ``tmp`` then holds each label's successor
    ``2**steps`` steps on.  Every index is in range, so ``mode="clip"``
    changes no result; it lets ``take`` write straight into ``out``, which
    the default mode fills through a copy.
    """
    for _ in range(steps):
        mins.take(nxt, out=tmp, mode="clip")
        np.minimum(mins, tmp, out=mins)
        nxt.take(nxt, out=tmp, mode="clip")
        nxt, tmp = tmp, nxt
    return nxt


class _ContractedKernel:
    """Spanning-sub face counts f(A), a batch at a time.

    The ``k`` hyperedges with the fewest universe labels are "low", the rest
    "high".  A batch fixes the high part of ``A`` and takes all ``2**k`` low
    parts.  Walking ``psi_A then tau`` through the fixed high labels
    contracts the batch to one map ``T`` on the low labels (``T(y)`` is the
    first low label reached from ``tau(y)``) plus a count of the cycles that
    never leave the high labels; each f(A) of the batch is then an orbit
    count of ``psi_A then T`` on the low labels alone.
    """

    def __init__(self, piece: _Piece):
        self.halve = piece.halve
        edges = sorted(piece.boxes, key=len)
        self.k = k = max(0, min(_K, piece.e - 1))
        labels = [x for s in edges for x in s]
        self.m = m = len(labels)
        self.nl = nl = sum(len(s) for s in edges[:k])
        pos = np.empty(len(piece.tau), dtype=np.intp)
        pos[labels] = np.arange(m)
        tau = pos[np.array(piece.tau)[labels]]
        psi = pos[np.array(piece.psi)[labels]]
        edge = np.repeat(np.arange(len(edges)), [len(s) for s in edges])
        # psi_A on the low labels, one row per low assignment
        low_on = np.arange(1 << k)[:, None] >> edge[:nl] & 1
        self.psi_low = np.where(low_on, psi[:nl], np.arange(nl))
        self.low_ids = np.arange(nl)
        self.tau_low = tau[:nl]
        self.tau_high = tau[nl:]
        self.tau_psi_high = tau[psi[nl:]]
        self.high_bit = edge[nl:] - k
        # 2**steps successors must cover a whole orbit; a walk from a high
        # label also needs the low label it ends on
        self.high_steps = (m - nl).bit_length()
        self.low_steps = max(nl - 1, 0).bit_length()

    def work_arrays(self, g: int) -> list[np.ndarray]:
        """Scratch arrays for :meth:`face_counts` on up to ``g`` high parts.

        A worker makes them once and every step reuses them: arrays freed and
        allocated anew each step make the allocator return the pages to the
        system and fault them back in, which costs a third of the run time.
        """
        size = max(g * self.m, (g << self.k) * self.nl)
        nxt, tmp, mins = (np.empty(size, dtype=np.intp) for _ in range(3))
        return [nxt, tmp, mins, np.arange(size), np.empty(size, dtype=bool)]

    def face_counts(self, highs: np.ndarray, work: list[np.ndarray]) -> np.ndarray:
        """f(A) for every A with high part in ``highs``: shape [len(highs), 2**k]."""
        g, m, nl = highs.size, self.m, self.nl
        nxt, tmp, mins, index, leader = work
        # walk psi_A then tau through the high labels; low labels absorb it
        size = g * m
        walk = nxt[:size].reshape(g, m)
        walk[:, :nl] = self.low_ids
        on = highs[:, None] >> self.high_bit & 1
        walk[:, nl:] = np.where(on, self.tau_psi_high, self.tau_high)
        off = index[:g, None] * m
        walk += off
        np.copyto(mins[:size], index[:size])
        end = _jump(nxt[:size], mins[:size], tmp[:size], self.high_steps)
        np.equal(mins[:size], index[:size], out=leader[:size])
        closed = leader[:size].reshape(g, m)[:, nl:].sum(axis=1)
        t = end.reshape(g, m)[:, self.tau_low] - off
        # orbit counts of psi_A then T on the low labels, one row per subset
        rows = g << self.k
        size = rows * nl
        t.take(self.psi_low, axis=1, out=nxt[:size].reshape(g, 1 << self.k, nl),
               mode="clip")
        walk = nxt[:size].reshape(rows, nl)
        walk += index[:rows, None] * nl
        np.copyto(mins[:size], index[:size])
        _jump(nxt[:size], mins[:size], tmp[:size], self.low_steps)
        np.equal(mins[:size], index[:size], out=leader[:size])
        cycles = leader[:size].reshape(rows, nl).sum(axis=1)
        f = cycles.reshape(g, -1) + closed[:, None]
        return f // 2 if self.halve else f


def _enumerate_formula(piece: _Piece, workers: int) -> GenusPolynomial:
    """The polynomial of one piece by the formula engine's kernel.

    Each high assignment without the top high bit is paired with its
    complement; reversing the low axis of the second batch lines f(A^c) up
    with f(A).  Workers take steps of pairs from one shared iterator and
    merge by integer addition.
    """
    const = piece.const
    if piece.e == 0:  # the empty hypermap: one subset, no faces
        return GenusPolynomial({const: 1})
    kern = _ContractedKernel(piece)
    flip = (1 << (piece.e - kern.k)) - 1
    total = (flip + 1) // 2
    step = _STEP_LABELS // (2 * kern.m + (kern.nl << (kern.k + 1)))
    step = max(1, min(step, total))

    def run(starts) -> np.ndarray:
        acc = np.zeros(const + 1, dtype=np.int64)
        work = kern.work_arrays(2 * step)
        for start in starts:
            highs = np.arange(start, min(start + step, total))
            f = kern.face_counts(np.concatenate([highs, flip - highs]), work)
            eps = const - f[: highs.size] - f[highs.size:, ::-1]
            acc += np.bincount(eps.ravel(), minlength=const + 1)
        return acc

    counts = 2 * _run_shared(run, range(0, total, step), workers)
    return GenusPolynomial({k: int(v) for k, v in enumerate(counts) if v})


def _run_shared(fn, starts: range, workers: int) -> np.ndarray:
    """The sum of ``fn(it)`` over up to ``workers`` threads that share one
    iterator ``it`` of ``starts``.

    Each thread takes the next start when it finishes one, so a thread that
    the machine slows down takes fewer steps instead of holding up the rest.
    ``next`` on a range iterator is atomic under the GIL.
    """
    workers = max(1, min(workers, len(starts)))
    it = iter(starts)
    if workers == 1:
        return fn(it)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(fn, [it] * workers))


# -- the frontier engine: a transfer matrix over the hyperedges -----------------

_SLOT = 64  # bits per coefficient of a packed distribution; 2**e < 2**_SLOT


class _Frontier:
    """f(A) + f(A^c) for every A, one hyperedge at a time.

    Each hyperedge is a box whose labels are ports: ``psi_A`` takes a label to
    ``psi(x)`` inside the box when the hyperedge is in ``A`` and leaves it
    alone when not, and ``tau`` wires the boxes together.  After some boxes
    are placed, the cycles of ``psi_A then tau`` that stay inside them are
    closed and only counted; every other one is cut into paths that enter
    along a crossing wire and leave along another.  The state is where each
    entering path leaves, for ``A`` and for ``A^c`` at once; equal states are
    merged with their distributions of closed cycles added.  Swapping ``A``
    with ``A^c`` swaps the two halves of a state and keeps every count, so a
    state and its mirror are merged too.

    Boxes are placed greedily: next comes the one that leaves the fewest
    crossing wires, lowest index first on a tie.  The counting universe is
    the kernel's: one ``<tau, psi>`` orbit of an orientable map, otherwise
    every label with the sum halved.
    """

    def __init__(self, piece: _Piece):
        """Count on the piece's boxes, wired by its ``tau`` and ``psi``.  Each
        f(A) + f(A^c) is halved if ``piece.halve``, and the polynomial's
        exponents are ``piece.const`` minus it."""
        tau, iota, boxes, box_of = piece.tau, piece.iota, piece.boxes, piece.box_of
        self.tau, self.iota, self.psi = tau, iota, piece.psi
        self.halve, self.const = piece.halve, piece.const
        # the change in crossing wires if box i came next: its wires to other
        # boxes become crossing, those to placed boxes stop crossing
        delta = [0] * len(boxes)
        for i, box in enumerate(boxes):
            for x in box:
                if box_of[tau[x]] != i:
                    delta[i] += 1
                    delta[box_of[tau[x]]] += 1
        left = set(range(len(boxes)))
        self.boxes: list[list[int]] = []
        self.widths: list[int] = []  # paths entering after each box
        self.states: list[int] = []  # states entering each box, in the last run
        cross = 0
        while left:
            i = min(left, key=lambda j: (delta[j], j))
            left.remove(i)
            cross += delta[i]
            self.boxes.append(boxes[i])
            self.widths.append(cross // 2)  # as many paths leave as enter
            for x in boxes[i]:
                for y in (tau[x], iota[tau[iota[x]]]):
                    if box_of[y] in left:
                        delta[box_of[y]] -= 2

    def work(self) -> tuple[int, int]:
        """Ports summed over the steps, and a bound on the port visits of
        all states, both known before any work.

        A step walks every state over the box and the paths on both sides of
        it.  After ``t`` boxes there are at most ``2**(t-1)`` states (mirrors
        merged), and at most ``(w!)**2`` with ``w`` paths: one bijection for
        A and one for A^c.
        """
        ports = visits = width = 0
        states = 1
        for t, (box, w) in enumerate(zip(self.boxes, self.widths), 1):
            ports += len(box) + width + w
            visits += states * (len(box) + width + w)
            # from w = 20 on, (w!)**2 > 2**62 >= 2**(t-1): no need to go higher
            states = min(1 << (t - 1), math.factorial(min(w, 20)) ** 2)
            width = w
        return ports, visits

    def polynomial(self) -> GenusPolynomial:
        tau, iota, psi = self.tau, self.iota, self.psi
        ident = range(len(tau))
        placed = [False] * len(tau)
        keys: list[int] = []  # outside labels whose wire enters, one per path
        # closed-cycle sums packed in one int: slot s counts the subsets with
        # f(A) + f(A^c) = s before halving
        states: dict[tuple, int] = {((), ()): 1}
        self.states = []
        for box in self.boxes:
            self.states.append(len(states))
            inbox = set(box)
            index = {y: k for k, y in enumerate(keys)}
            feeds = {x: index[x] for x in box if x in index}  # wires into paths
            for x in box:
                placed[x] = True
            # a path enters along an old wire, or along a new one into the box
            starts = [(k, -1) for k, y in enumerate(keys) if y not in inbox]
            keys = [y for y in keys if y not in inbox]
            for x in box:
                y = iota[tau[iota[x]]]  # the label before x
                if not placed[y]:
                    starts.append((-1, x))
                    keys.append(y)
            memo: dict[tuple, tuple[tuple[int, ...], int]] = {}

            def walk(ends: tuple[int, ...], g) -> tuple[tuple[int, ...], int]:
                """Where each path now leaves, and the cycles the box closes."""
                got = memo.get((ends, g is psi))
                if got is not None:
                    return got
                seen = set()
                out = []
                for k, x in starts:
                    if k >= 0:
                        x = ends[k]
                    while x in inbox:
                        seen.add(x)
                        y = g[x]
                        k = feeds.get(y)
                        x = tau[y] if k is None else ends[k]
                    out.append(x)
                closed = 0
                for x in box:  # what no path reaches closes inside the box
                    if x not in seen:
                        closed += 1
                        while x not in seen:
                            seen.add(x)
                            y = g[x]
                            k = feeds.get(y)
                            x = tau[y] if k is None else ends[k]
                got = memo[ends, g is psi] = (tuple(out), closed)
                return got

            nxt: dict[tuple, int] = {}
            for (ea, ec), dist in states.items():
                for ga, gc in ((psi, ident), (ident, psi)):  # in A, or in A^c
                    na, ca = walk(ea, ga)
                    nc, cc = walk(ec, gc)
                    key = (na, nc) if na <= nc else (nc, na)
                    nxt[key] = nxt.get(key, 0) + (dist << _SLOT * (ca + cc))
            states = nxt
        (dist,) = states.values()
        const = self.const
        out = {}
        for s in range(dist.bit_length() // _SLOT + 1):
            if count := dist >> _SLOT * s & (1 << _SLOT) - 1:
                out[const - (s // 2 if self.halve else s)] = count
        return GenusPolynomial(out)


# -- choosing the engine of a block ---------------------------------------------

# Seconds per unit of each engine's cost model, fitted by tools/engine_costs.py
# (best-of-5 single-worker times of both engines on 110 blocks with e = 2..19,
# mean of two fits on a 2-core Intel Xeon).  The frontier's constants are
# fitted on the port visits its runs made and applied to the bound of
# _Frontier.work, so its estimate errs high: on a block where the bound is
# loose the kernel may be kept although the frontier would have been faster.
_KERNEL_S = (1.95e-4, 8.25e-9)  # fixed; per subset and universe label
_FRONTIER_S = (7.5e-6, 1.9e-6, 3.35e-7)  # fixed; per port; per port visit


@dataclass(frozen=True)
class _Plan:
    """One engine for one block: its cost in seconds, estimated before any
    work, and the enumeration itself (worker count -> polynomial)."""

    engine: str
    seconds: float
    run: Callable[[int], GenusPolynomial]


def _kernel_plan(piece: _Piece) -> _Plan:
    fixed, per = _KERNEL_S
    n = len(piece.labels)
    universe = n if piece.halve else n // 2  # one side of an orientable piece
    return _Plan("kernel", fixed + per * universe * 2.0**piece.e,
                 lambda workers: _enumerate_formula(piece, workers))


def _frontier_plan(piece: _Piece) -> _Plan:
    fr = _Frontier(piece)
    ports, visits = fr.work()
    fixed, per_port, per_visit = _FRONTIER_S
    return _Plan("frontier", fixed + per_port * ports + per_visit * visits,
                 lambda workers: fr.polynomial())


def _plan(piece: _Piece) -> _Plan:
    """The engine with the lower estimate for one join piece, the kernel on a
    tie.  A function of the piece alone: nothing is timed."""
    return min((_kernel_plan(piece), _frontier_plan(piece)), key=lambda p: p.seconds)


# -- join factoring -------------------------------------------------------------


def _incidence_blocks(h: Hypermap) -> tuple[list[int], int, list[int]]:
    """The block of every label, the number of blocks, and the separating
    vertices.

    The graph is the vertex-hyperedge incidence multigraph of a connected
    hypermap with one edge per label: node ``i < h.v`` is vertex ``i``, node
    ``h.v + j`` is hyperedge ``j``.  Tarjan's edge-stack algorithm runs on an
    explicit stack of (node, tree-edge label, unvisited incident labels), so
    deep maps cannot overflow the recursion limit.  A block is closed only at
    a vertex: the edges below a hyperedge node stay on the edge stack and
    leave with the block above it, so the biconnected blocks that meet at a
    hyperedge come out as one block.  A vertex separates when a block closes
    at it: one block for any vertex but the DFS root, vertex 0, and two for
    the root.
    """
    nv = h.v
    vertex_node = h._vertex_of
    edge_node = [nv + j for j in h._hyperedge_of]
    incident = h.vertex_sets + h.hyperedge_sets  # the labels at each node
    disc = [-1] * len(incident)
    low = [0] * len(incident)
    block = [-1] * h.n
    closed = [0] * nv  # blocks closed at each vertex
    count = 0
    edges: list[int] = []
    disc[0] = clock = 0
    stack = [(0, -1, iter(incident[0]))]
    while stack:
        u, up, rest = stack[-1]
        ends = edge_node if u < nv else vertex_node
        for x in rest:
            w = ends[x]
            if disc[w] == -1:
                edges.append(x)
                clock += 1
                disc[w] = low[w] = clock
                stack.append((w, x, iter(incident[w])))
                break
            if x != up and disc[w] < disc[u]:  # a back edge, seen from below
                edges.append(x)
                if disc[w] < low[u]:
                    low[u] = disc[w]
        else:
            stack.pop()
            if stack:
                p = stack[-1][0]
                if low[u] < low[p]:
                    low[p] = low[u]
                if p < nv and low[u] >= disc[p]:  # vertex p separates u's subtree
                    while True:
                        y = edges.pop()
                        block[y] = count
                        if y == up:
                            break
                    count += 1
                    closed[p] += 1
    return block, count, [i for i, k in enumerate(closed) if k > (i == 0)]


def _find(parent: list[int], a: int) -> int:
    while parent[a] != a:
        parent[a] = a = parent[parent[a]]
    return a


def _merge_crossings(parent: list[int], word: list[int]) -> None:
    """Merge the groups of a cyclic word of union-find roots by the
    components of the graph of groups that cross.  On the word cut open, a
    group seen again crosses each group opened after its own and not yet
    closed; those join its group."""
    end = {g: k for k, g in enumerate(word)}
    start = {g: k for k, g in reversed(list(enumerate(word)))}
    stack: list[int] = []
    for k, c in enumerate(word):
        if start[c] == k:
            stack.append(c)
        g = _find(parent, c)
        while stack[-1] != g:
            t = stack.pop()
            parent[t] = g
            end[g] = max(end[g], end[t])
        if end[g] == k:
            stack.pop()


def _join_blocks(h: Hypermap) -> list[_Piece]:
    """The pieces of a connected hypermap, split at its separating vertices.

    Blocks that meet at a hyperedge (a bar, not a join) come out of
    :func:`_incidence_blocks` as one, and at each separating vertex
    :func:`_merge_crossings` merges the blocks whose labels cross in its
    cycle.  Each merge joins blocks that share a node, so it never joins two
    blocks at another vertex (the block-cut tree has no cycle), and one pass
    per vertex, in any order, is enough.  The groups left at a vertex cross
    nowhere, so one of them holds a contiguous arc of its cycle, which is
    what :func:`~hypermaps.constructions.join` splices in: the map is a chain
    of joins of the pieces and its polynomial is their product.  Pieces come
    in order of least label, as label groups of ``h`` (:func:`_pieces`); the
    whole map is its only piece when nothing splits.
    """
    if h.n == 0:
        return [_whole(h)]
    block, count, cuts = _incidence_blocks(h)
    if not cuts:
        return [_whole(h)]
    parent = list(range(count))
    for i in cuts:  # any other vertex lies in one block
        _merge_crossings(parent, [_find(parent, block[x]) for x in h.vertex_cycle(i)])
    # pieces numbered densely in order of least label
    root = [_find(parent, b) for b in range(count)]
    ids: dict[int, int] = {}
    piece = [ids.setdefault(root[b], len(ids)) for b in block]
    if len(ids) == 1:
        return [_whole(h)]
    return _pieces(h, piece, len(ids), _restricted_tau(h, piece, cuts))


def _restricted_tau(h: Hypermap, piece: list[int], cuts: list[int]) -> list[int]:
    """``tau`` restricted to each label's own piece: the next label of that
    piece along its ``tau`` cycle.  Only the cycles of the separating
    vertices hold labels of more than one piece; each is rewritten in one
    backward pass over it twice, and every other image is ``tau``'s."""
    tau_in = list(h.tau.image)
    iota = h.iota.image
    for i in cuts:
        first = min(h.vertex_sets[i])
        for cyc in (h.tau.orbit_of(first), h.tau.orbit_of(iota[first])):
            ahead: dict[int, int] = {}
            for x in reversed(cyc + cyc):
                tau_in[x] = ahead.get(piece[x], x)
                ahead[piece[x]] = x
    return tau_in


def _pieces(h: Hypermap, piece: list[int], count: int,
            tau_in: list[int]) -> list[_Piece]:
    """The ``count`` pieces of ``h``, ``piece[x]`` being the piece of label
    ``x`` and ``tau_in`` the restricted ``tau``.

    One check over the whole map stands for validating every piece as a map
    of its own: the flag axioms hold for ``(tau_in, psi, iota)``, which
    makes ``tau_in`` a bijection, no ``tau_in`` cycle is its own mirror, each
    of the three keeps every label in its piece, and each piece is connected.
    One ``<tau_in, psi>`` side pass gives each piece's orientability and its
    counting side, the orbit of its least label, as :func:`_whole` would on
    the piece alone.  Each piece is connected, so its constant is
    ``2 - e + n/2``.
    """
    n = h.n
    psi, iota = h.psi.image, h.iota.image
    restricted = Permutation._of(tau_in)
    # the mirror axiom makes tau_in onto, so a bijection
    _axiom_check(restricted, h.psi, h.iota)
    cycle = [-1] * n  # the least label of each tau_in cycle
    for first in range(n):
        x = first
        while cycle[x] == -1:
            cycle[x] = first
            x = tau_in[x]
    side = _orbit_sides(restricted, h.psi)
    twisted = [False] * count
    orbits = [0] * count  # <tau_in, psi> orbits of each piece
    counted = [-1] * count  # the side counted on each piece
    seen = -1  # sides are numbered in order of least label
    for x, p in enumerate(piece):
        s, y = side[x], iota[x]
        if piece[tau_in[x]] != p or piece[psi[x]] != p or piece[y] != p:
            raise HypermapError(f"label {x} is wired out of its join piece")
        if cycle[y] == cycle[x]:
            raise SelfPairedOrbit(f"restricted vertex orbit of label {x} is its own mirror")
        if side[y] == s:
            twisted[p] = True
        if s > seen:
            seen = s
            orbits[p] += 1
            if counted[p] == -1:
                counted[p] = s
    if any(k != 2 - t for k, t in zip(orbits, twisted)):
        raise NotConnected("a join piece is not connected")
    # the hyperedges of each piece in order of least label, each a box of
    # the labels counted on it
    labels: list[list[int]] = [[] for _ in range(count)]
    boxes: list[list[list[int]]] = [[] for _ in range(count)]
    box_of = [0] * n
    index = [-1] * h.e  # of each hyperedge among its piece's
    for x, (p, j) in enumerate(zip(piece, h._hyperedge_of)):
        labels[p].append(x)
        i = index[j]
        if i == -1:
            i = index[j] = len(boxes[p])
            boxes[p].append([])
        box_of[x] = i
        if twisted[p] or side[x] == counted[p]:
            boxes[p][i].append(x)
    return [_Piece(labels[p], tau_in, iota, psi, boxes[p], box_of, twisted[p],
                   2 - len(boxes[p]) + len(labels[p]) // 2)
            for p in range(count)]


def _enumerate_direct(h: Hypermap) -> GenusPolynomial:
    two_c = 2 * h.component_count()
    out: dict[int, int] = {}
    for mask in subset_iter(h.e):
        eps = two_c - partial_dual(h, EdgeSubset(mask, h.e)).counts().chi
        out[eps] = out.get(eps, 0) + 1
    return GenusPolynomial(out)


@dataclass(frozen=True)
class EnumerationResult:
    """A full subset enumeration with its reporting metadata."""

    polynomial: GenusPolynomial
    gamma_polynomial: GenusPolynomial | None
    engine: str
    engines_agree: bool | None
    subsets: int
    elapsed_ms: float
    blocks: tuple[int, ...]  # hyperedge counts of the pieces enumerated
    block_engines: tuple[str, ...]  # the engine that enumerated each piece
    workers: int  # the worker count, after EngineConfig.workers' cap

    def as_dict(self) -> dict:
        out = {
            "polynomial": self.polynomial.as_json_dict(),
            **spectrum_report(self.polynomial).as_dict(),
            "engine": self.engine,
            "subsets": self.subsets,
            "blocks": list(self.blocks),
            "block_engines": list(self.block_engines),
            "workers": self.workers,
            "version": __version__,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        if self.engines_agree is not None:
            out["engines_agree"] = self.engines_agree
        if self.gamma_polynomial is not None:
            out["gamma_polynomial"] = self.gamma_polynomial.as_json_dict()
            out["gamma_spectrum"] = list(spectrum_report(self.gamma_polynomial).spectrum)
        return out


def _enumerate(h: Hypermap, cfg: EngineConfig
               ) -> tuple[GenusPolynomial, bool | None, tuple[int, ...], tuple[str, ...]]:
    """The polynomial by the configured engine, whether the engines agree
    (``None`` unless both ran), and the hyperedge count and engine of each
    piece enumerated.  ``both`` raises when they disagree.

    The formula engine enumerates each join piece (:func:`_join_blocks`) by
    the engine :func:`_plan` picks for it and multiplies, so ``edge_cap``
    bounds each piece; ``direct`` and the direct half of ``both`` enumerate,
    and so are capped by, the whole map.  Each plan is logged at debug level
    to the ``hypermaps.genuspoly`` logger.
    """
    if not h.is_connected():
        raise NotConnected("genus polynomials are defined for connected hypermaps")
    pieces = None if cfg.engine == "direct" else _join_blocks(h)
    blocks = (h.e,) if pieces is None else tuple(piece.e for piece in pieces)
    largest = max(blocks) if cfg.engine == "formula" else h.e
    if largest > cfg.edge_cap:
        raise EdgeCapExceeded(f"{largest} hyperedges exceeds the configured cap of {cfg.edge_cap}")
    if pieces is None:
        return _enumerate_direct(h), None, blocks, ("direct",)
    plans = [_plan(piece) for piece in pieces]
    workers = cfg.workers()
    poly = GenusPolynomial({0: 1})
    for e, plan in zip(blocks, plans):
        _log.debug("piece of %d hyperedges: %s engine, %.3g s estimated",
                   e, plan.engine, plan.seconds)
        poly = poly.mul(plan.run(workers))
    engines = tuple(plan.engine for plan in plans)
    if cfg.engine == "formula":
        return poly, None, blocks, engines
    direct = _enumerate_direct(h)
    if direct != poly:
        raise HypermapError(f"engine disagreement: direct {direct} vs formula {poly}")
    return poly, True, blocks, engines


def euler_genus_polynomial(h: Hypermap, cfg: EngineConfig | None = None) -> GenusPolynomial:
    """The partial-dual Euler-genus polynomial: sum of z^eps(H^A) over all A."""
    return _enumerate(h, cfg or EngineConfig())[0]


def orientable_genus_polynomial(h: Hypermap, cfg: EngineConfig | None = None) -> GenusPolynomial:
    """The partial-dual orientable-genus polynomial (exponents are eps/2)."""
    if not h.is_orientable():
        raise NotOrientable("orientable-genus polynomial of a non-orientable hypermap")
    return euler_genus_polynomial(h, cfg).halve_exponents()


def enumerate_partial_duals(h: Hypermap, cfg: EngineConfig | None = None) -> EnumerationResult:
    """Run a full enumeration and package polynomial, spectrum and metadata."""
    cfg = cfg or EngineConfig()
    t0 = time.perf_counter()
    poly, engines_agree, blocks, engines = _enumerate(h, cfg)
    gamma = poly.halve_exponents() if h.counts().orientable else None
    elapsed = (time.perf_counter() - t0) * 1000.0
    return EnumerationResult(
        polynomial=poly,
        gamma_polynomial=gamma,
        engine=cfg.engine,
        engines_agree=engines_agree,
        subsets=1 << h.e,
        elapsed_ms=elapsed,
        blocks=blocks,
        block_engines=engines,
        workers=cfg.workers(),
    )
