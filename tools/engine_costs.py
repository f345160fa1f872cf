"""Fit the cost constants that pick the engine of each join block.

    PYTHONPATH=src python tools/engine_costs.py [--reps 5]

Times the kernel (one worker) and the frontier engine, best of ``--reps``, on
ladders, one-cycle hypertrees, twisted random maps and random dense blocks
with e = 2..19, then fits by least squares on relative error:

* kernel:   fixed + per * universe labels * 2**e
* frontier: fixed + per_port * ports + per_visit * port visits

The frontier is fitted on the port visits its run really made, and
``genuspoly`` applies the constants to the bound it computes before any work,
so the frontier's estimate errs high: it is picked where it is expected to win
even if every state its bound allows appears.  Prints
the constants for ``genuspoly._KERNEL_S`` and ``_FRONTIER_S`` and each block
where the estimates pick the slower engine.  Both engines count each block in
place, and the run stops with a non-zero exit, naming the block, where their
polynomials differ.  Takes under a minute.
"""

from __future__ import annotations

import argparse
import random
import time

import numpy as np

import hypermaps as hm
from hypermaps import genuspoly as gp
from hypermaps.walsh import BipartiteEdge, BipartiteMapSpec, BipartiteVertex


def dense(seed: int, nv: int, ne: int, extra: int) -> hm.Hypermap:
    """A random connected twisted bipartite map: every hyperedge on a vertex,
    every vertex on a hyperedge, ``extra`` more edges, shuffled rotations."""
    rng = random.Random(seed)
    vs, es = [f"v{i}" for i in range(nv)], [f"w{i}" for i in range(ne)]
    rot: dict[str, list[str]] = {x: [] for x in vs + es}
    pairs = [(vs[i % nv], w) for i, w in enumerate(es)]
    pairs += [(v, rng.choice(es)) for v in vs[ne:]]
    pairs += [(rng.choice(vs), rng.choice(es)) for _ in range(extra)]
    for k, (v, w) in enumerate(pairs):
        rot[v].append(f"b{k}")
        rot[w].append(f"b{k}")
    for r in rot.values():
        rng.shuffle(r)
    spec = BipartiteMapSpec(
        tuple(BipartiteVertex(x, "V" if x in vs else "E", tuple(rot[x])) for x in rot),
        tuple(BipartiteEdge(f"b{k}", rng.choice((1, -1)), rng.choice("VE"))
              for k in range(len(pairs))))
    return hm.walsh_build(spec)[1]


def corpus() -> list[tuple[str, gp._Piece]]:
    """The blocks timed, each a join piece as ``genuspoly`` plans it."""
    rng = random.Random(0)
    out = []
    for n in range(2, 21, 2):
        h = hm.ladder(n)
        new_of_old = list(range(h.n))
        rng.shuffle(new_of_old)
        out.append((f"ladder({n})", gp._whole(h.relabel(new_of_old))))
    out += [(f"cycle_hypertree({n})", gp._whole(hm.cycle_hypertree(n)))
            for n in range(3, 19)]
    for seed in range(90):
        if seed < 60:
            ne = 3 + seed % 17
            h = dense(seed, 2 + seed % 3 + ne // 4 * (seed % 2), ne, ne + seed % 7)
        else:  # few vertices, many edges: wide blocks that do not split
            ne = 12 + seed % 8
            h = dense(seed, 2 + seed % 2, ne, 2 * ne)
        if h.is_connected():
            out += [(f"dense({seed})", b) for b in gp._join_blocks(h) if b.e >= 3]
    return out


def best(fn, reps: int):
    """The least time of ``reps`` calls of ``fn``, and what the last returned."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return min(times), out


def fit(rows: np.ndarray, times: np.ndarray) -> np.ndarray:
    return np.linalg.lstsq(rows / times[:, None], np.ones_like(times), rcond=None)[0]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args()
    names, kern, front, tk, tf, bound = [], [], [], [], [], []
    for name, piece in corpus():
        fr = gp._Frontier(piece)
        ports, visits = fr.work()
        if visits > 5e6:  # too slow to time; the kernel wins there anyway
            continue
        t_kernel, by_kernel = best(lambda: gp._enumerate_formula(piece, 1), args.reps)
        t_frontier, by_frontier = best(fr.polynomial, args.reps)
        if by_kernel != by_frontier:
            raise SystemExit(f"{name}, e = {piece.e}: the kernel counts {by_kernel}, "
                             f"the frontier {by_frontier}")
        tk.append(t_kernel)
        tf.append(t_frontier)
        width = made = 0
        for box, w, s in zip(fr.boxes, fr.widths, fr.states):
            made += s * (len(box) + width + w)
            width = w
        universe = sum(len(box) for box in fr.boxes)
        names.append(name)
        kern.append([1.0, universe * 2.0**piece.e])
        front.append([1.0, ports, made])
        bound.append([1.0, ports, visits])
    ck = fit(np.array(kern), np.array(tk))
    cf = fit(np.array(front), np.array(tf))
    print(f"_KERNEL_S = ({ck[0]:.2g}, {ck[1]:.2g})")
    print(f"_FRONTIER_S = ({cf[0]:.2g}, {cf[1]:.2g}, {cf[2]:.2g})")
    est_k, est_f = np.array(kern) @ ck, np.array(bound) @ cf
    for name, k, f, ek, ef in zip(names, tk, tf, est_k, est_f):
        picked, other = (f, k) if ef < ek else (k, f)
        if picked > other:
            print(f"{name}: picked {'frontier' if ef < ek else 'kernel'}, "
                  f"{picked * 1e3:.3f} ms against {other * 1e3:.3f} ms")
    print(f"{len(names)} blocks")


if __name__ == "__main__":
    main()
