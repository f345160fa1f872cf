"""Time ``verify_hypermap`` per subset, the constant that costs ``hm check``.

    PYTHONPATH=src python tools/check_costs.py [--reps 3] [--sizes 4,5,6,7,8,9,10]

Prints one JSON object of best-of-``--reps`` seconds per subset (wall time
of one ``verify_hypermap`` call divided by its 2^e subsets):

* ``ladder_s``: on ``ladder(e)``, orientable;
* ``twisted_chain_s``: on a chain of twisted digons and ``ladder(2)``s
  joined at seeded corners, ``e`` hyperedges, non-orientable.

A map with e <= 6 takes the table path (every partial dual kept, the
all-pairs entry run, and the invariance entry up to e = 5); a larger one
takes the streaming path, so the default sizes cover both.  The all-pairs
entry makes the per-subset cost grow with 2^e on the table path.  On a
2-core Intel Xeon (Python 3.11, best of 5, ``BENCH_20.json``) a subset
costs 0.19-0.33 ms on the table path and 0.11-0.19 ms on the streaming
path, for e = 4..10.  With ``--sizes 4,5,7 --reps 1``, which reaches the
invariance entry at its cap and the streaming path, it takes well under a
second; it checks nothing but that every check passes.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import time

import hypermaps as hm
from hypermaps.walsh import BipartiteEdge, BipartiteMapSpec, BipartiteVertex


def twisted_digon() -> hm.Hypermap:
    """One vertex, one hyperedge, on the projective plane."""
    spec = BipartiteMapSpec(
        (BipartiteVertex("a", "V", ("b0", "b1")),
         BipartiteVertex("w", "E", ("b0", "b1"))),
        (BipartiteEdge("b0", 1, "V"), BipartiteEdge("b1", -1, "V")),
    )
    return hm.walsh_build(spec)[1]


def twisted_chain(e: int, seed: int = 0) -> hm.Hypermap:
    """Twisted digons and ``ladder(2)``s, alternating, joined left to right at
    seeded corners until ``e`` hyperedges."""
    rng = random.Random(seed)
    h = twisted_digon()
    while h.e < e:
        piece = hm.ladder(2) if h.e % 2 and h.e + 2 <= e else twisted_digon()
        x, y = rng.randrange(h.n), rng.randrange(piece.n)
        h = hm.join(h, hm.CornerRef(h.vertex_of(x), x),
                    piece, hm.CornerRef(piece.vertex_of(y), y))
    return h


def per_subset(reps: int, h: hm.Hypermap) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        report = hm.verify_hypermap(h)
        best = min(best, time.perf_counter() - start)
        if not report["ok"]:
            raise SystemExit(f"verify_hypermap failed on a map with e = {h.e}")
    return round(best / 2**h.e, 9)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--sizes", default="4,5,6,7,8,9,10",
                    help="hyperedge counts of the maps checked")
    args = ap.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]
    report = {
        "python": platform.python_version(),
        "reps": args.reps,
        "ladder_s": {str(e): per_subset(args.reps, hm.ladder(e)) for e in sizes},
        "twisted_chain_s": {str(e): per_subset(args.reps, twisted_chain(e))
                            for e in sizes},
    }
    print(json.dumps(report))


if __name__ == "__main__":
    main()
