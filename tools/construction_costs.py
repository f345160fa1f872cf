"""Time the constructions: chained joins, and one of each on a large tree.

    PYTHONPATH=src python tools/construction_costs.py [--reps 5]
        [--sizes 100,300,600,1200]

Prints one JSON object of best-of-``--reps`` wall times in seconds:

* ``random_hypertree_s``: ``random_hypertree(e, 0)`` for each ``e`` of
  ``--sizes``, a chain of ``e - 1`` joins;
* ``join_s``, ``subdivide3_s``, ``add_pendant_vertex_s``: one construction
  on a tree of 300 stars with 2, 3 and 4 incidences (100 of each) joined at
  seeded corners, 1,800 labels, the shape of the ``transform_cli``
  benchmark input.  The join adds ``cycle_hypertree(8)``.  The tree's counts
  are computed before the timing starts, as a caller that has read them
  already would have.

With ``--sizes 100 --reps 1`` it takes about a second; it checks nothing but
that every construction runs.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import time

import hypermaps as hm


def best_of(reps: int, fn) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return round(best, 6)


def star_tree(stars: int = 300, seed: int = 0) -> hm.Hypermap:
    """``stars`` stars of 2, 3 and 4 incidences in seeded order, each joined
    at a seeded corner of the tree so far and of the star."""
    rng = random.Random(seed)
    sizes = [2 + i % 3 for i in range(stars)]
    rng.shuffle(sizes)
    h = hm.star(sizes[0])
    for k in sizes[1:]:
        piece = hm.star(k)
        x, y = rng.randrange(h.n), rng.randrange(piece.n)
        h = hm.join(h, hm.CornerRef(h.vertex_of(x), x),
                    piece, hm.CornerRef(piece.vertex_of(y), y))
    return h


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--sizes", default="100,300,600,1200",
                    help="hyperedge counts of the random hypertrees")
    args = ap.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]
    tree = star_tree()
    tree.counts()
    partner = hm.cycle_hypertree(8)
    rng = random.Random(1)
    x = rng.randrange(tree.n)
    corner = hm.CornerRef(tree.vertex_of(x), x)
    three = next(i for i in range(tree.e) if tree.incidences(i) == 3)
    edge = rng.randrange(tree.e)
    position = min(tree.hyperedge_sets[edge])
    report = {
        "python": platform.python_version(),
        "reps": args.reps,
        "random_hypertree_s": {
            str(e): best_of(args.reps, lambda e=e: hm.random_hypertree(e, 0))
            for e in sizes
        },
        "tree_labels": tree.n,
        "join_s": best_of(args.reps, lambda: hm.join(
            tree, corner, partner, hm.CornerRef(0, min(partner.vertex_sets[0])))),
        "subdivide3_s": best_of(args.reps, lambda: hm.subdivide3(tree, three)),
        "add_pendant_vertex_s": best_of(
            args.reps, lambda: hm.add_pendant_vertex(tree, edge, position)),
    }
    print(json.dumps(report))


if __name__ == "__main__":
    main()
