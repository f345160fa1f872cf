"""Command-line front end.

Verbs map one-to-one onto library operations; JSON is the machine format and
the human output is a thin layer over the same data.  Exit codes: 0 success,
1 domain error (machine-readable JSON on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .constructions import (
    AmalgamationPicks,
    add_pendant_vertex,
    bar_amalgamation,
    join,
    parse_corner,
    subdivide3,
)
from .duality import EdgeSubset, dual, partial_dual
from .errors import HypermapError, MissingLabel
from .genuspoly import EngineConfig, enumerate_partial_duals, spectrum_report
from .generators import (
    cycle_hypertree,
    example,
    ladder,
    ladder_tree,
    random_hypertree,
    star,
)
from .hmf import read_hmf, write_hmf
from .model import Hypermap
from .verify import verify_bundled, verify_hypermap

__all__ = ["main", "run"]


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load(path: str) -> Hypermap:
    return read_hmf(_read_input(path))


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _thread_count(text: str) -> int:
    """The value of ``--threads``: a whole number, at least 1."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a whole number: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _engine_config(args) -> EngineConfig:
    return EngineConfig(engine=args.engine, worker_count=args.threads,
                        edge_cap=args.edge_cap)


def _cmd_info(args) -> int:
    h = _load(args.input)
    cb = h.counts()
    data = {
        "vertices": [list(map(h.external, sorted(s))) for s in h.vertex_sets],
        "hyperedges": h.hyperedge_names,
        "tau": h.format_tau(),
        "psi": h.format_psi(),
        "iota": h.format_iota(),
        **cb.as_dict(),
    }
    if cb.orientable:
        data["gamma"] = h.orientable_genus()
    if args.json:
        print(json.dumps(data, indent=2))
    else:
        print(f"labels   {h.n}")
        print(f"vertices {cb.v}   hyperedges {cb.e}   faces {cb.f}   incidences {cb.sum_n}")
        line = f"chi {cb.chi}   eps {cb.eps}   components {cb.c}   orientable {cb.orientable}"
        if cb.orientable:
            line += f"   genus {data['gamma']}"
        print(line)
        print(f"tau  {data['tau']}")
        print(f"psi  {data['psi']}")
    return 0


def _cmd_dual(args) -> int:
    _emit(write_hmf(dual(_load(args.input))), args.output)
    return 0


def _cmd_pdual(args) -> int:
    h = _load(args.input)
    _emit(write_hmf(partial_dual(h, EdgeSubset.parse(h, args.subset))), args.output)
    return 0


def _cmd_poly(args) -> int:
    h = _load(args.input)
    result = enumerate_partial_duals(h, _engine_config(args))
    print(json.dumps(result.as_dict(), indent=2))
    return 0


def _cmd_spectrum(args) -> int:
    h = _load(args.input)
    result = enumerate_partial_duals(h, _engine_config(args))
    rep = spectrum_report(result.polynomial)
    data = rep.as_dict()
    if result.gamma_polynomial is not None:
        data["gamma_spectrum"] = list(spectrum_report(result.gamma_polynomial).spectrum)
    print(json.dumps(data, indent=2))
    return 0


_FAMILIES = {
    "plane_example": lambda n, seed: example("plane_example"),
    "torus_example": lambda n, seed: example("torus_example"),
    "fig7": lambda n, seed: example("fig7"),
    "ladder": lambda n, seed: ladder(n),
    "ladder_tree": lambda n, seed: ladder_tree(n),
    "cycle_hypertree": lambda n, seed: cycle_hypertree(n),
    "star": lambda n, seed: star(n),
    "random_hypertree": lambda n, seed: random_hypertree(n, seed),
}


def _cmd_gen(args) -> int:
    if args.family not in _FAMILIES:
        raise HypermapError(
            f"unknown family {args.family!r}; choose from {sorted(_FAMILIES)}"
        )
    h = _FAMILIES[args.family](args.n, args.seed)
    _emit(write_hmf(h), args.output)
    return 0


def _cmd_join(args) -> int:
    h1, h2 = _load(args.first), _load(args.second)
    _emit(write_hmf(join(h1, parse_corner(h1, args.at),
                         h2, parse_corner(h2, args.at2))), args.output)
    return 0


def _parse_picks(h: Hypermap, text: str, edge_name: str | None) -> AmalgamationPicks:
    corners = tuple(parse_corner(h, item) for item in text.split(","))
    edge = h.hyperedge_index(edge_name) if edge_name else None
    picks = AmalgamationPicks(corners, edge)
    picks.validate(h)
    return picks


def _cmd_amalgamate(args) -> int:
    h1, h2 = _load(args.first), _load(args.second)
    p1 = _parse_picks(h1, args.at, args.edge1)
    p2 = _parse_picks(h2, args.at2, args.edge2)
    _emit(write_hmf(bar_amalgamation(h1, p1, h2, p2)), args.output)
    return 0


def _cmd_subdivide(args) -> int:
    h = _load(args.input)
    _emit(write_hmf(subdivide3(h, h.hyperedge_index(args.edge))), args.output)
    return 0


def _cmd_pendant(args) -> int:
    h = _load(args.input)
    try:
        at = int(args.at)
    except ValueError:
        raise MissingLabel(f"label {args.at!r} is not an integer") from None
    _emit(write_hmf(add_pendant_vertex(h, h.hyperedge_index(args.edge),
                                       h.internal(at))), args.output)
    return 0


def _cmd_check(args) -> int:
    if args.paths:
        results = []
        for path in args.paths:
            h = _load(path)
            rep = verify_hypermap(h, subset_cap=args.subset_cap)
            results.append({"input": path, **rep})
        report = {"ok": all(r["ok"] for r in results), "results": results}
    else:
        report = verify_bundled(subset_cap=args.subset_cap)
    print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``hm`` argument parser, built once per process: parsing reads it
    and leaves it as it was."""
    top = argparse.ArgumentParser(
        prog="hm",
        description="Hypermaps: partial duality and genus polynomial tooling",
    )
    sub = top.add_subparsers(dest="verb", required=True)

    def add_io(p, output=True):
        p.add_argument("input", help="HMF file, or - for stdin")
        if output:
            p.add_argument("-o", "--output", default=None,
                           help="HMF output path, or - for stdout")

    p = sub.add_parser("info", help="counts and permutations of a hypermap")
    add_io(p, output=False)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("dual", help="geometric dual")
    add_io(p)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("pdual", help="partial dual with respect to a subset")
    add_io(p)
    p.add_argument("-A", "--subset", required=True,
                   help="comma-separated hyperedge names or 0b... bitmask")
    p.set_defaults(func=_cmd_pdual)

    for verb, fn in (("poly", _cmd_poly), ("spectrum", _cmd_spectrum)):
        p = sub.add_parser(verb, help=f"{verb} of the partial-dual enumeration")
        add_io(p, output=False)
        p.add_argument("--engine", default="formula",
                       choices=("direct", "formula", "both"))
        p.add_argument("--threads", type=_thread_count, default=None,
                       help="kernel worker threads (default HM_THREADS, else 1), "
                            "at most the CPUs this process may use")
        p.add_argument("--edge-cap", type=int, default=30, dest="edge_cap",
                       help="most hyperedges enumerated at once (1-62): per join block "
                            "under formula, the whole map under direct and both")
        p.set_defaults(func=fn)

    p = sub.add_parser("gen", help="generate a bundled example or family member")
    p.add_argument("family")
    p.add_argument("n", nargs="?", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("join", help="join two hypermaps at picked corners")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--at", required=True, help="corner of the first, name@label")
    p.add_argument("--at2", required=True, help="corner of the second, name@label")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_join)

    p = sub.add_parser("amalgamate", help="bar-amalgamation through picked corners")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--at", required=True, help="picks on the first: v1@x,v2@y")
    p.add_argument("--at2", required=True, help="picks on the second")
    p.add_argument("--edge1", default=None, help="hyperedge the first picks must touch")
    p.add_argument("--edge2", default=None, help="hyperedge the second picks must touch")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_amalgamate)

    p = sub.add_parser("subdivide", help="subdivide a 3-incidence hyperedge")
    add_io(p)
    p.add_argument("-e", "--edge", required=True, help="hyperedge name")
    p.set_defaults(func=_cmd_subdivide)

    p = sub.add_parser("pendant", help="attach a degree-1 vertex to a hyperedge")
    add_io(p)
    p.add_argument("-e", "--edge", required=True, help="hyperedge name")
    p.add_argument("--at", required=True, help="external label before which to insert")
    p.set_defaults(func=_cmd_pendant)

    p = sub.add_parser("check", help="run the verification suite")
    p.add_argument("paths", nargs="*", help="HMF files; bundled suite when empty")
    p.add_argument("--subset-cap", type=int, default=12, dest="subset_cap")
    p.set_defaults(func=_cmd_check)

    return top


def run(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except HypermapError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload), file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as exc:
        print(json.dumps({"error": "io", "message": str(exc)}), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
