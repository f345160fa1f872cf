"""The benchmark's workloads: seeded inputs, one cycle of ops, and an oracle
for every op.

Each workload function takes the seed and returns a :class:`Workload`.  The seed picks
labels, corners, masks and the order of ops, never the sizes or the mix of
op kinds, so every seed costs about the same and the spread between seeds is
the spread of the program, not of the inputs.

Everything is reached through the public ``hypermaps`` names at call time,
so the tracer's wrappers see the calls and the private kernel helpers can be
rewritten without touching the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import hypermaps as hm
from hypermaps import cli

TWISTED_DIGON_BMF = """\
bmf 1
bvertex V a (b0 b1)
bvertex E w (b0 b1)
edge b0 + V
edge b1 - V
"""


@dataclass
class Op:
    """One request: ``run`` is timed, ``check`` judges its result untimed."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    well_formed: bool = True


@dataclass
class Workload:
    ops: list[Op]               # one cycle; runs replay whole cycles
    workers: int                # enumeration worker threads the ops use
    trace_cycles: int           # fixed cycle count of each traced-run phase
    enum_input: hm.Hypermap | None = None  # input of genuspoly.scaling_eff


def twisted_digon() -> hm.Hypermap:
    """One vertex, one hyperedge, projective plane (non-orientable, e=1)."""
    return hm.walsh_build(hm.parse_bmf(TWISTED_DIGON_BMF))[1]


def _corner(h: hm.Hypermap, rng: random.Random) -> hm.CornerRef:
    x = rng.randrange(h.n)
    return hm.CornerRef(h.vertex_of(x), x)


def join_chain(parts: list[hm.Hypermap], rng: random.Random) -> hm.Hypermap:
    """Join the parts left to right at seeded corners."""
    h = parts[0]
    for piece in parts[1:]:
        h = hm.join(h, _corner(h, rng), piece, _corner(piece, rng))
    return h


def _piece(family: str, k: int) -> hm.Hypermap:
    return twisted_digon() if family == "digon" else getattr(hm, family)(k)


# -- poly_ladder ----------------------------------------------------------------


def poly_ladder(seed: int, nproc: int, scratch: Path, n: int = 20,
                oracle: hm.GenusPolynomial | None = None) -> Workload:
    """One single-worker enumeration of a relabelled ladder(n) per op."""
    rng = random.Random(seed)
    base = hm.ladder(n)
    new_of_old = list(range(base.n))
    rng.shuffle(new_of_old)
    h = base.relabel(new_of_old)
    want = hm.closed_form("ladder", n) if oracle is None else oracle
    cfg = hm.EngineConfig(worker_count=1)
    op = Op("enumerate", lambda: hm.enumerate_partial_duals(h, cfg),
            lambda r: r.polynomial == want)
    return Workload([op], workers=1, trace_cycles=1, enum_input=h)


# -- poly_join ------------------------------------------------------------------


def poly_join(seed: int, nproc: int, scratch: Path,
              factors: list[tuple[str, int]] | None = None,
              oracle: hm.GenusPolynomial | None = None) -> Workload:
    """One nproc-worker enumeration of a join chain (e=20, non-orientable).

    The oracle is the join theorem: the product of the factors' polynomials,
    from the closed forms and, for the digon, the direct engine.
    """
    rng = random.Random(seed)
    factors = factors or [("ladder", 7), ("cycle_hypertree", 6), ("digon", 1),
                          ("ladder", 6)]
    parts, want = [], hm.GenusPolynomial({0: 1})
    for family, k in factors:
        parts.append(_piece(family, k))
        want = want.mul(
            hm.euler_genus_polynomial(parts[-1], hm.EngineConfig(engine="direct",
                                                                 worker_count=1))
            if family == "digon" else hm.closed_form(family, k))
    h = join_chain(parts, rng)
    want = want if oracle is None else oracle
    cfg = hm.EngineConfig(worker_count=nproc)
    op = Op("enumerate", lambda: hm.enumerate_partial_duals(h, cfg),
            lambda r: r.polynomial == want)
    return Workload([op], workers=nproc, trace_cycles=2, enum_input=h)


# -- check_suite ----------------------------------------------------------------

# Join chains with e <= 5: at e=6 the all-pairs check alone takes seconds.
# Each chain also enters the pool as one partial dual at a seeded mask.
CHECK_POOL = (
    (("ladder", 2), ("star", 3)),                        # e=3, orientable
    (("ladder", 3), ("digon", 1)),                       # e=4
    (("cycle_hypertree", 3), ("star", 2)),               # e=4, orientable
    (("star", 2), ("digon", 1), ("ladder", 2)),          # e=4
    (("cycle_hypertree", 4),),                           # e=4, orientable
    (("star", 3), ("star", 2), ("digon", 1), ("digon", 1)),  # e=4
    (("cycle_hypertree", 3), ("digon", 1), ("star", 2)),     # e=5
    (("ladder", 2), ("ladder", 2), ("digon", 1)),        # e=5
)


def _mandatory_ok(report: dict) -> bool:
    return report["ok"] and all(c["ok"] for c in report["checks"] if c["mandatory"])


def check_suite(seed: int, nproc: int, scratch: Path,
                pool: tuple = CHECK_POOL) -> Workload:
    """``verify_bundled()`` plus ``verify_hypermap`` on a seeded pool."""
    rng = random.Random(seed)
    ops = [Op("verify_bundled", hm.verify_bundled, _mandatory_ok)]
    for spec in pool:
        h = join_chain([_piece(f, k) for f, k in spec], rng)
        hd = hm.partial_dual(h, rng.randrange(1, 1 << h.e))
        for tag, m in (("", h), ("^A", hd)):
            ops.append(Op(f"verify e={m.e}{tag}",
                          lambda m=m: hm.verify_hypermap(m), _mandatory_ok))
    rng.shuffle(ops)
    return Workload(ops, workers=1, trace_cycles=2)


# -- transform_cli --------------------------------------------------------------


def call_cli(argv: list[str], stdin_text: str) -> tuple[int, str, str]:
    """``hypermaps.cli.run`` in process, with stdin/stdout/stderr in memory."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _without_iota(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("iota"))


def _json_error(result) -> bool:
    """The documented outcome of a bad request: exit 1, JSON error on stderr."""
    code, _out, err = result
    if code != 1 or not err.strip():
        return False
    try:
        return "error" in json.loads(err.strip().splitlines()[-1])
    except ValueError:
        return False


def _succeeded(check: Callable[[str], bool]) -> Callable[[Any], bool]:
    return lambda result: result[0] == 0 and check(result[1])


def _eps_is(expected: int) -> Callable[[str], bool]:
    return lambda out: hm.read_hmf(out).counts().eps == expected


def _undoes(mask: int, ref: hm.Hypermap) -> Callable[[str], bool]:
    """The partial dual at ``mask`` of the output is the input again."""
    return lambda out: hm.partial_dual(hm.read_hmf(out), mask) == ref


def _corner_text(h: hm.Hypermap, x: int) -> str:
    return f"{h.vertex_names[h.vertex_of(x)]}@{h.external(x)}"


# (verb, input) for the 19 well-formed requests of every block of 20; the
# twentieth is malformed.  Subdivision needs a 3-incidence hyperedge, which
# only the hypertree has.
CLI_BLOCK = (
    ("info", "tree"), ("info", "tree_bare"), ("info", "ladder_bare"),
    ("pdual", "tree"), ("pdual", "tree_bare"), ("pdual", "ladder"),
    ("pdual", "ladder_bare"),
    ("dual", "tree_bare"), ("dual", "ladder"), ("dual", "ladder_bare"),
    ("join", "tree"), ("join", "ladder"), ("join", "tree_bare"),
    ("subdivide", "tree"), ("subdivide", "tree_bare"), ("subdivide", "tree"),
    ("pendant", "ladder"), ("pendant", "tree_bare"), ("pendant", "ladder_bare"),
)
MALFORMED_KINDS = ("unknown_edge", "non_integer_label", "bare_iota")


def transform_cli(seed: int, nproc: int, scratch: Path,
                  tree_edges: int = 300, ladder_rungs: int = 150) -> Workload:
    """HMF verbs through ``cli.run`` on inputs of 1,192 and 1,800 labels.

    The ``*_bare`` inputs have no ``iota`` line, so reading them solves for
    it.  HMF goes through in-memory stdin/stdout; the only file is the join
    partner written here at set-up.
    """
    rng = random.Random(seed)
    # A random hypertree grown from stars as random_hypertree does, but with a
    # fixed multiset of star sizes, so every seed gives the same label count.
    sizes = [2 + i % 3 for i in range(tree_edges)]
    rng.shuffle(sizes)
    maps = {"tree": join_chain([hm.star(k) for k in sizes], rng),
            "ladder": hm.ladder(ladder_rungs)}
    texts: dict[str, str] = {}
    for key, h in maps.items():
        texts[key] = hm.write_hmf(h)
        texts[f"{key}_bare"] = _without_iota(texts[key])
    refs = {key: hm.read_hmf(text) for key, text in texts.items()}
    partner = hm.cycle_hypertree(8)
    partner_path = scratch / "partner.hmf"
    partner_path.write_text(hm.write_hmf(partner), encoding="utf-8")
    partner_eps = partner.counts().eps

    def request(verb: str, key: str) -> Op:
        ref, text = refs[key], texts[key]
        cb = ref.counts()
        if verb == "info":
            def check(out: str) -> bool:
                data = json.loads(out)
                return (all(data[k] == v for k, v in cb.as_dict().items())
                        and len(data["vertices"]) == ref.v
                        and len(data["hyperedges"]) == ref.e)
            argv = ["info", "--json", "-"]
        elif verb in ("pdual", "dual"):
            mask = rng.randrange(1, 1 << ref.e) if verb == "pdual" else (1 << ref.e) - 1
            argv = (["pdual", "-", "-A", bin(mask)] if verb == "pdual"
                    else ["dual", "-"])
            check = _undoes(mask, ref)
        elif verb == "join":
            x, y = rng.randrange(ref.n), rng.randrange(partner.n)
            argv = ["join", "-", str(partner_path),
                    "--at", _corner_text(ref, x), "--at2", _corner_text(partner, y)]
            check = _eps_is(cb.eps + partner_eps)
        elif verb == "subdivide":
            edge = rng.choice([i for i in range(ref.e) if ref.incidences(i) == 3])
            argv = ["subdivide", "-", "-e", ref.hyperedge_names[edge]]
            check = _eps_is(cb.eps)
        else:  # pendant
            edge = rng.randrange(ref.e)
            at = ref.external(rng.choice(sorted(ref.hyperedge_sets[edge])))
            argv = ["pendant", "-", "-e", ref.hyperedge_names[edge], "--at", str(at)]
            check = _eps_is(cb.eps)
        return Op(verb, lambda: call_cli(argv, text), _succeeded(check))

    def malformed(kind: str, key: str) -> Op:
        ref, text = refs[key], texts[key]
        if kind == "unknown_edge":
            argv = rng.choice((["pdual", "-", "-A", "nope"],
                               ["subdivide", "-", "-e", "nope"]))
        elif kind == "non_integer_label":
            argv = ["pendant", "-", "-e", ref.hyperedge_names[rng.randrange(ref.e)],
                    "--at", "x"]
        else:  # a bare 'iota' line
            argv = ["info", "--json", "-"]
            text = _without_iota(text) + "iota\n"
        return Op(f"malformed {kind}", lambda: call_cli(argv, text), _json_error,
                  well_formed=False)

    ops: list[Op] = []
    for kind in MALFORMED_KINDS:
        block = [request(verb, key) for verb, key in CLI_BLOCK]
        block.append(malformed(kind, rng.choice(sorted(texts))))
        rng.shuffle(block)
        ops += block
    return Workload(ops, workers=1, trace_cycles=4)


WORKLOADS: dict[str, Callable[..., Workload]] = {
    "poly_ladder": poly_ladder,
    "poly_join": poly_join,
    "check_suite": check_suite,
    "transform_cli": transform_cli,
}
