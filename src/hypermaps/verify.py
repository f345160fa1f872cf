"""The identity-verification suite behind ``hm check``.

Runs every proved identity of the theory against one hypermap (or against
the whole bundled corpus) by exhaustive subset enumeration, and reports the
two known discrepancies of the source material as advisory, non-failing
entries: the printed relation between the two polynomials has its
substitution backwards, and the printed orientable-genus spectrum of the
partial-duality example disagrees with the brute-force one.

A check of one map reads two tables: the spanning-sub counts of every
subset (one row each, shared by the formulas of A and of A^c and the
single-subset identities), and, up to six hyperedges, every partial dual.
The invariance entry counts each dual whole with the frontier engine, apart
from the factored run that gives the map's own polynomial, so every check
also cross-checks the join factoring.
"""

from __future__ import annotations

from .constructions import (
    AmalgamationPicks,
    CornerRef,
    check_amalgamation_theorem,
    check_join_polynomial,
    check_pendant_invariance,
    check_subdivision,
)
from .duality import (
    PropertyReport,
    _add_compositions,
    _add_single,
    _dual_formulas,
    _first_failing_pair,
    _spanning_table,
    partial_dual,
    spanning_face_count_restricted,
)
from .errors import EdgeCapExceeded, HypermapError, NotConnected
from .genuspoly import (
    EngineConfig,
    GenusPolynomial,
    _Frontier,
    _whole,
    euler_genus_polynomial,
    orientable_genus_polynomial,
    spectrum_report,
    subset_iter,
)
from .generators import (
    closed_form,
    cycle_hypertree,
    fig7_example,
    is_hypertree,
    ladder,
    ladder_tree,
    plane_example,
    random_hypertree,
    star,
    torus_example,
)
from .model import Hypermap

__all__ = ["verify_hypermap", "verify_bundled", "fig7_gamma_advisory"]

CLAIMED_FIG7_GAMMA_SPECTRUM = (0, 2, 3)


def _entry(name: str, ok: bool, detail: dict | None = None, mandatory: bool = True) -> dict:
    out = {"check": name, "ok": bool(ok), "mandatory": mandatory}
    if detail:
        out["detail"] = detail
    return out


# The all-pairs entry checks (H^A)^B for 4^e ordered pairs of subsets, from a
# table of all 2^e partial duals; above this many hyperedges it is skipped.
_PAIR_CAP = 6

_CHI = "characteristic formula equals the constructed dual"
_EPS = "genus formula equals the constructed dual"
_FACES = "restricted face count agrees with the full-label one"
_SINGLE = "partial-duality identity suite (single subsets)"


def verify_hypermap(h: Hypermap, subset_cap: int = 12) -> dict:
    """Exhaustive identity checks for one connected hypermap.

    Every failing entry carries its own witness: the least subset (or the
    first pair of subsets) at which its identity fails.  A map with more
    hyperedges than the direct engine's cap, or a disconnected one, is
    refused before any subset is checked.  Each partial dual is built once.
    """
    if h.e > subset_cap:
        raise HypermapError(
            f"{h.e} hyperedges exceeds the check cap of {subset_cap}"
        )
    # the pass enumerates the 2^e partial duals as the direct engine does:
    # refuse what that engine would refuse as too costly
    direct_cap = EngineConfig().edge_cap
    if h.e > direct_cap:
        raise EdgeCapExceeded(
            f"{h.e} hyperedges exceeds the direct engine's cap of {direct_cap}"
        )
    if not h.is_connected():
        raise NotConnected("the partial-dual formulas need a connected hypermap")
    masks = subset_iter(h.e)
    # the pair entries read every partial dual; the per-subset pass streams
    duals = [partial_dual(h, mask) for mask in masks] if h.e <= _PAIR_CAP else None
    # each subset's spanning sub is read by the formula entries of A and of
    # A^c, the face entry and the single-subset identities
    spans = _spanning_table(h)
    full = (1 << h.e) - 1
    two_c = 2 * h.component_count()

    # the pass walks A and A^c together, so each dual is built once; each
    # entry keeps its least failing mask and its witness there
    found: dict[str, tuple[int, dict] | None] = dict.fromkeys((_CHI, _EPS, _FACES, _SINGLE))
    tally: dict[int, int] = {}  # the direct engine's count, from the same duals
    for a in masks[: (len(masks) + 1) // 2]:
        ac = full ^ a
        ha, hac = (duals[a], duals[ac]) if duals else (partial_dual(h, a), partial_dual(h, ac))
        # at e = 0 the one subset is its own complement
        for mask, dual, dual_c in ((a, ha, hac), (ac, hac, ha))[: 1 + (a != ac)]:
            chi = dual.counts().chi
            tally[two_c - chi] = tally.get(two_c - chi, 0) + 1
            props = _add_single(PropertyReport(), h, mask, dual, dual_c, spans[mask])
            chi_formula, eps_formula = _dual_formulas(h, mask, spans.__getitem__)
            for name, ok in (
                (_CHI, chi_formula == chi),
                (_EPS, eps_formula == two_c - chi),
                (_FACES, spanning_face_count_restricted(h, mask) == spans[mask].f),
                (_SINGLE, props.ok),
            ):
                if not ok and (found[name] is None or mask < found[name][0]):
                    found[name] = mask, props.as_dict() if name == _SINGLE else {"mask": mask}
    witness = {name: f and f[1] for name, f in found.items()}
    entries = [_entry(name, wit is None, wit) for name, wit in witness.items()]

    if duals:
        pair = _first_failing_pair(duals)
        wit = pair and _add_compositions(
            PropertyReport(), h, *pair, duals[pair[0]], duals[pair[1]],
            duals[pair[0] ^ pair[1]]).as_dict()
        entries.append(_entry("composition by symmetric difference (all pairs)",
                              wit is None, wit))

    poly = euler_genus_polynomial(h, EngineConfig(engine="formula"))
    direct = GenusPolynomial(tally)
    detail = {"polynomial": poly.as_json_dict()}
    if poly != direct:
        detail["direct_polynomial"] = direct.as_json_dict()
        # the genus entry compares the same per-subset values
        detail["mask"] = witness[_EPS] and witness[_EPS]["mask"]
    entries.append(_entry("engines agree and coefficients sum to 2^e",
                          poly == direct and poly.eval_at_one() == 2**h.e, detail))
    # A and A^c are two subsets of one genus once e >= 1; at e = 0 the one
    # subset is its own complement and the polynomial is 1
    odd_at = [k for k, v in poly.coefficients.items() if v % 2] if h.e else []
    entries.append(_entry("all coefficients even", not odd_at,
                          {"odd_coefficient_exponents": odd_at} if odd_at else None))
    if h.is_orientable():
        # the orientable-genus polynomial is this one halved: it exists when
        # no exponent is odd
        odd = [k for k in poly.exponents() if k % 2]
        entries.append(_entry("orientable: even exponents, halved polynomial",
                              not odd, {"odd_exponents": odd} if odd else None))

    if h.e <= 5:
        # each dual is counted whole, unfactored: at most 16 frontier states
        # per step here, and a path apart from the factored run behind poly
        wit = next(({"mask": m} for m in masks
                    if _Frontier(_whole(duals[m])).polynomial() != poly), None)
        entries.append(_entry("polynomial invariant under partial duals", wit is None, wit))

    return {"ok": all(e["ok"] for e in entries if e["mandatory"]), "checks": entries}


def fig7_gamma_advisory() -> dict:
    """Brute-force orientable-genus spectrum of the partial-duality example,
    next to the printed claim."""
    h = fig7_example()
    gamma = orientable_genus_polynomial(h, EngineConfig(engine="both"))
    computed = spectrum_report(gamma).spectrum
    return {
        "computed_gamma_spectrum": list(computed),
        "claimed_gamma_spectrum": list(CLAIMED_FIG7_GAMMA_SPECTRUM),
        "gamma_of_example": h.orientable_genus(),
        "agrees": tuple(computed) == CLAIMED_FIG7_GAMMA_SPECTRUM,
    }


def verify_bundled() -> dict:
    """The full bundled verification suite: examples, families, theorems."""
    entries: list[dict] = []

    for name, h in (("plane", plane_example()), ("torus", torus_example()),
                    ("fig7", fig7_example())):
        rep = verify_hypermap(h)
        entries.append(_entry(f"identity suite on the {name} example", rep["ok"],
                              None if rep["ok"] else rep))

    lad_ok = all(
        euler_genus_polynomial(ladder(n)) == closed_form("ladder", n)
        for n in range(1, 9)
    )
    entries.append(_entry("hyper-ladder closed form, n = 1..8", lad_ok))
    cyc_ok = all(
        euler_genus_polynomial(cycle_hypertree(n)) == closed_form("cycle_hypertree", n)
        for n in range(3, 9)
    )
    entries.append(_entry("one-cycle hypertree closed form, n = 3..8", cyc_ok))
    tree_ok = all(
        euler_genus_polynomial(t := random_hypertree(e, seed)) == closed_form("tree", e)
        and is_hypertree(t)
        for seed in range(5) for e in (1, 3, 6)
    )
    entries.append(_entry("cycle-free hypertrees: constant polynomial 2^e", tree_ok))

    equal_ok = all(
        euler_genus_polynomial(ladder_tree(n)) == euler_genus_polynomial(ladder(n))
        for n in range(1, 7)
    )
    entries.append(_entry("ladder and its 4-uniform tree share one polynomial", equal_ok))

    h2a, h2b = ladder(2), ladder(2)
    join_rep = check_join_polynomial(
        h2a, CornerRef(0, min(h2a.vertex_sets[0])),
        h2b, CornerRef(0, min(h2b.vertex_sets[0])),
    )
    entries.append(_entry("join polynomial multiplies", join_rep["ok"], join_rep))

    f7, s3 = fig7_example(), star(3)
    amal_rep = check_amalgamation_theorem(
        f7, AmalgamationPicks((CornerRef(0, min(f7.vertex_sets[0])),
                               CornerRef(1, min(f7.vertex_sets[1])))),
        s3, AmalgamationPicks((CornerRef(0, min(s3.vertex_sets[0])),
                               CornerRef(2, min(s3.vertex_sets[2])))),
    )
    entries.append(_entry("bar-amalgamation corner-face sum", amal_rep["ok"], amal_rep))

    sub_ok = all(check_subdivision(fig7_example(), e)["ok"] for e in range(4))
    sub_ok = sub_ok and all(
        check_subdivision(cycle_hypertree(3), e)["ok"] for e in range(3)
    )
    entries.append(_entry("subdivision: genus kept, shifts confined, full mass", sub_ok))

    pend_ok = all(
        check_pendant_invariance(h)["ok"]
        for h in (plane_example(), torus_example(), fig7_example(),
                  ladder(3), cycle_hypertree(3))
    )
    entries.append(_entry("pendant insertion never moves the genus", pend_ok))

    advisory = fig7_gamma_advisory()
    entries.append(_entry(
        "printed orientable-genus spectrum of the duality example",
        advisory["agrees"], advisory, mandatory=False,
    ))
    fig7_poly = euler_genus_polynomial(fig7_example())
    gamma_poly = orientable_genus_polynomial(fig7_example())
    entries.append(_entry(
        "printed polynomial substitution direction",
        False,
        {
            "adopted": "eps-polynomial(z) equals gamma-polynomial(z^2)",
            "printed": "the reverse substitution, inconsistent with the definitions",
            "holds_as_adopted": gamma_poly.double_exponents() == fig7_poly,
        },
        mandatory=False,
    ))

    ok = all(e["ok"] for e in entries if e["mandatory"])
    return {"ok": ok, "checks": entries}
