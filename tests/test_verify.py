"""The identity-verification suite reports failures instead of raising."""

import pytest
from hypothesis import given, settings, strategies as st

import hypermaps.duality as duality
import hypermaps.genuspoly as gp
import hypermaps.verify as verify
from hypermaps.constructions import CornerRef, join
from hypermaps.duality import EdgeSubset, partial_dual
from hypermaps.errors import NotConnected
from hypermaps.generators import ladder, plane_example
from hypermaps.genuspoly import EngineConfig, GenusPolynomial, euler_genus_polynomial
from hypermaps.model import Hypermap, disjoint_union
from hypermaps.perm import Permutation
from hypermaps.verify import verify_hypermap
from hypermaps.walsh import walsh_build

from conftest import random_bipartite_spec

AGREE = "engines agree and coefficients sum to 2^e"
PAIRS = "composition by symmetric difference (all pairs)"
CHI = "characteristic formula equals the constructed dual"
EPS = "genus formula equals the constructed dual"
ORIENTABLE = "orientable: even exponents, halved polynomial"
EVEN = "all coefficients even"
INVARIANT = "polynomial invariant under partial duals"


def _entry(report: dict, name: str) -> dict:
    return next(c for c in report["checks"] if c["check"] == name)


def shifted(chi_eps: tuple[int, int], d_chi: int, d_eps: int) -> tuple[int, int]:
    """Characteristic and genus from ``_dual_formulas``, shifted."""
    return chi_eps[0] + d_chi, chi_eps[1] + d_eps


def twisted_chain(e: int) -> Hypermap:
    """Twisted random maps joined end to end, ``e`` hyperedges in all."""
    pieces, seed = [], 0
    while (total := sum(p.e for p in pieces)) < e:
        piece = walsh_build(random_bipartite_spec(seed, twisted=True))[1]
        if total + piece.e <= e:
            pieces.append(piece)
        seed += 1
    h = pieces[0]
    for k, piece in enumerate(pieces[1:]):
        x, y = 3 * k % h.n, k % piece.n
        h = join(h, CornerRef(h.vertex_of(x), x), piece, CornerRef(piece.vertex_of(y), y))
    return h


def break_formula_engine(monkeypatch):
    """Make both engines the formula engine picks from per join block
    return 2^e z^0."""
    monkeypatch.setattr(gp, "_enumerate_formula",
                        lambda piece, workers: GenusPolynomial({0: 2**piece.e}))
    monkeypatch.setattr(gp._Frontier, "polynomial",
                        lambda self: GenusPolynomial({0: 2**len(self.boxes)}))


def count_calls(monkeypatch, module, name: str) -> list:
    """Record the arguments of every call to ``module.name``."""
    real, calls = getattr(module, name), []
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_engine_disagreement_is_reported(monkeypatch, fig7):
    assert _entry(verify_hypermap(fig7), AGREE)["ok"]

    break_formula_engine(monkeypatch)
    report = verify_hypermap(fig7)
    entry = _entry(report, AGREE)
    assert not entry["ok"] and not report["ok"]
    assert entry["detail"]["polynomial"] == {"0": 16}
    assert entry["detail"]["direct_polynomial"] == {"2": 2, "4": 2, "6": 12}
    assert entry["detail"]["mask"] is None  # every single subset still agrees

    formulas = verify._dual_formulas
    monkeypatch.setattr(verify, "_dual_formulas", lambda h, mask, span: shifted(
        formulas(h, mask, span), 0, 2 * (mask in (5, 9))))
    assert _entry(verify_hypermap(fig7), AGREE)["detail"]["mask"] == 5


def test_each_failing_entry_names_its_own_mask(monkeypatch, fig7):
    formulas = verify._dual_formulas
    monkeypatch.setattr(verify, "_dual_formulas", lambda h, mask, span: shifted(
        formulas(h, mask, span), mask == 3, 2 * (mask == 6)))
    report = verify_hypermap(fig7)
    assert not report["ok"]
    chi_entry = _entry(report, "characteristic formula equals the constructed dual")
    eps_entry = _entry(report, "genus formula equals the constructed dual")
    faces = _entry(report, "restricted face count agrees with the full-label one")
    assert not chi_entry["ok"] and chi_entry["detail"] == {"mask": 3}
    assert not eps_entry["ok"] and eps_entry["detail"] == {"mask": 6}
    assert faces["ok"] and "detail" not in faces
    # the engines still agree, so their entry names no mask
    assert _entry(report, AGREE)["ok"] and "mask" not in _entry(report, AGREE)["detail"]


def test_each_spanning_sub_is_counted_once(monkeypatch, fig7):
    rows = count_calls(monkeypatch, duality, "_spanning_row")
    assert verify_hypermap(fig7)["ok"]
    assert [mask for _, mask in rows] == list(range(1 << fig7.e))
    assert all(g is fig7 for g, _ in rows)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_suite_passes_on_twisted_maps(seed):
    h = walsh_build(random_bipartite_spec(seed, twisted=True))[1]
    assert h.is_connected() and h.e <= 4
    assert verify_hypermap(h)["ok"]


def test_pair_entry_reads_the_table_of_duals(monkeypatch, fig7):
    real = verify.partial_dual
    monkeypatch.setattr(verify, "partial_dual",
                        lambda h, mask: h if mask == 3 else real(h, mask))
    entry = _entry(verify_hypermap(fig7), "composition by symmetric difference (all pairs)")
    assert not entry["ok"]
    # the first failing pair is A = {}, B = {e1, e2}: (H^A)^B is the true
    # H^B, but the table's H^B is H itself
    names = fig7.hyperedge_names
    assert [c["identity"] for c in entry["detail"]["identities"]] == [
        "(H^A)^B = (H^B)^A", "(H^A)^B = H^(A xor B)"]
    assert [c["ok"] for c in entry["detail"]["identities"]] == [False, False]
    assert entry["detail"]["identities"][0]["witness"] == {"A": (), "B": names[:2]}


def _psi_kept(flags, g, mask):
    tau, _, iota = flags(g, mask)
    return tau, g.psi.image, iota


def _tau_not_a_bijection(flags, g, mask):
    tau, psi, iota = flags(g, mask)
    return (0,) * len(tau), psi, iota


@pytest.mark.parametrize("mutant, failing_pair", [
    pytest.param(_psi_kept, (0b1, 0b1), id="psi-not-reversed-on-A"),
    pytest.param(_tau_not_a_bijection, (0b0, 0b1), id="not-a-bijection"),
])
def test_a_wrong_second_application_fails_the_pair_entry(monkeypatch, fig7,
                                                         mutant, failing_pair):
    real = duality._dual_flags
    # the table of duals is built from fig7 itself, so the mutant acts only
    # where a dual is applied to a map that is already a dual
    monkeypatch.setattr(duality, "_dual_flags",
                        lambda g, mask: real(g, mask) if g is fig7
                        else mutant(real, g, mask))
    report = verify_hypermap(fig7)
    entry = _entry(report, PAIRS)
    assert not entry["ok"] and not report["ok"]
    a, b = failing_pair
    witness = {"A": EdgeSubset(a, fig7.e).names(fig7),
               "B": EdgeSubset(b, fig7.e).names(fig7)}
    failing = [c for c in entry["detail"]["identities"] if not c["ok"]]
    assert failing and all(c["witness"] == witness for c in failing)


def test_check_refuses_a_disconnected_map_before_any_subset(monkeypatch):
    two = disjoint_union(plane_example(), plane_example())

    def started(*args):
        raise AssertionError("the check started its subset pass")

    for module in (verify, duality):
        monkeypatch.setattr(module, "partial_dual", started)
        monkeypatch.setattr(module, "_spanning_table", started)
    monkeypatch.setattr(duality, "_spanning_row", started)
    monkeypatch.setattr(verify, "_Frontier", started)
    with pytest.raises(NotConnected, match="^the partial-dual formulas need a connected hypermap$"):
        verify_hypermap(two)


def test_the_empty_map_has_one_subset():
    empty = Hypermap.from_flags(*(Permutation([]),) * 3)
    report = verify_hypermap(empty)
    entry = _entry(report, AGREE)
    assert entry["ok"] and entry["detail"] == {"polynomial": {"0": 1}}
    # the one subset is its own complement: the even entry needs e >= 1
    assert report["ok"] and "detail" not in _entry(report, EVEN)


def test_an_odd_coefficient_names_its_exponents(monkeypatch, fig7):
    real = verify.euler_genus_polynomial
    # one subset of fig7's {2: 2, 4: 2, 6: 12} moved from z^2 to z^3
    monkeypatch.setattr(verify, "euler_genus_polynomial", lambda h, cfg=None: (
        GenusPolynomial({2: 1, 3: 1, 4: 2, 6: 12}) if h is fig7 else real(h, cfg)))
    report = verify_hypermap(fig7)
    entry = _entry(report, EVEN)
    assert not entry["ok"] and not report["ok"]
    assert entry["detail"] == {"odd_coefficient_exponents": [2, 3]}


def test_a_dual_with_another_polynomial_fails_the_invariance_entry(monkeypatch, fig7):
    assert _entry(verify_hypermap(fig7), INVARIANT)["ok"]
    wrong = [partial_dual(fig7, 5), partial_dual(fig7, 9)]
    real = verify._whole
    # the whole-map count of the duals on masks 5 and 9 moves up by 2
    monkeypatch.setattr(verify, "_whole", lambda g: (
        real(g)._replace(const=real(g).const + 2) if g in wrong else real(g)))
    report = verify_hypermap(fig7)
    entry = _entry(report, INVARIANT)
    assert not entry["ok"] and not report["ok"]
    assert entry["detail"] == {"mask": 5}
    # the factored count behind the polynomial is not the one moved
    assert _entry(report, AGREE)["ok"]


def test_table_path_builds_each_dual_once_and_composes_each_pair_once(monkeypatch, fig7):
    duals = count_calls(monkeypatch, verify, "partial_dual")
    flags = count_calls(monkeypatch, duality, "_dual_flags")
    # the direct entry reads the pass: the direct engine does not run
    monkeypatch.setattr(gp, "_enumerate_direct", lambda h: pytest.fail("direct engine ran"))
    assert verify_hypermap(fig7)["ok"]
    e = fig7.e
    assert sorted(mask for _, mask in duals) == list(range(2**e))
    # 4^e compositions of the pair entry, (H^A)^A and (H^A)^* per subset, and
    # one inside each partial_dual but that of the empty subset
    assert len(flags) == 4**e + 2 * 2**e + 2**e - 1


@pytest.mark.parametrize("h", [
    pytest.param(ladder(7), id="ladder7"),
    pytest.param(twisted_chain(7), id="twisted-chain7"),
])
def test_streaming_path_passes_and_builds_each_dual_once(monkeypatch, h):
    assert h.e == 7 and h.is_connected()
    duals = count_calls(monkeypatch, verify, "partial_dual")
    monkeypatch.setattr(gp, "_enumerate_direct", lambda h: pytest.fail("direct engine ran"))
    report = verify_hypermap(h)
    assert report["ok"]
    assert PAIRS not in {c["check"] for c in report["checks"]}
    assert sorted(mask for _, mask in duals) == list(range(2**h.e))


def test_streaming_witness_is_the_least_failing_mask(monkeypatch):
    h = ladder(7)
    # A and A^c are walked together by the A with the top bit clear, so the
    # pair (7, 120) comes before (27, 100)
    walked = count_calls(monkeypatch, verify, "partial_dual")
    formulas = verify._dual_formulas
    monkeypatch.setattr(verify, "_dual_formulas", lambda h, mask, span: shifted(
        formulas(h, mask, span), mask in (100, 120), 2 * (mask in (100, 120))))
    report = verify_hypermap(h)
    order = [mask for _, mask in walked]
    assert order.index(120) < order.index(100)
    assert _entry(report, CHI)["detail"] == {"mask": 100}
    assert _entry(report, EPS)["detail"] == {"mask": 100}


def _direct_entry_matches_the_oracle(monkeypatch, h):
    oracle = euler_genus_polynomial(h, EngineConfig(engine="direct"))
    with monkeypatch.context() as patch:
        break_formula_engine(patch)
        detail = _entry(verify_hypermap(h), AGREE)["detail"]
    # without a disagreement the entry shows one polynomial, the pass's own
    assert detail.get("direct_polynomial", detail["polynomial"]) == oracle.as_json_dict()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_direct_entry_matches_the_direct_engine(seed, twisted):
    h = walsh_build(random_bipartite_spec(seed, twisted=twisted))[1]
    with pytest.MonkeyPatch.context() as monkeypatch:
        _direct_entry_matches_the_oracle(monkeypatch, h)


def test_direct_entry_matches_the_direct_engine_when_streaming(monkeypatch):
    h = twisted_chain(7)
    assert not h.is_orientable()
    _direct_entry_matches_the_oracle(monkeypatch, h)


def test_an_odd_exponent_fails_the_orientable_entry(monkeypatch):
    h = ladder(3)
    real = gp._Frontier.polynomial

    def moved(self):
        # one subset moved from the least exponent to the odd one above it
        c = real(self).coefficients
        low = min(c)
        c[low] -= 1
        c[low + 1] = c.get(low + 1, 0) + 1
        return GenusPolynomial(c)

    assert gp._plan(gp._whole(h)).engine == "frontier" and h.is_orientable()
    monkeypatch.setattr(gp._Frontier, "polynomial", moved)
    report = verify_hypermap(h)
    entry = _entry(report, ORIENTABLE)
    assert not entry["ok"] and not report["ok"]
    assert entry["detail"] == {"odd_exponents": [1]}
