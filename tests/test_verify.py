"""The identity-verification suite reports failures instead of raising."""

import pytest
from hypothesis import given, settings, strategies as st

import hypermaps.duality as duality
import hypermaps.genuspoly as gp
import hypermaps.verify as verify
from hypermaps.duality import EdgeSubset
from hypermaps.genuspoly import GenusPolynomial
from hypermaps.verify import verify_hypermap
from hypermaps.walsh import walsh_build

from conftest import random_bipartite_spec

AGREE = "engines agree and coefficients sum to 2^e"
PAIRS = "composition by symmetric difference (all pairs)"


def _entry(report: dict, name: str) -> dict:
    return next(c for c in report["checks"] if c["check"] == name)


def shifted(chi_eps: tuple[int, int], d_chi: int, d_eps: int) -> tuple[int, int]:
    """Characteristic and genus from ``_dual_formulas``, shifted."""
    return chi_eps[0] + d_chi, chi_eps[1] + d_eps


def test_engine_disagreement_is_reported(monkeypatch, fig7):
    assert _entry(verify_hypermap(fig7), AGREE)["ok"]

    # break both engines the formula engine picks from per join block
    monkeypatch.setattr(gp, "_enumerate_formula",
                        lambda h, workers: GenusPolynomial({0: 2**h.e}))
    monkeypatch.setattr(gp._Frontier, "polynomial",
                        lambda self: GenusPolynomial({0: 2**len(self.boxes)}))
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
    real, masks = duality.spanning_counts, []
    for module in (duality, verify):
        monkeypatch.setattr(module, "spanning_counts",
                            lambda h, mask: masks.append(mask) or real(h, mask))
    assert verify_hypermap(fig7)["ok"]
    assert masks == list(range(1 << fig7.e))


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
