"""The identity-verification suite reports failures instead of raising."""

import hypermaps.genuspoly as gp
from hypermaps.genuspoly import GenusPolynomial
from hypermaps.verify import verify_hypermap

AGREE = "engines agree and coefficients sum to 2^e"


def _agreement_entry(report: dict) -> dict:
    return next(c for c in report["checks"] if c["check"] == AGREE)


def test_engine_disagreement_is_reported(monkeypatch, fig7):
    assert _agreement_entry(verify_hypermap(fig7))["ok"]

    monkeypatch.setattr(gp, "_enumerate_formula",
                        lambda h, workers: GenusPolynomial({0: 2**h.e}))
    report = verify_hypermap(fig7)
    entry = _agreement_entry(report)
    assert not entry["ok"] and not report["ok"]
    assert entry["detail"]["polynomial"] == {"0": 16}
    assert entry["detail"]["direct_polynomial"] == {"2": 2, "4": 2, "6": 12}
    assert entry["detail"]["mask"] is None  # every single subset still agrees

    per_subset = gp.eps_partial_dual_formula
    monkeypatch.setattr(gp, "eps_partial_dual_formula",
                        lambda h, sub: per_subset(h, sub) + 2 * (sub.mask in (5, 9)))
    assert _agreement_entry(verify_hypermap(fig7))["detail"]["mask"] == 5
