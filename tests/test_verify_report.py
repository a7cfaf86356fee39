"""run_verification's single result path, driven by stub criteria, and
criterion 7's rank correlation against scipy's."""

import json

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from adammcmc import verify
from adammcmc.cli import main


def _pass():
    return True, "stub ok"


def _fail():
    return False, "stub not ok"


def _raise():
    raise RuntimeError("stub exploded")


STUB_CRITERIA = [
    ("stub pass", _pass, True),
    ("stub fail", _fail, True),
    ("stub raise", _raise, True),
]


@pytest.fixture
def stub_criteria(monkeypatch):
    monkeypatch.setattr(verify, "CRITERIA", STUB_CRITERIA)


def test_report_has_one_entry_per_criterion(stub_criteria, tmp_path):
    out = tmp_path / "report"
    results = verify.run_verification(out_dir=out)

    assert [f.name for f in out.iterdir()] == ["verify_report.json"]
    report = json.loads((out / "verify_report.json").read_text())
    assert [e["name"] for e in report] == ["stub pass", "stub fail", "stub raise"]
    assert [e["passed"] for e in report] == [True, False, False]
    assert report[0]["detail"] == "stub ok"
    assert report[1]["detail"] == "stub not ok"
    assert report[2]["detail"] == "raised RuntimeError: stub exploded"
    assert [(r.name, r.passed, r.detail) for r in results] == [
        (e["name"], e["passed"], e["detail"]) for e in report
    ]


def test_cli_verify_exits_1_on_failure(stub_criteria, tmp_path, capsys):
    assert main(["verify", "--out", str(tmp_path / "v")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("PASS stub pass")
    assert lines[2].startswith("FAIL stub raise")
    assert lines[-1] == "1/3 criteria passed"


# small integers make ties common
tied_pairs = st.integers(2, 8).flatmap(
    lambda n: st.tuples(*[st.lists(st.integers(0, 3), min_size=n, max_size=n)] * 2)
)


@given(tied_pairs)
def test_rank_correlation_matches_spearmanr(pair):
    from scipy.stats import spearmanr

    x, y = pair
    assume(len(set(x)) > 1 and len(set(y)) > 1)  # a constant vector has no correlation
    expect = spearmanr(x, y).statistic
    assert verify._rank_correlation(x, y) == pytest.approx(expect, rel=0, abs=1e-12)


def test_rank_correlation_of_a_rising_pair_prints_one():
    # criterion 7's shortest rising segment ends at its maximum
    rho = verify._rank_correlation([0.0, 10.0], [0.726, 0.743])
    assert f"{rho:.2f}" == "1.00"
    assert np.isclose(rho, 1.0)
