"""Release acceptance suite.

Each test runs one verification criterion at its stated tolerance and prints
a PASS/FAIL line (visible with pytest -s or in the captured output on
failure).  The same criteria back the `adammcmc verify` command, which is
the one-shot release gate.

Criterion 8 documents a known desk-scale limitation: see the assertion
message and the project notes for the analysis.
"""

import dataclasses

import pytest

from adammcmc import verify

# The criteria run real chains (minutes in total); `pytest -m "not slow"`
# leaves them out for a fast edit-test loop.
pytestmark = pytest.mark.slow


def run_criterion(name, fn):
    passed, detail = fn()
    status = "PASS" if passed else "FAIL"
    print(f"{status} {name}: {detail}")
    assert passed, f"{name}: {detail}"


class TestAcceptance:
    def test_01_rank1_linear_algebra(self):
        run_criterion("rank-one linear algebra", verify.criterion_rank1_linalg)

    def test_02_proposal_sampling(self):
        run_criterion("proposal sampling moments", verify.criterion_proposal_sampling)

    def test_03_detailed_balance(self):
        run_criterion("detailed balance", verify.criterion_detailed_balance)

    def test_04_posterior_moments(self):
        run_criterion("posterior moments (2D quadratic)", verify.criterion_posterior_moments)

    def test_05_tv_convergence(self):
        run_criterion("TV convergence (1D)", verify.criterion_tv_convergence)

    def test_06_mala_equivalence(self):
        run_criterion("MALA equivalence", verify.criterion_mala_equivalence)

    def test_07_acceptance_trends(self):
        run_criterion("acceptance trends (classifier)", verify.criterion_acceptance_trends)

    def test_08_spread_monotonicity(self):
        # Known red at desk scale: per-coordinate proposal noise in {1,2,4,7}
        # either freezes the chain (anchored posterior rejects every move) or
        # drives the tiny classifier into saturated weight scales where the
        # interquartile spread readout collapses; the paper-scale trend has
        # no faithful desk analogue.  The criterion runs as stated and the
        # failure is reported honestly rather than the gate being weakened.
        run_criterion("posterior-spread monotonicity", verify.criterion_spread_monotonicity)

    def test_09_stochastic_vs_full(self):
        run_criterion("stochastic vs full accept test", verify.criterion_stochastic_vs_full)

    def test_10_determinism(self):
        run_criterion("determinism", verify.criterion_determinism)


class TestMalaEquivalenceDetectsDivergence:
    """Criterion 6 fails on a MALA step that is off by one part in 1e9."""

    @staticmethod
    def run_with_mala(monkeypatch, mutated):
        monkeypatch.setattr(verify, "mala_step", mutated)
        return verify.criterion_mala_equivalence()

    def test_scaled_log_alpha(self, monkeypatch):
        original = verify.mala_step

        def mutated(state, target, gamma, sigma):
            state, info = original(state, target, gamma, sigma)
            return state, dataclasses.replace(info, log_alpha=info.log_alpha * (1 + 1e-9))

        passed, detail = self.run_with_mala(monkeypatch, mutated)
        assert not passed
        assert "rel diff 1.00e-09" in detail

    def test_scaled_sigma(self, monkeypatch):
        original = verify.mala_step

        def mutated(state, target, gamma, sigma):
            return original(state, target, gamma, sigma * (1 + 1e-9))

        assert self.run_with_mala(monkeypatch, mutated) == (False, "trajectories diverged")

    def test_one_flipped_decision(self, monkeypatch):
        original = verify.mala_step
        calls = []

        def mutated(state, target, gamma, sigma):
            state, info = original(state, target, gamma, sigma)
            calls.append(None)
            if len(calls) == 5_000:
                info = dataclasses.replace(info, accepted=not info.accepted)
            return state, info

        passed, detail = self.run_with_mala(monkeypatch, mutated)
        assert (passed, detail) == (False, "acceptance decisions diverged")
