"""Tests for MCMC ingredients, basin-hopping, and the SciPy adapter."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import CoverMeConfig
from repro.core.representing import RepresentingFunction
from repro.core.saturation import SaturationTracker
from repro.engine.core import SearchEngine
from repro.experiments.figure2 import FIGURE2B_MINIMA, figure2b_objective
from repro.instrument.program import instrument
from repro.instrument.runtime import ExecutionProfile
from repro.optimize.basinhopping import basinhopping
from repro.optimize.mcmc import metropolis_accept, propose_perturbation
from repro.optimize.result import OptimizeResult, evaluate_counted
from repro.optimize.scipy_backend import scipy_basinhopping
from tests import sample_programs as sp


def multimodal(x):
    return figure2b_objective(float(np.atleast_1d(x)[0]))


class TestMetropolis:
    def test_always_accepts_improvement(self, rng):
        assert metropolis_accept(rng, f_current=5.0, f_proposed=1.0)

    def test_never_accepts_nan(self, rng):
        assert not metropolis_accept(rng, 1.0, float("nan"))

    def test_acceptance_probability_matches_exponential(self, rng):
        """Worse proposals are accepted with probability exp(-gap/T) (Lem. 2.1 flavour)."""
        gap = 1.0
        trials = 4000
        accepted = sum(
            metropolis_accept(rng, 0.0, gap, temperature=1.0) for _ in range(trials)
        )
        expected = np.exp(-gap)
        assert accepted / trials == pytest.approx(expected, abs=0.05)

    def test_zero_temperature_is_greedy(self, rng):
        assert not metropolis_accept(rng, 1.0, 2.0, temperature=0.0)


class TestPerturbation:
    def test_shape_and_scale(self, rng):
        x = np.array([1.0, -1000.0])
        samples = np.array([propose_perturbation(rng, x, 0.5) for _ in range(200)])
        assert samples.shape == (200, 2)
        # The second coordinate's spread should be much wider (relative scaling).
        assert samples[:, 1].std() > 50 * samples[:, 0].std()

    def test_handles_non_finite_current_point(self, rng):
        x = np.array([float("inf")])
        proposal = propose_perturbation(rng, x, 1.0)
        assert proposal.shape == (1,)


class TestBasinhopping:
    def test_escapes_local_minimum(self, rng):
        # Start near the local (non-global) basin of the Fig. 2(b) objective.
        result = basinhopping(multimodal, np.array([6.0]), n_iter=25, step_size=2.0, rng=rng)
        assert result.fun == pytest.approx(0.0, abs=1e-6)
        assert min(abs(result.x[0] - m) for m in FIGURE2B_MINIMA) < 1e-2

    def test_callback_stops_early(self, rng):
        calls = []

        def callback(x, f, accepted):
            calls.append(f)
            return True  # stop immediately

        result = basinhopping(multimodal, np.array([6.0]), n_iter=50, rng=rng, callback=callback)
        assert result.message == "stopped by callback"
        assert len(calls) == 1
        assert result.nit == 0

    def test_zero_iterations_is_pure_local_minimization(self, rng):
        result = basinhopping(lambda x: float((x[0] - 2) ** 2), np.array([9.0]), n_iter=0, rng=rng)
        assert result.fun == pytest.approx(0.0, abs=1e-8)
        assert result.nit == 0

    def test_accepts_callable_local_minimizer(self, rng):
        from repro.optimize.local import nelder_mead

        result = basinhopping(
            multimodal, np.array([0.0]), n_iter=10, local_minimizer=nelder_mead, rng=rng
        )
        assert result.fun == pytest.approx(0.0, abs=1e-4)

    def test_deterministic_given_seed(self):
        a = basinhopping(multimodal, np.array([5.0]), n_iter=10, rng=np.random.default_rng(3))
        b = basinhopping(multimodal, np.array([5.0]), n_iter=10, rng=np.random.default_rng(3))
        assert a.fun == b.fun
        assert np.array_equal(a.x, b.x)


class TestSciPyBackend:
    def test_reaches_global_minimum(self, rng):
        result = scipy_basinhopping(multimodal, np.array([6.0]), n_iter=25, rng=rng)
        assert result.fun == pytest.approx(0.0, abs=1e-6)

    def test_callback_early_stop(self, rng):
        result = scipy_basinhopping(
            multimodal, np.array([6.0]), n_iter=50, rng=rng, callback=lambda x, f, a: True
        )
        assert result.fun is not None


class TestOptimizeResult:
    def test_normalizes_x_to_array(self):
        result = OptimizeResult(x=[1.0, 2.0], fun=3)
        assert isinstance(result.x, np.ndarray)
        assert result.fun == 3.0

    def test_better_than(self):
        assert OptimizeResult(x=[0.0], fun=1.0).better_than(OptimizeResult(x=[0.0], fun=2.0))

    def test_evaluate_counted(self):
        wrapped, counter = evaluate_counted(lambda x: x * 2)
        assert wrapped(3) == 6
        assert wrapped(4) == 8
        assert counter[0] == 2


class TestProposalPopulation:
    def _objective(self):
        program = instrument(sp.paper_foo)
        return RepresentingFunction(
            program, SaturationTracker(program), profile=ExecutionProfile.PENALTY_SPECIALIZED
        )

    def test_population_one_is_the_historical_trajectory(self):
        a = basinhopping(
            self._objective(), [3.0], n_iter=4, rng=np.random.default_rng(9), memoize=True
        )
        b = basinhopping(
            self._objective(),
            [3.0],
            n_iter=4,
            rng=np.random.default_rng(9),
            memoize=True,
            proposal_population=1,
        )
        assert a.fun == b.fun and tuple(a.x) == tuple(b.x) and a.nfev == b.nfev

    def test_batched_and_loop_screening_agree(self):
        results = []
        for use_batch in (True, False):
            objective = self._objective()
            if not use_batch:
                objective = objective.__call__  # plain callable: loop fallback
            result = basinhopping(
                objective,
                [3.0],
                n_iter=4,
                rng=np.random.default_rng(9),
                proposal_population=5,
            )
            results.append((result.fun, tuple(result.x), result.nfev))
        assert results[0] == results[1]

    def test_population_must_be_positive(self):
        with pytest.raises(ValueError):
            basinhopping(lambda x: 0.0, [1.0], proposal_population=0)
        with pytest.raises(ValueError):
            CoverMeConfig(proposal_population=0)

    def test_proposal_population_runs_and_covers(self):
        config = CoverMeConfig(
            n_start=16,
            n_iter=2,
            seed=13,
            eval_profile="penalty-specialized",
            proposal_population=4,
            n_workers=1,
            worker_mode="serial",
        )
        result = SearchEngine(instrument(sp.paper_foo), config).run()
        assert result.covered  # covered branches found
