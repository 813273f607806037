"""Tests for entropic OT (Sinkhorn-Knopp)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConvergenceError, ValidationError
from repro.ot.cost import squared_euclidean_cost
from repro.ot.network_simplex import transport_simplex
from repro.ot.sinkhorn import (batched_sinkhorn, batched_sinkhorn_log,
                               sinkhorn, sinkhorn_log, solve_sinkhorn)


@pytest.fixture
def random_problem(rng):
    n, m = 8, 10
    xs = rng.normal(size=(n, 1))
    ys = rng.normal(size=(m, 1))
    cost = squared_euclidean_cost(xs, ys)
    mu = rng.dirichlet(np.ones(n))
    nu = rng.dirichlet(np.ones(m))
    return cost, mu, nu


class TestSinkhorn:
    def test_marginals_satisfied(self, random_problem):
        cost, mu, nu = random_problem
        result = sinkhorn(cost, mu, nu, epsilon=0.05, tol=1e-10)
        assert result.converged
        np.testing.assert_allclose(result.plan.sum(axis=1), mu, atol=1e-8)
        np.testing.assert_allclose(result.plan.sum(axis=0), nu, atol=1e-8)

    def test_cost_approaches_exact_as_epsilon_shrinks(self, random_problem):
        cost, mu, nu = random_problem
        exact = float(np.sum(cost * transport_simplex(cost, mu, nu)))
        gaps = []
        for epsilon in (0.5, 0.05, 0.005):
            result = sinkhorn(cost, mu, nu, epsilon=epsilon, tol=1e-11,
                              max_iter=50_000)
            entropic = float(np.sum(cost * result.plan))
            gaps.append(abs(entropic - exact))
        assert gaps[0] >= gaps[1] >= gaps[2] - 1e-12
        assert gaps[2] < 0.05 * max(exact, 1e-12) + 1e-6

    def test_plan_strictly_positive(self, random_problem):
        cost, mu, nu = random_problem
        result = sinkhorn(cost, mu, nu, epsilon=0.1)
        assert np.all(result.plan > 0.0)  # entropic plans are dense

    def test_invalid_epsilon_rejected(self, random_problem):
        cost, mu, nu = random_problem
        with pytest.raises(ValidationError, match="epsilon"):
            sinkhorn(cost, mu, nu, epsilon=0.0)

    def test_failure_raises_by_default(self, random_problem):
        cost, mu, nu = random_problem
        with pytest.raises(ConvergenceError):
            sinkhorn(cost, mu, nu, epsilon=1e-4, max_iter=3, tol=1e-14)

    def test_failure_returns_best_when_asked(self, random_problem):
        cost, mu, nu = random_problem
        result = sinkhorn(cost, mu, nu, epsilon=1e-4, max_iter=3,
                          tol=1e-14, raise_on_failure=False)
        assert not result.converged
        assert result.iterations == 3
        assert np.isfinite(result.residual)


class TestSinkhornLog:
    def test_matches_probability_domain(self, random_problem):
        cost, mu, nu = random_problem
        scale = float(np.max(cost))
        plain = sinkhorn(cost, mu, nu, epsilon=0.1, tol=1e-11,
                         max_iter=50_000)
        # Probability-domain epsilon is relative to max cost; replicate.
        logd = sinkhorn_log(cost, mu, nu, epsilon=0.1 * scale, tol=1e-11,
                            max_iter=50_000)
        np.testing.assert_allclose(plain.plan, logd.plan, atol=1e-6)

    def test_survives_tiny_epsilon(self, random_problem):
        cost, mu, nu = random_problem
        result = sinkhorn_log(cost, mu, nu, epsilon=1e-3, tol=1e-8,
                              max_iter=200_000)
        assert result.converged
        # Near-exact regime: cost close to unregularised optimum.
        exact = float(np.sum(cost * transport_simplex(cost, mu, nu)))
        entropic = float(np.sum(cost * result.plan))
        assert entropic == pytest.approx(exact, rel=0.05, abs=1e-4)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="incompatible"):
            sinkhorn_log(np.zeros((2, 2)), [0.5, 0.5], [0.3, 0.3, 0.4])


class TestBatchedSinkhorn:
    @pytest.mark.parametrize("engine,serial", [
        (batched_sinkhorn, sinkhorn),
        (batched_sinkhorn_log, sinkhorn_log),
    ])
    def test_matches_serial_per_problem(self, rng, engine, serial):
        """A stack with one cost per problem agrees with the serial
        solver run on each problem alone."""
        B, n = 4, 11
        costs = np.stack([
            (np.sort(rng.normal(size=(n, 1)), axis=0)
             - np.sort(rng.normal(size=(n, 1)), axis=0).T) ** 2
            for _ in range(B)])
        mus = rng.dirichlet(np.ones(n), size=B)
        nus = rng.dirichlet(np.ones(n), size=B)
        outcomes = engine(costs, mus, nus, epsilon=5e-2, tol=1e-10,
                          raise_on_failure=False)
        for b, outcome in enumerate(outcomes):
            reference = serial(costs[b], mus[b], nus[b], epsilon=5e-2,
                               tol=1e-10, raise_on_failure=False)
            assert outcome.converged == reference.converged
            assert outcome.iterations == reference.iterations
            np.testing.assert_allclose(outcome.plan, reference.plan,
                                       atol=1e-9)


class TestSolveSinkhornWrapper:
    def test_returns_plan_with_supports(self, random_problem):
        cost, mu, nu = random_problem
        plan = solve_sinkhorn(cost, mu, nu, epsilon=0.1)
        assert plan.shape == cost.shape
        assert np.isfinite(plan.cost)
        plan.verify(mu, nu, atol=1e-6)
