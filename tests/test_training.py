import math
from dataclasses import replace

import numpy as np
import pytest

from relaxqp.bench import FamilySpec, generate, reference_solution
from relaxqp.engine import SolverConfig, solve
from relaxqp.errors import InputError
from relaxqp.policy import MlpPolicy, fit_norm_stats, flatten_params, init_checkpoint
from relaxqp.training import (
    NORM_STATS_HORIZON,
    TrainConfig,
    collect_norm_stats,
    rollout,
    shaping,
    stage_loss,
    train,
)

from oracles import FixedPolicy, observed_boundary_inputs


class TestShaping:
    def test_at_zero(self):
        assert shaping(0.0) == pytest.approx(0.474077, abs=1e-6)

    def test_large_argument_asymptote(self):
        assert shaping(10.0) == pytest.approx(10.0, abs=1e-4)

    def test_lower_bound(self):
        # the true value -0.5 + e^-49.5 rounds to -0.5 in float64
        v = shaping(-50.0)
        assert -0.5 <= v < -0.499
        # at a representable distance the strict bound holds
        v30 = shaping(-30.0)
        assert -0.5 < v30 < -0.499

    def test_overflow_safe(self):
        assert shaping(1e4) == 1e4

    def test_monotone(self):
        xs = np.linspace(-20, 20, 200)
        ys = [shaping(float(x)) for x in xs]
        assert all(b >= a for a, b in zip(ys, ys[1:]))


class TestStageLoss:
    def test_no_progress(self):
        x = np.ones(3)
        lam = np.ones(2)
        x_s = np.zeros(3)
        lam_s = np.zeros(2)
        loss = stage_loss(x, lam, x.copy(), lam.copy(), x_s, lam_s)
        assert loss == pytest.approx(0.474077, abs=1e-6)

    def test_exact_convergence_saturates(self):
        x = np.array([1.0])
        lam = np.array([0.0])
        x_s = np.zeros(1)
        lam_s = np.zeros(1)
        loss = stage_loss(x, lam, x_s, lam_s, x_s, lam_s)
        assert loss == pytest.approx(-0.5, abs=1e-4)

    def test_squared_distance_growth_e2(self):
        # squared distance grows by a factor e^2 -> log sqrt ratio = 1
        x = np.array([1.0])
        lam = np.zeros(1)
        x_next = np.array([math.e])
        loss = stage_loss(x, lam, x_next, lam, np.zeros(1), np.zeros(1), eps=0.0)
        assert loss == pytest.approx(math.log(1 + math.exp(1.5)) - 0.5, abs=1e-9)
        assert loss == pytest.approx(1.20141, abs=1e-5)

    def test_lower_bound_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.standard_normal((2, 4))
            la, lb = rng.standard_normal((2, 3))
            loss = stage_loss(a, la, b, lb, np.zeros(4), np.zeros(3))
            assert loss >= -0.5


@pytest.fixture(scope="module")
def instance():
    prob = generate(FamilySpec("random_qp", 20, 40))
    ref = reference_solution(prob)
    return prob, ref


class TestRollout:

    def test_quick_solve_single_stage_negative_loss(self):
        # interior optimum at the cold start: solved within the first stage
        from relaxqp.problem import QpProblem

        prob = QpProblem(P=np.eye(1), q=np.array([-0.5]), A=np.eye(1),
                         l=-np.ones(1), u=np.ones(1), name="quick")
        ref = reference_solution(prob)
        cfg = SolverConfig(adaptive_rho=False)
        rec = rollout(prob, FixedPolicy(1.6), cfg, 500, ref.x_star, ref.lambda_star)
        assert rec.solved
        assert rec.iterations < 10
        assert len(rec.losses) == 1
        assert rec.losses[0] < 0

    def test_zero_horizon(self, instance):
        prob, ref = instance
        rec = rollout(prob, FixedPolicy(1.6), SolverConfig(), 0, ref.x_star, ref.lambda_star)
        assert rec.losses == []
        assert rec.total_loss == 0.0

    def test_losses_match_trajectory_replay(self, instance):
        prob, ref = instance
        cfg = SolverConfig(adaptive_rho=False)
        rec = rollout(prob, FixedPolicy(1.6), cfg, 500, ref.x_star, ref.lambda_star)

        # replay: capture states at stage boundaries with an observer
        from relaxqp.training import stage_loss as sl

        snaps = []

        def observer(state, res):
            if state.iter % cfg.stage_length == 0 or state.iter == rec.iterations:
                snaps.append((state.iter, state.x.copy(), state.y.copy()))

        solve(prob, replace(cfg, max_iter=500), policy=FixedPolicy(1.6), observer=observer)
        uniq = {}
        for it, x, y in snaps:
            uniq[it] = (x, y)
        keys = sorted(uniq)
        expected = [
            sl(uniq[a][0], uniq[a][1], uniq[b][0], uniq[b][1], ref.x_star, ref.lambda_star)
            for a, b in zip(keys[:-1], keys[1:])
        ]
        assert rec.losses == pytest.approx(expected, abs=1e-12)

    def test_determinism(self, instance):
        prob, ref = instance
        cfg = SolverConfig(adaptive_rho=True)
        r1 = rollout(prob, FixedPolicy(1.6), cfg, 300, ref.x_star, ref.lambda_star)
        r2 = rollout(prob, FixedPolicy(1.6), cfg, 300, ref.x_star, ref.lambda_star)
        assert r1.losses == r2.losses
        assert r1.iterations == r2.iterations

    def test_divergence_scored_with_stage_caps(self, instance, monkeypatch):
        from relaxqp import training
        from relaxqp.errors import DivergenceError

        prob, ref = instance

        def exploding_solve(*args, **kwargs):
            raise DivergenceError(7)

        monkeypatch.setattr(training, "solve", exploding_solve)
        cfg = SolverConfig(adaptive_rho=False)
        rec = rollout(prob, FixedPolicy(1.6), cfg, 500, ref.x_star, ref.lambda_star)
        assert not rec.solved
        assert len(rec.losses) == 50  # horizon / stage length
        cap = shaping(6.0)
        assert all(l == cap for l in rec.losses)
        assert rec.total_loss == pytest.approx(50 * cap)


class KeepingMlpPolicy(MlpPolicy):
    """A vector MLP policy that keeps the relaxation at ``alpha0`` and records,
    at each query, the iteration, the penalty and the unnormalized MLP input
    it reads."""

    def __init__(self):
        super().__init__(init_checkpoint("vector"))
        self.iters, self.rhos, self.inputs = [], [], []

    def propose(self, prob, state, res, res_prev, cfg):
        self.iters.append(state.iter)
        self.rhos.append(state.rho_scalar)
        return super().propose(prob, state, res, res_prev, cfg)

    def predict(self, cfg, phi, rows, m):
        self.inputs.append(np.hstack((np.broadcast_to(phi, (m, phi.size)), rows)))
        return np.full(m, cfg.alpha0), None


def same_stats(a, b) -> bool:
    return a.mean.tobytes() == b.mean.tobytes() and a.std.tobytes() == b.std.tobytes()


class TestCollectNormStats:
    def test_shapes_per_variant(self):
        probs = [generate(FamilySpec("random_qp", 10, s)) for s in (41, 42)]
        cfg = SolverConfig(adaptive_rho=False)
        ns_s = collect_norm_stats(probs, "scalar", cfg)
        assert ns_s.mean.shape == (6,)
        ns_v = collect_norm_stats(probs, "vector", cfg)
        assert ns_v.mean.shape == (13,)
        assert np.all(ns_v.std >= 1e-6)

    @staticmethod
    def queried(prob, cfg):
        """The report and the queries of a KeepingMlpPolicy solve of the
        statistics' horizon."""
        spy = KeepingMlpPolicy()
        return solve(prob, replace(cfg, max_iter=NORM_STATS_HORIZON), policy=spy), spy

    def test_adaptive_rho_rows_read_after_the_penalty_update(self):
        # portfolio_n10_s7's penalty goes from 0.1 to 1.401 at iteration 50,
        # before that boundary's query: the statistics are fitted to what the
        # policy reads there, log 1.401 on the inequality rows (column 11).
        prob = generate(FamilySpec("portfolio", 10, 7))
        cfg = SolverConfig()
        rep, spy = self.queried(prob, cfg)
        assert (rep.rho_updates, spy.iters) == (1, [10, 20, 30, 40, 50])
        assert spy.rhos[-1] == pytest.approx(1.401, abs=5e-4)
        assert np.all(spy.inputs[-1][~prob.equality, 11] == np.log(spy.rhos[-1]))
        assert same_stats(collect_norm_stats([prob], "vector", cfg), fit_norm_stats(spy.inputs))

    def test_no_row_at_the_boundary_a_solve_stops_on(self):
        # portfolio_n10_s4 (adaptive rho) is solved at iteration 40, a
        # boundary that no query reads.
        prob = generate(FamilySpec("portfolio", 10, 4))
        cfg = SolverConfig()
        rep, spy = self.queried(prob, cfg)
        assert (rep.status, rep.iterations, spy.iters) == ("solved", 40, [10, 20, 30])
        assert same_stats(collect_norm_stats([prob], "vector", cfg), fit_norm_stats(spy.inputs))

    def test_no_row_at_or_after_the_freeze(self):
        prob = generate(FamilySpec("portfolio", 10, 7))
        cfg = SolverConfig(adaptive_rho=False, freeze_iter=30)
        _, spy = self.queried(prob, cfg)
        assert spy.iters == [10, 20]
        assert same_stats(collect_norm_stats([prob], "vector", cfg), fit_norm_stats(spy.inputs))

    @pytest.mark.parametrize("variant", ["scalar", "vector"])
    def test_fixed_rho_rows_are_the_boundary_rows(self, variant):
        # Under fixed rho a query reads what an observer reads at the same
        # boundary; s7 stops at iteration 83 and s4 runs the whole horizon,
        # so neither stops on a boundary no query reads.
        probs = [generate(FamilySpec("portfolio", 10, s)) for s in (7, 4)]
        cfg = SolverConfig(adaptive_rho=False)
        want = fit_norm_stats([row for p in probs for row in
                               observed_boundary_inputs(p, variant, cfg, NORM_STATS_HORIZON)])
        assert same_stats(collect_norm_stats(probs, variant, cfg), want)


class TestTrain:
    def _sets(self, n_train, n_val, size=20):
        train_set = []
        for s in range(60, 60 + n_train):
            p = generate(FamilySpec("random_qp", size, s, "train"))
            train_set.append((p, reference_solution(p)))
        val_set = []
        for s in range(90, 90 + n_val):
            p = generate(FamilySpec("random_qp", size, s, "val"))
            val_set.append((p, reference_solution(p)))
        return train_set, val_set

    def test_zero_epochs_returns_initial(self):
        train_set, val_set = self._sets(2, 1)
        ck0 = init_checkpoint("scalar", seed=0)
        cfg = SolverConfig(adaptive_rho=False)
        res = train(train_set, val_set, ck0, TrainConfig(epochs=0, batch_size=2), cfg)
        assert np.array_equal(flatten_params(res.ckpt_iter), flatten_params(ck0))
        assert np.array_equal(flatten_params(res.ckpt_rho), flatten_params(ck0))
        assert res.log_rows == []
        # the initial checkpoint's validation means, with no training loss
        assert res.initial_row == {"epoch": 0, "mean_train_loss": None,
                                   "mean_val_iters": res.ckpt_iter.metadata["val_score"],
                                   "mean_val_rho_updates": res.initial_row["mean_val_rho_updates"]}
        assert res.ckpt_iter.metadata["adaptive_rho"] is res.ckpt_rho.metadata["adaptive_rho"] is False

    def test_no_validation_set_no_initial_row(self):
        train_set, _ = self._sets(2, 0)
        res = train(train_set, [], init_checkpoint("scalar", seed=0),
                    TrainConfig(epochs=1, batch_size=2), SolverConfig(adaptive_rho=True))
        assert res.initial_row is None and len(res.log_rows) == 1
        assert res.ckpt_iter.metadata["adaptive_rho"] is res.ckpt_rho.metadata["adaptive_rho"] is True

    def test_log_row_count_equals_epochs(self):
        train_set, val_set = self._sets(2, 1)
        ck0 = init_checkpoint("scalar", seed=0)
        cfg = SolverConfig(adaptive_rho=False)
        res = train(train_set, val_set, ck0, TrainConfig(epochs=3, batch_size=2, seed=1), cfg)
        assert len(res.log_rows) == 3
        assert [r["epoch"] for r in res.log_rows] == [1, 2, 3]

    def test_selection_dominance(self):
        train_set, val_set = self._sets(4, 2)
        ck0 = init_checkpoint("scalar", seed=0)
        cfg = SolverConfig(adaptive_rho=True)
        res = train(train_set, val_set, ck0, TrainConfig(epochs=4, batch_size=2, seed=2), cfg)
        evaluated = [r["mean_val_iters"] for r in res.log_rows]
        best = res.ckpt_iter.metadata["val_score"]
        assert best <= min(evaluated) or res.ckpt_iter.metadata["epoch"] == 0
        rho_scores = [r["mean_val_rho_updates"] for r in res.log_rows]
        best_rho = res.ckpt_rho.metadata["val_score"]
        assert best_rho <= min(rho_scores) or res.ckpt_rho.metadata["epoch"] == 0

    def test_trained_checkpoint_keeps_invariants(self):
        train_set, val_set = self._sets(3, 1)
        ck0 = init_checkpoint("scalar", seed=0)
        cfg = SolverConfig(adaptive_rho=False)
        res = train(train_set, val_set, ck0, TrainConfig(epochs=2, batch_size=3, seed=3), cfg)
        ck = res.ckpt_iter
        assert ck.W1.shape == (64, 6)
        assert ck.W2.shape == (64, 64)
        assert ck.metadata["selection"] == "iter"

    def test_stage_length_from_the_solver_config(self, monkeypatch):
        # Rollouts and validation solves all run at the solver config's stage length.
        from relaxqp import training

        train_set, val_set = self._sets(2, 1)
        seen = []
        solve = training.solve

        def spy(prob, cfg, **kwargs):
            seen.append(cfg.stage_length)
            return solve(prob, cfg, **kwargs)

        monkeypatch.setattr(training, "solve", spy)
        train(train_set, val_set, init_checkpoint("scalar", seed=0),
              TrainConfig(epochs=1, batch_size=2), SolverConfig(adaptive_rho=False, stage_length=20))
        assert len(seen) == 2 + 2 * 2 and set(seen) == {20}  # 2 validations, 2 rollouts per side

    def test_batch_size_validated(self):
        train_set, val_set = self._sets(2, 1)
        ck0 = init_checkpoint("scalar", seed=0)
        with pytest.raises(InputError):
            train(train_set, val_set, ck0, TrainConfig(batch_size=10), SolverConfig())

    def test_rho_selection_not_worse_on_rho_updates(self):
        train_set, val_set = self._sets(4, 2)
        ck0 = init_checkpoint("scalar", seed=0)
        cfg = SolverConfig(adaptive_rho=True)
        res = train(train_set, val_set, ck0, TrainConfig(epochs=3, batch_size=2, seed=4), cfg)
        from relaxqp.training import _evaluate_validation

        _, rho_iter = _evaluate_validation(res.ckpt_iter, val_set, cfg)
        _, rho_rho = _evaluate_validation(res.ckpt_rho, val_set, cfg)
        assert rho_rho <= rho_iter


class TestTrainConfig:
    @pytest.mark.parametrize("name", ["step_size", "perturbation", "loss_eps"])
    @pytest.mark.parametrize("value", [0.0, -1e-3, np.nan, np.inf, -np.inf, 0, 10**400],
                             ids=["zero", "negative", "nan", "inf", "-inf", "int_zero", "huge_int"])
    def test_positive_finite_fields(self, name, value):
        with pytest.raises(InputError, match=f"'{name}' must be finite and > 0"):
            TrainConfig(**{name: value})
        assert getattr(TrainConfig(**{name: 2.5}), name) == 2.5

    @pytest.mark.parametrize("name", ["epochs", "horizon"])
    def test_non_negative_counts(self, name):
        with pytest.raises(InputError, match=f"'{name}' must be >= 0"):
            TrainConfig(**{name: -1})
        assert getattr(TrainConfig(**{name: 0}), name) == 0
