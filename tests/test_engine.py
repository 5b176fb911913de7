import json
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose

from relaxqp.bench import FamilySpec, generate
from relaxqp.engine import (
    ITERATE_ERRSTATE,
    SolverConfig,
    apply_policy,
    config_from_dict,
    init_state,
    iterate_once,
    maybe_update_rho,
    report_to_dict,
    rho_pattern,
    solve,
)
from relaxqp import engine
from relaxqp import problem as problem_mod
from relaxqp import verify
from relaxqp.errors import DivergenceError, InputError, PolicyError
from relaxqp.linalg import ldlt_solve
from relaxqp.policy import init_checkpoint, policy_from_checkpoint
from relaxqp.problem import QpProblem, osqp_residuals

from oracles import FixedPolicy, random_box_qp, relaxed_admm_transcription, splitting_residuals

INF = np.inf


def one_dim_box():
    # min 0.5 x^2  s.t.  0 <= x <= 1
    return QpProblem(P=np.eye(1), q=np.zeros(1), A=np.eye(1),
                     l=np.zeros(1), u=np.ones(1), name="1d")


class TestParameterBounds:
    def test_alpha0_outside_bounds_rejected(self):
        with pytest.raises(InputError, match="alpha0"):
            SolverConfig(alpha0=1.99)

    def test_rho_pattern(self):
        equality = np.array([False, True, False])
        assert_allclose(rho_pattern(equality, 0.1), [0.1, 100.0, 0.1])


class TestInitState:
    def test_defaults(self):
        prob = one_dim_box()
        st = init_state(prob, SolverConfig())
        assert_allclose(st.Gamma, [1.6])
        assert_allclose(st.R, [0.1])
        assert st.alpha_x == 1.6
        assert st.n_factorizations == 1
        assert st.iter == 0
        assert st.x_tilde is None and st.z_tilde is None

    def test_equality_row_weight(self):
        prob = QpProblem(P=np.eye(1), q=np.zeros(1),
                         A=np.array([[1.0], [1.0]]),
                         l=np.array([0.0, -1.0]), u=np.array([0.0, 1.0]))
        st = init_state(prob, SolverConfig(rho0=0.1))
        assert_allclose(st.R, [100.0, 0.1])

    def test_loose_row_uses_plain_rho(self):
        prob = QpProblem(P=np.eye(1), q=np.zeros(1), A=np.array([[1.0]]),
                         l=np.array([-INF]), u=np.array([INF]))
        st = init_state(prob, SolverConfig(rho0=0.1))
        assert_allclose(st.R, [0.1])


class TestIterateOnce:
    @pytest.fixture(autouse=True)
    def _errstate(self):
        # The floating-point error state solve and the drift runs step under.
        with np.errstate(**ITERATE_ERRSTATE):
            yield

    def test_fixed_point_at_origin(self):
        prob = one_dim_box()
        cfg = SolverConfig(adaptive_rho=False)
        st = init_state(prob, cfg)
        iterate_once(st, prob, cfg)
        res = osqp_residuals(prob, st.x, st.z, st.y)
        assert res.r_prim_inf <= 1e-12
        assert res.r_dual_inf <= 1e-12

    def test_projection_feasibility_every_iteration(self):
        prob = generate(FamilySpec("random_qp", 10, 4))
        cfg = SolverConfig(adaptive_rho=False, max_iter=50)
        st = init_state(prob, cfg)
        for _ in range(50):
            iterate_once(st, prob, cfg)
            assert np.all(st.z >= prob.l) and np.all(st.z <= prob.u)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_transcription_oracle_three_steps(self, seed):
        rng = np.random.default_rng(seed)
        prob = random_box_qp(rng, 8, 5, name="transcript")
        cfg = SolverConfig(adaptive_rho=False, rho0=0.1, alpha0=1.6)
        st = init_state(prob, cfg)
        traj = relaxed_admm_transcription(
            prob, st.R, alpha=1.6, sigma=cfg.sigma, n_iters=3
        )
        for x_ref, z_ref, y_ref in traj:
            iterate_once(st, prob, cfg)
            assert np.max(np.abs(st.x - x_ref)) <= 1e-12 * (1 + np.max(np.abs(x_ref)))
            assert np.max(np.abs(st.z - z_ref)) <= 1e-12 * (1 + np.max(np.abs(z_ref)))
            assert np.max(np.abs(st.y - y_ref)) <= 1e-12 * (1 + np.max(np.abs(y_ref)))

    def test_unrelaxed_reduction(self):
        # relaxation = 1 on all coordinates reproduces the unrelaxed iteration
        rng = np.random.default_rng(7)
        prob = random_box_qp(rng, 6, 4)
        cfg = SolverConfig(adaptive_rho=False, alpha0=1.0, alpha_min=1.0, alpha_max=1.0)
        st = init_state(prob, cfg)
        traj = relaxed_admm_transcription(
            prob, st.R, alpha=1.0, sigma=cfg.sigma, n_iters=20
        )
        for x_ref, z_ref, y_ref in traj:
            iterate_once(st, prob, cfg)
            scale = 1 + np.max(np.abs(x_ref))
            assert np.max(np.abs(st.x - x_ref)) <= 1e-12 * scale
            assert np.max(np.abs(st.z - z_ref)) <= 1e-12 * scale
            assert np.max(np.abs(st.y - y_ref)) <= 1e-12 * scale

    def test_divergence_detected(self):
        prob = one_dim_box()
        cfg = SolverConfig(adaptive_rho=False)
        st = init_state(prob, cfg)
        st.x = np.array([np.inf])
        with pytest.raises(DivergenceError) as exc:
            iterate_once(st, prob, cfg)
        assert exc.value.iteration == 1

    @pytest.mark.parametrize("value", [INF, np.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("name", ["x", "z", "y"])
    def test_divergence_from_one_non_finite_input(self, name, value):
        prob = one_dim_box()
        cfg = SolverConfig(adaptive_rho=False)
        st = init_state(prob, cfg)
        setattr(st, name, np.array([value]))
        with pytest.raises(DivergenceError) as exc:
            iterate_once(st, prob, cfg)
        assert exc.value.iteration == 1 and st.iter == 0

    @pytest.mark.parametrize("value", [INF, np.nan], ids=["inf", "nan"])
    def test_divergence_in_x_alone(self, value):
        # Without constraint rows z and y are empty: only x is non-finite.
        prob = QpProblem(P=np.eye(2), q=np.zeros(2), A=np.zeros((0, 2)), l=np.zeros(0), u=np.zeros(0))
        cfg = SolverConfig(adaptive_rho=False)
        st = init_state(prob, cfg)
        st.x = np.array([value, 0.0])
        with pytest.raises(DivergenceError) as exc:
            iterate_once(st, prob, cfg)
        assert exc.value.iteration == 1

    def test_divergence_in_y_alone(self):
        # Without variables x is empty, and the bounded projection keeps z
        # finite: only y is non-finite.
        prob = QpProblem(P=np.zeros((0, 0)), q=np.zeros(0), A=np.zeros((2, 0)),
                         l=-np.ones(2), u=np.ones(2))
        cfg = SolverConfig(adaptive_rho=False)
        st = init_state(prob, cfg)
        st.y = np.array([INF, 0.0])
        with pytest.raises(DivergenceError) as exc:
            iterate_once(st, prob, cfg)
        assert exc.value.iteration == 1

    def test_finite_iterate_whose_sum_overflows_is_not_divergent(self):
        prob = QpProblem(P=np.eye(2), q=np.zeros(2), A=np.eye(2),
                         l=np.full(2, -INF), u=np.full(2, INF))
        cfg = SolverConfig(adaptive_rho=False)
        st = init_state(prob, cfg)
        st.x = np.full(2, -1.7e308)
        iterate_once(st, prob, cfg)
        assert st.iter == 1
        assert all(np.isfinite(v).all() for v in (st.x, st.z, st.y))
        assert np.all(np.abs(st.x) > 1e308)
        with np.errstate(over="ignore"):
            assert not np.isfinite(st.x.sum() + st.z.sum() + st.y.sum())


def solve_last_step_residuals(prob, cfg):
    """Solve to termination; return the report, the final state and the
    splitting residuals of the last step.  The observer keeps references to
    the previous iterate, as a step binds new arrays, and no penalty update
    follows the step that terminates."""
    seen = []

    def observer(state, res):
        seen.append((state.x, state.z, state))

    rep = solve(prob, cfg, observer=observer)
    (x_prev, z_prev, _), (_, _, st) = seen[-2:]
    return rep, st, splitting_residuals(st, x_prev, z_prev, cfg.sigma)


class TestTheoremResiduals:
    def test_zero_change_gives_zero_dual_part(self):
        prob = one_dim_box()
        cfg = SolverConfig(adaptive_rho=False)
        st = init_state(prob, cfg)
        x0, z0 = st.x, st.z
        iterate_once(st, prob, cfg)
        r_vec, s_vec = splitting_residuals(st, x0, z0, cfg.sigma)
        # the 1-d instance is solved in one step from the origin: no movement
        assert np.max(np.abs(s_vec)) <= 1e-15
        assert np.max(np.abs(r_vec)) <= 1e-15

    def test_hand_computed_step(self):
        # min 0.5 x^2 s.t. 0.5 <= x <= 1, rho = 1, alpha = 1, sigma = 1e-6
        prob = QpProblem(P=np.eye(1), q=np.zeros(1), A=np.eye(1),
                         l=np.array([0.5]), u=np.array([1.0]))
        cfg = SolverConfig(adaptive_rho=False, rho0=1.0, alpha0=1.0,
                           alpha_min=1.0, alpha_max=1.0, sigma=1e-6)
        st = init_state(prob, cfg)
        x0, z0 = st.x, st.z
        iterate_once(st, prob, cfg)
        s = cfg.sigma
        # KKT: (1 + s) xt - nu = 0; xt - nu = 0  =>  xt = nu = 0
        # zt = 0; w = 0; z1 = clip(0, 0.5, 1) = 0.5; y1 = 1 * (0 - 0.5) = -0.5
        assert st.x[0] == pytest.approx(0.0, abs=1e-12)
        assert st.z[0] == pytest.approx(0.5)
        assert st.y[0] == pytest.approx(-0.5)
        r_vec, s_vec = splitting_residuals(st, x0, z0, s)
        # r = (xt - x1, zt - z1) = (0, -0.5); s = (-s*(x1-x0), -rho*(z1-z0))
        assert_allclose(r_vec, [0.0, -0.5], atol=1e-12)
        assert_allclose(s_vec, [0.0, -0.5], atol=1e-12)

    def test_small_at_convergence(self):
        prob = generate(FamilySpec("random_qp", 10, 6))
        cfg = SolverConfig(adaptive_rho=True, eps_abs=1e-9, eps_rel=1e-9)
        rep, _, (r_vec, s_vec) = solve_last_step_residuals(prob, cfg)
        assert rep.status == "solved"
        assert np.max(np.abs(r_vec)) <= 1e-6
        assert np.max(np.abs(s_vec)) <= 1e-6

    @pytest.mark.parametrize("family,size", [("random_qp", 20), ("portfolio", 10),
                                             ("lasso", 10), ("svm", 10), ("control", 10)])
    @pytest.mark.parametrize("adaptive", [False, True])
    def test_bounded_by_stopping_tolerance_at_termination(self, family, size, adaptive):
        prob = generate(FamilySpec(family, size, 1))
        cfg = SolverConfig(adaptive_rho=adaptive)
        rep, st, (r_vec, s_vec) = solve_last_step_residuals(prob, cfg)
        assert rep.status == "solved"
        prim_scale = max(np.max(np.abs(prob.A @ st.x)), np.max(np.abs(st.z)))
        dual_scale = max(
            np.max(np.abs(prob.P @ st.x)), np.max(np.abs(prob.A.T @ st.y)),
            np.max(np.abs(prob.q)),
        )
        bound = 10.0 * (cfg.eps_abs + cfg.eps_rel * max(prim_scale, dual_scale))
        assert np.max(np.abs(r_vec)) <= bound
        assert np.max(np.abs(s_vec)) <= bound


class TestRhoUpdate:
    def _state_with_residuals(self):
        prob = generate(FamilySpec("random_qp", 8, 2))
        cfg = SolverConfig()
        st = init_state(prob, cfg)
        for _ in range(3):
            iterate_once(st, prob, cfg)
        res = osqp_residuals(prob, st.x, st.z, st.y)
        return prob, cfg, st, res

    def test_balanced_residuals_no_update(self):
        prob, cfg, st, res = self._state_with_residuals()
        # equalize the scale-normalized residuals by construction: ratio sqrt(1) = 1
        forced = replace(res, r_prim_inf=res.prim_scale, r_dual_inf=res.dual_scale)
        _, refactored = maybe_update_rho(st, forced, prob, cfg)
        assert not refactored
        assert st.rho_updates == 0

    def test_hundredfold_imbalance_fires(self):
        prob, cfg, st, res = self._state_with_residuals()
        rho_before = st.rho_scalar
        facts_before = st.n_factorizations
        forced = replace(res, r_prim_inf=100.0 * res.prim_scale, r_dual_inf=res.dual_scale)
        _, refactored = maybe_update_rho(st, forced, prob, cfg)
        assert refactored
        assert st.rho_scalar == pytest.approx(10.0 * rho_before)
        assert st.rho_updates == 1
        assert st.n_factorizations == facts_before + 1

    def test_disabled_means_zero_updates(self):
        prob = generate(FamilySpec("random_qp", 10, 7))
        rep = solve(prob, SolverConfig(adaptive_rho=False))
        assert rep.rho_updates == 0
        assert rep.factorizations == 1


class TestApplyPolicy:
    def test_fixed_policy_forever(self):
        prob = generate(FamilySpec("random_qp", 8, 8))
        cfg = SolverConfig(adaptive_rho=False, max_iter=200, eps_abs=1e-300, eps_rel=1e-300)
        gammas = []

        def observer(state, res):
            gammas.append(state.Gamma.copy())

        solve(prob, cfg, policy=FixedPolicy(1.6), observer=observer)
        assert all(np.all(g == 1.6) for g in gammas)

    def test_freeze_after_limit(self):
        prob = generate(FamilySpec("random_qp", 8, 9))
        cfg = SolverConfig(adaptive_rho=False, max_iter=520, freeze_iter=500,
                           eps_abs=1e-300, eps_rel=1e-300)

        queried = []

        class Wobble:
            def propose(self, prob, state, res, res_prev, cfg):
                queried.append(state.iter)
                a = 1.5 + 0.1 * np.sin(state.iter)
                return np.full(prob.m, a), a

        snap = {}

        def observer(state, res):
            if state.iter == 499:
                snap["at499"] = state.Gamma.copy()
            if state.iter >= 500:
                snap.setdefault("after", []).append(state.Gamma.copy())

        solve(prob, cfg, policy=Wobble(), observer=observer)
        for g in snap["after"]:
            assert np.array_equal(g, snap["at499"])
        # the policy is not queried from the freeze iteration on
        assert queried and max(queried) < cfg.freeze_iter

    def test_nonfinite_policy_raises_and_preserves_gamma(self):
        prob = generate(FamilySpec("random_qp", 8, 10))
        cfg = SolverConfig(adaptive_rho=False)
        st = init_state(prob, cfg)
        st.iter = 10
        before = st.Gamma.copy()

        class Bad:
            def propose(self, prob, state, res, res_prev, cfg):
                return np.full(prob.m, np.nan), np.nan

        with pytest.raises(PolicyError):
            apply_policy(st, Bad(), prob, None, None, cfg)
        assert np.array_equal(st.Gamma, before)

    def test_policy_outputs_clamped(self):
        prob = generate(FamilySpec("random_qp", 8, 11))
        cfg = SolverConfig(adaptive_rho=False)
        st = init_state(prob, cfg)
        st.iter = 10

        class Wild:
            def propose(self, prob, state, res, res_prev, cfg):
                return np.full(prob.m, 5.0), 0.1

        apply_policy(st, Wild(), prob, None, None, cfg)
        assert np.all(st.Gamma == cfg.alpha_max)
        assert st.alpha_x == cfg.alpha_min

    def test_none_keeps_the_decision_space_relaxation(self):
        prob = generate(FamilySpec("random_qp", 8, 11))
        cfg = SolverConfig(adaptive_rho=False)
        st = init_state(prob, cfg)
        st.iter, st.alpha_x = 10, 1.3

        class RowsOnly:
            def propose(self, prob, state, res, res_prev, cfg):
                return np.full(prob.m, 1.7), None

        apply_policy(st, RowsOnly(), prob, None, None, cfg)
        assert np.all(st.Gamma == 1.7) and st.alpha_x == 1.3

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_vector_policy_without_constraint_rows(self, adaptive):
        # With m = 0 a vector policy has no row outputs to average: alpha_x
        # keeps its value and the solve is the fixed 1.6 one.
        prob = QpProblem(P=np.eye(3), q=np.array([1.0, -2.0, 0.5]), A=np.zeros((0, 3)),
                         l=np.zeros(0), u=np.zeros(0))
        cfg = SolverConfig(adaptive_rho=adaptive)
        policy = policy_from_checkpoint(init_checkpoint("vector", seed=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solve(prob, cfg, policy=policy)
        want = solve(prob, cfg, policy=FixedPolicy(1.6))
        assert rep.status == want.status == "solved"
        assert rep.iterations == want.iterations
        assert np.array_equal(rep.x, want.x)
        assert rep.policy_queries == (rep.iterations - 1) // cfg.stage_length


class TestPolicyReport:
    def test_queries_counted_up_to_the_freeze(self):
        prob = generate(FamilySpec("random_qp", 8, 9))
        cfg = SolverConfig(adaptive_rho=False, max_iter=520, freeze_iter=500,
                           eps_abs=1e-300, eps_rel=1e-300)
        rep = solve(prob, cfg, policy=FixedPolicy(1.5))
        assert rep.iterations == 520
        assert rep.policy_queries == 49  # iterations 10, 20, ..., 490
        assert 0.0 < rep.policy_seconds < rep.runtime_seconds

    def test_no_policy_no_queries(self):
        rep = solve(generate(FamilySpec("random_qp", 8, 9)), SolverConfig())
        assert rep.policy_queries == 0 and rep.policy_seconds == 0.0

    def test_report_document_carries_them(self):
        prob = generate(FamilySpec("portfolio", 10, 2))
        policy = policy_from_checkpoint(init_checkpoint("vector", seed=2))
        rep = solve(prob, SolverConfig(adaptive_rho=False), policy=policy)
        doc = report_to_dict(rep)
        assert doc["policy_queries"] == rep.policy_queries == (rep.iterations - 1) // 10
        assert doc["policy_seconds"] == rep.policy_seconds > 0.0


class TestSolve:
    def test_trivial_solves(self):
        rep = solve(one_dim_box(), SolverConfig(adaptive_rho=False))
        assert rep.status == "solved"
        assert rep.iterations >= 1
        assert rep.objective == pytest.approx(0.0, abs=1e-12)

    def test_max_iter_status(self):
        prob = generate(FamilySpec("random_qp", 20, 12))
        rep = solve(prob, SolverConfig(max_iter=1))
        assert rep.status == "max_iter"
        assert rep.iterations == 1

    def test_residual_history_every_iteration(self):
        prob = generate(FamilySpec("random_qp", 10, 13))
        rep = solve(prob, SolverConfig(adaptive_rho=False))
        iters = [row[0] for row in rep.residual_history]
        assert iters == list(range(rep.iterations + 1))

    def test_gamma_bounds_always_respected(self):
        prob = generate(FamilySpec("random_qp", 10, 14))
        cfg = SolverConfig(max_iter=300, eps_abs=1e-300, eps_rel=1e-300)

        class Runaway:
            def propose(self, prob, state, res, res_prev, cfg):
                a = 1.6 + 10.0 * np.sin(3.0 * state.iter)
                return np.full(prob.m, a), a

        seen = []

        def observer(state, res):
            seen.append(state.Gamma.copy())

        solve(prob, cfg, policy=Runaway(), observer=observer)
        allg = np.concatenate(seen)
        assert np.all(allg >= cfg.alpha_min) and np.all(allg <= cfg.alpha_max)

    def test_refactorization_accounting(self):
        prob = generate(FamilySpec("portfolio", 20, 3))
        rep = solve(prob, SolverConfig(adaptive_rho=True))
        assert rep.factorizations == 1 + rep.rho_updates

    def test_report_copies_the_final_iterate(self):
        prob = generate(FamilySpec("svm", 10, 1))
        final = {}

        def observer(state, res):
            final["state"] = state

        rep = solve(prob, SolverConfig(), observer=observer)
        st = final["state"]
        for name in ("x", "z", "y"):
            got, want = getattr(rep, name), getattr(st, name)
            assert got is not want and got.tobytes() == want.tobytes(), name

    def test_recorder_is_rejected(self):
        # solve's one per-iteration hook is the observer
        with pytest.raises(InputError):
            solve(one_dim_box(), SolverConfig(), recorder=object())

    def test_time_varying_gamma_with_summable_drift_solves(self):
        rng = np.random.default_rng(2)
        prob = random_box_qp(rng, 30, 18)
        cfg = SolverConfig(adaptive_rho=False, max_iter=10000)

        class SinDrift:
            # bounded per-step change 0.5/(k+1)^2 around a sinusoidal target
            def __init__(self):
                self.curr = 1.6

            def propose(self, prob, state, res, res_prev, cfg):
                k = state.iter
                target = 1.6 + 0.3 * np.sin(0.1 * k)
                step = np.clip(target - self.curr, -0.5 / (k + 1) ** 2, 0.5 / (k + 1) ** 2)
                self.curr = float(np.clip(self.curr + step, 1.25, 1.95))
                return np.full(prob.m, self.curr), self.curr

        rep = solve(prob, cfg, policy=SinDrift())
        assert rep.status == "solved"


ROW_KINDS = ("equality", "box", "lower", "upper", "loose")


@hst.composite
def feasible_qps(draw):
    """Small QP with l <= A x0 <= u at a random x0: P = B B' + diag(d) is PSD
    and may be singular; each row is an equality, a box, one-sided or loose."""
    n = draw(hst.integers(1, 6))
    m = draw(hst.integers(1, 6))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    B = rng.standard_normal((n, draw(hst.integers(0, n))))
    d = rng.uniform(0.0, 1.0, size=n) * draw(hst.booleans())
    A = rng.standard_normal((m, n))
    Ax0 = A @ rng.standard_normal(n)
    l = Ax0 - rng.uniform(0.0, 2.0, size=m)
    u = Ax0 + rng.uniform(0.0, 2.0, size=m)
    for i, kind in enumerate(draw(hst.lists(hst.sampled_from(ROW_KINDS), min_size=m, max_size=m))):
        if kind == "equality":
            l[i] = u[i] = Ax0[i]
        if kind in ("upper", "loose"):
            l[i] = -INF
        if kind in ("lower", "loose"):
            u[i] = INF
    return QpProblem(P=B @ B.T + np.diag(d), q=rng.standard_normal(n), A=A, l=l, u=u)


def vector_policy():
    ckpt = init_checkpoint("vector", seed=3)
    return policy_from_checkpoint(
        replace(ckpt, w_out=np.random.default_rng(3).normal(scale=0.1, size=ckpt.w_out.size))
    )


class TestSolveProperties:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(feasible_qps(), hst.booleans(), hst.sampled_from(["fixed", "vector"]))
    def test_factorizations_and_feasible_z(self, prob, adaptive, policy):
        cfg = SolverConfig(adaptive_rho=adaptive, max_iter=300, rho_check_interval=5,
                           stage_length=3)
        outside = []

        def observer(state, res):
            # Only the cold start z = 0 may lie outside [l, u].
            if state.iter and not np.all((prob.l <= state.z) & (state.z <= prob.u)):
                outside.append(state.iter)

        rep = solve(prob, cfg, policy=FixedPolicy() if policy == "fixed" else vector_policy(),
                    observer=observer)
        assert rep.factorizations == 1 + rep.rho_updates
        assert outside == []


ITERATE_FIELDS = ("x", "z", "y", "R", "Gamma", "x_tilde", "z_tilde")


class KeepAndCopy:
    """Observer that keeps, at every call, a reference to each iterate array
    of the state and a copy of it."""

    def __init__(self):
        self.kept, self.copied = [], []

    def __call__(self, state, res=None):
        arrays = {name: getattr(state, name) for name in ITERATE_FIELDS}
        self.kept.append(arrays)
        self.copied.append({name: None if a is None else a.copy() for name, a in arrays.items()})

    def distinct(self, name: str) -> int:
        return len({c[name].tobytes() for c in self.copied})

    def assert_references_hold_their_values(self):
        assert len(self.kept) > 1
        for k, (kept, copied) in enumerate(zip(self.kept, self.copied)):
            for name in ITERATE_FIELDS:
                a, b = kept[name], copied[name]
                if b is None:
                    assert a is None, (k, name)
                else:
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (k, name)


class TestNoInPlaceWrites:
    """A step, penalty update or policy query binds new arrays and never writes
    into those the state held, so an observer may keep references instead of
    copies (verify.Trajectory, run_drift_experiment and training.rollout do)."""

    @pytest.mark.parametrize("adaptive", [False, True])
    @pytest.mark.parametrize("policy", [None, "vector"])
    def test_solve(self, adaptive, policy):
        prob = generate(FamilySpec("portfolio", 10, 1))
        cfg = SolverConfig(adaptive_rho=adaptive, rho_check_interval=5, stage_length=3)
        obs = KeepAndCopy()
        rep = solve(prob, cfg, policy=vector_policy() if policy else None, observer=obs)
        assert rep.status == "solved"
        assert (rep.rho_updates > 0) == adaptive
        assert (obs.distinct("Gamma") > 1) == (policy is not None)
        obs.assert_references_hold_their_values()

    def test_drift_run(self, monkeypatch):
        # the drift run perturbs R (refactoring) and Gamma after every step
        prob = generate(FamilySpec("random_qp", 10, 3))
        obs = KeepAndCopy()
        step = verify.iterate_once

        def observed_step(state, prob, cfg):
            obs(state)
            step(state, prob, cfg)
            obs(state)
            return state

        monkeypatch.setattr(verify, "iterate_once", observed_step)
        horizon = 60
        res = verify.run_drift_experiment(
            prob, verify.DriftSchedule.inverse_square(horizon), horizon, SolverConfig(), 0.0
        )
        assert res.iterations == horizon
        assert obs.distinct("R") > 2 and obs.distinct("Gamma") > 2
        obs.assert_references_hold_their_values()


    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_kkt_matrices_and_factors(self, monkeypatch, backend):
        # Every refill returns a new H and every refactor a new factor, so
        # those taken before a penalty update keep their values after it.
        monkeypatch.setattr(problem_mod, "pick_backend", lambda n, m, nnz: backend)
        prob = generate(FamilySpec("lasso", 10, seed=1))
        assemble, kept, factors = engine.assemble_kkt, [], []
        b = np.linspace(-1.0, 1.0, prob.n)

        def keep(*args):
            H = assemble(*args)
            kept.append((H, H.copy()))
            return H

        def observer(state, res):
            if not factors or factors[-1][0] is not state.kkt:
                factors.append((state.kkt, ldlt_solve(state.kkt, b)))

        monkeypatch.setattr(engine, "assemble_kkt", keep)
        rep = solve(prob, SolverConfig(rho_check_interval=5), observer=observer)
        assert rep.rho_updates >= 2
        assert len(kept) == len(factors) == rep.factorizations
        assert "_parts" in prob.kkt_terms.__dict__  # the matrices were refilled
        dense = [H.toarray() if backend == "sparse" else H for H, _ in kept]
        for H, copy in zip(dense, (c.toarray() if backend == "sparse" else c for _, c in kept)):
            assert H.tobytes() == copy.tobytes()
        for F, v in factors:
            assert ldlt_solve(F, b).tobytes() == v.tobytes()
        data = [H.data if backend == "sparse" else H for H, _ in kept]
        assert not any(np.shares_memory(a, c) for i, a in enumerate(data) for c in data[i + 1:])


class TestKktTermsReuse:
    @pytest.mark.parametrize("family,size", [("lasso", 10), ("lasso", 20)])
    def test_second_solve_reuses_the_terms(self, family, size):
        # lasso_n20 runs on the sparse backend, lasso_n10 on the dense one.
        prob = generate(FamilySpec(family, size, seed=1))
        cfg = SolverConfig(rho_check_interval=5)
        first = solve(prob, cfg)
        terms = prob.kkt_terms
        parts = terms.__dict__["_parts"]
        second = solve(prob, cfg)
        assert prob.kkt_terms is terms and terms.__dict__["_parts"] is parts
        assert (second.status, second.iterations, second.rho_updates, second.factorizations) == (
            first.status, first.iterations, first.rho_updates, first.factorizations)
        assert second.x.tobytes() == first.x.tobytes()

    def test_drift_refactors_take_the_all_rows_product(self, monkeypatch):
        # The drift run's per-row penalties have no levels: after the first
        # factor, every assembly is the product over all rows.
        prob = generate(FamilySpec("portfolio", 10, seed=1))
        calls = []
        assemble = engine.assemble_kkt

        def spy(P, A, sigma, r, terms=None):
            calls.append(terms is not None and terms.levels(r) is not None)
            return assemble(P, A, sigma, r, terms)

        monkeypatch.setattr(engine, "assemble_kkt", spy)
        horizon = 20
        verify.run_drift_experiment(
            prob, verify.DriftSchedule.inverse_square(horizon), horizon, SolverConfig(), 0.0
        )
        assert calls == [True] + [False] * (len(calls) - 1) and len(calls) > 2


class TestKktBackend:
    @pytest.mark.parametrize("family,size", [("lasso", 20), ("svm", 50), ("portfolio", 149)])
    @pytest.mark.parametrize("adaptive", [False, True])
    def test_backends_give_identical_counts(self, monkeypatch, family, size, adaptive):
        # The rule is read once per problem, so a fresh instance per backend
        # picks up the forced choice.
        cfg = SolverConfig(adaptive_rho=adaptive)
        reports = {}
        for backend in ("dense", "sparse"):
            monkeypatch.setattr(problem_mod, "pick_backend", lambda n, m, nnz, b=backend: b)
            prob = generate(FamilySpec(family, size, seed=1))
            reports[backend] = solve(prob, cfg)
            assert reports[backend].kkt_backend == backend
        dense, sp = reports["dense"], reports["sparse"]
        assert dense.status == sp.status == "solved"
        assert (sp.iterations, sp.rho_updates, sp.factorizations) == (
            dense.iterations, dense.rho_updates, dense.factorizations
        )
        assert_allclose(sp.x, dense.x, rtol=1e-6, atol=1e-8)

    def test_operators_follow_the_backend(self, monkeypatch):
        prob = generate(FamilySpec("lasso", 10, seed=1))
        assert prob.kkt_backend == "dense"
        A, AT, P = prob.operators
        assert A is prob.A and P is prob.P and AT.base is prob.A
        monkeypatch.setattr(problem_mod, "pick_backend", lambda n, m, nnz: "sparse")
        prob = generate(FamilySpec("lasso", 10, seed=1))
        A, AT, P = prob.operators
        assert (A.format, AT.format, P.format) == ("csr", "csr", "csr")
        assert np.array_equal(A.toarray(), prob.A) and np.array_equal(AT.toarray(), prob.A.T)
        assert np.array_equal(P.toarray(), prob.P)
        assert prob.operators is prob.operators  # converted once


class TestConfigFile:
    def test_roundtrip(self):
        cfg = SolverConfig(rho0=0.2, adaptive_rho=False, max_iter=77)
        again = config_from_dict(json.loads(json.dumps(asdict(cfg))))
        assert again == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(InputError):
            config_from_dict({"rho_zero": 1.0})

    @pytest.mark.parametrize("name", ["rho0", "sigma", "eps_abs", "eps_rel"])
    @pytest.mark.parametrize("value", [0.0, -1e-3, np.nan, np.inf, -np.inf, 0, 10**400],
                             ids=["zero", "negative", "nan", "inf", "-inf", "int_zero", "huge_int"])
    def test_positive_finite_fields(self, name, value):
        with pytest.raises(InputError, match=f"'{name}' must be finite and > 0"):
            SolverConfig(**{name: value})
        assert getattr(SolverConfig(**{name: 2.5}), name) == 2.5

    def test_validation(self):
        with pytest.raises(InputError):
            SolverConfig(max_iter=0)
        with pytest.raises(InputError):
            SolverConfig(alpha_min=0.5, alpha_max=2.5)
