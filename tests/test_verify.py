import re
from dataclasses import fields

import numpy as np
import pytest

from relaxqp import verify
from relaxqp.bench import FamilySpec, generate, reference_solution
from relaxqp.engine import SolverConfig
from relaxqp.errors import InputError, TheoryViolationError
from relaxqp.problem import QpProblem, normal_cone_gap, objective
from relaxqp.verify import (
    SIGNS,
    DriftSchedule,
    TrajectoryStep,
    check_descent,
    reconstruct_drs,
    record_trajectory,
    run_drift_experiment,
)

from oracles import (
    RandomGammaPolicy,
    check_descent_per_step,
    drift_per_step,
    random_box_qp,
    reconstruct_drs_per_step,
    record_per_step,
)


def reference_triple(prob):
    ref = reference_solution(prob)
    z_star = np.clip(prob.A @ ref.x_star, prob.l, prob.u)
    return ref.x_star, z_star, ref.lambda_star, ref.objective


class TestReconstructDrs:
    def test_constant_penalty_means_no_perturbation(self):
        prob = generate(FamilySpec("random_qp", 10, 20))
        steps = record_trajectory(prob, SolverConfig(adaptive_rho=False), 50)
        chk = reconstruct_drs(steps, prob)
        # the metric never moves, so both sides of the perturbation identity
        # are exactly zero at every step
        assert np.array_equal(steps.r[1:], steps.r[:-1])
        assert chk.max_perturbation_violation == 0.0 and chk.worst_perturbation_step == 0
        assert 0.0 < chk.max_transition_violation <= 1e-9

    def test_hand_instance_two_steps(self):
        # min 0.5 x^2 s.t. 0.5 <= x <= 1, rho = 1, alpha = 1:
        # the dual state on the constraint row is y + rho * z.
        prob = QpProblem(P=np.eye(1), q=np.zeros(1), A=np.eye(1),
                         l=np.array([0.5]), u=np.array([1.0]))
        s = 1e-6
        cfg = SolverConfig(adaptive_rho=False, rho0=1.0, alpha0=1.0,
                           alpha_min=1.0, alpha_max=1.0, sigma=s)
        steps = record_trajectory(prob, cfg, 2)
        chk = reconstruct_drs(steps, prob)
        # step 1 from the origin: xt = 0, z_1 = clip(0) = 0.5, y_1 = -0.5,
        # so the constraint row of the y-state is y_1 + z_1 = 0.
        assert steps.y[1, 0] == pytest.approx(-0.5) and steps.z[1, 0] == pytest.approx(0.5)
        assert steps.y[1, 0] + steps.r[1, 0] * steps.z[1, 0] == pytest.approx(0.0, abs=1e-12)
        # step 2: xt = 1/(2+s), y_2 = -(1+s)/(2+s), z_2 = 0.5, so the
        # constraint row of the y-state is exactly -s / (2 (2+s)).
        assert steps.y[2, 0] + steps.r[2, 0] * steps.z[2, 0] == pytest.approx(
            -s / (2 * (2 + s)), rel=1e-6)
        # both steps meet the identities those states satisfy
        assert chk.max_transition_violation <= 1e-12
        assert chk.max_perturbation_violation == 0.0
        assert (chk.worst_transition_step, chk.worst_perturbation_step) == (
            reconstruct_drs_per_step(steps, prob).worst_transition_step, 0)

    def test_identities_hold_with_adaptive_rho(self):
        rng = np.random.default_rng(21)
        prob = random_box_qp(rng, 15, 10)
        steps = record_trajectory(prob, SolverConfig(adaptive_rho=True), 200)
        chk = reconstruct_drs(steps, prob)
        assert chk.max_transition_violation <= 1e-9
        assert chk.max_perturbation_violation <= 1e-9

    def test_problem_of_another_size_is_an_input_error(self):
        small, large = (generate(FamilySpec("random_qp", n, 1)) for n in (10, 20))
        steps = record_trajectory(small, SolverConfig(), 20)
        want = (f"trajectory of (n, m) = ({small.n}, {small.m}) checked against problem "
                f"'{large.name}' of (n, m) = ({large.n}, {large.m})")
        with pytest.raises(InputError, match=re.escape(want)):
            reconstruct_drs(steps, large)

    def test_fault_injection_detected(self, inject_relaxation_fault):
        prob = generate(FamilySpec("random_qp", 10, 22))
        cfg = SolverConfig(adaptive_rho=False)
        inject_relaxation_fault()
        steps = record_trajectory(prob, cfg, 20)
        with pytest.raises(TheoryViolationError):
            reconstruct_drs(steps, prob)


class TestCheckDescent:
    def test_fixed_point_zero_slack(self):
        # start the 1-d problem at its optimum: x* = 0 interiorly feasible
        prob = QpProblem(P=np.eye(1), q=np.zeros(1), A=np.eye(1),
                         l=np.array([-1.0]), u=np.array([1.0]))
        steps = record_trajectory(prob, SolverConfig(adaptive_rho=False), 3)
        x_s, z_s, lam_s, _ = reference_triple(prob)
        slacks = check_descent(steps, x_s, z_s, lam_s, alpha_max=1.95)
        assert np.all(np.abs(slacks) <= 1e-12)

    @pytest.mark.parametrize("alpha_max,alpha_run", [(0.5, 0.5), (1.0, 0.9), (1.95, 1.95)])
    def test_slack_nonnegative_across_relaxations(self, alpha_max, alpha_run):
        rng = np.random.default_rng(int(alpha_max * 100))
        prob = random_box_qp(rng, 12, 8)
        cfg = SolverConfig(adaptive_rho=True, alpha0=alpha_run,
                           alpha_min=min(0.4, alpha_run), alpha_max=alpha_max)
        steps = record_trajectory(prob, cfg, 150)
        x_s, z_s, lam_s, _ = reference_triple(prob)
        slacks = check_descent(steps, x_s, z_s, lam_s, alpha_max=alpha_max)
        assert slacks.min() >= -1e-8

    def test_kappa_value(self):
        # the 1.95 margin: kappa = 2/1.95 - 1
        assert 2.0 / 1.95 - 1.0 == pytest.approx(0.02564, abs=1e-5)

    def test_violation_raises(self, inject_relaxation_fault):
        prob = generate(FamilySpec("random_qp", 10, 23))
        cfg = SolverConfig(adaptive_rho=False)
        x_s, z_s, lam_s, _ = reference_triple(prob)
        inject_relaxation_fault()
        steps = record_trajectory(prob, cfg, 30)
        with pytest.raises(TheoryViolationError):
            check_descent(steps, x_s, z_s, lam_s, alpha_max=1.95)


class TestDescentStart:
    """The descent inequality holds from a Douglas-Rachford state on, i.e.
    from the first step whose input satisfies z = clip(z + y/r, l, u)."""

    def test_consistent_cold_start_checked_from_step_zero(self):
        # 0 lies inside every [l, u], so the cold start z = y = 0 is consistent
        prob = random_box_qp(np.random.default_rng(41), 12, 8)
        steps = record_trajectory(prob, SolverConfig(adaptive_rho=True), 60)
        assert normal_cone_gap(prob, steps.z[0], steps.y[0] / steps.r[0]) == 0.0
        x_s, z_s, lam_s, _ = reference_triple(prob)
        slacks = check_descent(steps, x_s, z_s, lam_s, alpha_max=1.95)
        assert np.all(np.isfinite(slacks))
        assert slacks[0] >= 0.0

    def test_inconsistent_cold_start_is_skipped(self):
        # svm margin rows have l = 1, so z_0 = 0 is not a projection of
        # z_0 + y_0/r; every later input state is
        prob = generate(FamilySpec("svm", 10, 1))
        steps = record_trajectory(prob, SolverConfig(adaptive_rho=True), 200)
        gaps = normal_cone_gap(prob, steps.z[:-1], steps.y[:-1] / steps.r[:-1])
        assert gaps.shape == (200,)
        assert gaps[0] == 1.0
        assert gaps[1:].max() <= 1e-12
        x_s, z_s, lam_s, _ = reference_triple(prob)
        slacks = check_descent(steps, x_s, z_s, lam_s, alpha_max=1.95)
        assert slacks.shape == (200,)
        assert np.isnan(slacks[0])
        assert np.all(np.isfinite(slacks[1:]))  # checked, and none raised

    def test_skipped_step_would_violate(self, monkeypatch):
        # the skip is what keeps step 0 of this trajectory from failing
        prob = generate(FamilySpec("svm", 10, 1))
        steps = record_trajectory(prob, SolverConfig(adaptive_rho=True), 5)
        monkeypatch.setattr(verify, "CONSISTENCY_RTOL", np.inf)  # every step counts as consistent
        x_s, z_s, lam_s, _ = reference_triple(prob)
        with pytest.raises(TheoryViolationError) as exc:
            check_descent(steps, x_s, z_s, lam_s, alpha_max=1.95)
        assert exc.value.iteration == 0


class TestDriftSchedules:
    def test_summable_partial_sums(self):
        sch = DriftSchedule.inverse_square(100000)
        # 0.5 * pi^2/6, and the tail is negligible
        assert np.sum(sch.theta) == pytest.approx(np.pi**2 / 12.0, abs=1e-3)



class TestDriftExperiment:
    def test_zero_drift_converges(self):
        prob = generate(FamilySpec("random_qp", 20, 24))
        _, _, _, p_star = reference_triple(prob)
        res = run_drift_experiment(
            prob, DriftSchedule(np.zeros(5000)), 5000, SolverConfig(), p_star
        )
        assert res.converged

    def test_summable_drift_converges(self):
        rng = np.random.default_rng(30)
        prob = random_box_qp(rng, 20, 12)
        _, _, _, p_star = reference_triple(prob)
        res = run_drift_experiment(
            prob, DriftSchedule.inverse_square(10000), 10000, SolverConfig(), p_star, seed=1
        )
        assert res.converged
        assert res.r_inf[-1] <= 1e-6
        assert res.s_inf[-1] <= 1e-6
        assert res.objective_gap[-1] <= 1e-5

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_drift_signs_are_the_choice_stream(self, seed):
        # The drift runs draw their signs as SIGNS[rng.integers(0, 2, size)];
        # these are the draws, and the generator state, of
        # rng.choice((-1.0, 1.0), size), so seeded drift runs keep their signs.
        by_index, by_choice = np.random.default_rng(seed), np.random.default_rng(seed)
        for size in (1, 5, 23, 100, None):
            got = SIGNS[by_index.integers(0, 2, size=size)]
            want = by_choice.choice((-1.0, 1.0), size=size)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert by_index.random() == by_choice.random()

    def test_constant_drift_reports_without_asserting(self):
        prob = generate(FamilySpec("random_qp", 10, 25))
        _, _, _, p_star = reference_triple(prob)
        res = run_drift_experiment(
            prob, DriftSchedule(np.full(300, 0.5)), 300, SolverConfig(), p_star, seed=2
        )
        # outside the theorem hypotheses: only the bookkeeping is checked
        assert res.r_inf.size == res.iterations
        assert isinstance(res.converged, bool)

    def test_square_summability_of_step_norms(self):
        # partial sums of |y~_{k+1} - y_k|^2_H plateau under summable drift
        rng = np.random.default_rng(31)
        prob = random_box_qp(rng, 10, 6)
        cfg = SolverConfig(adaptive_rho=True)
        steps = record_trajectory(prob, cfg, 6000)
        chk = reconstruct_drs(steps, prob)
        assert max(chk.max_transition_violation, chk.max_perturbation_violation) <= 1e-9
        n = prob.n
        sq = []
        for st in steps:
            r_k = np.concatenate((np.full(n, st.sigma), st.r_values))
            gamma = np.concatenate((np.full(n, st.alpha_x), st.gamma_values))
            h = 1.0 / (gamma * r_k)
            y_k = np.concatenate((np.zeros(n), st.y)) + r_k * np.concatenate((st.x, st.z))
            y_tilde = np.concatenate((np.zeros(n), st.y_next)) + r_k * np.concatenate(
                (st.x_next, st.z_next)
            )
            sq.append(float(np.sum(h * (y_tilde - y_k) ** 2)))
        sq = np.array(sq)
        total = np.sum(sq)
        tail = np.sum(sq[5000:])
        assert tail <= 1e-6 * max(total, 1e-30)


def no_constraints_problem():
    B = np.random.default_rng(51).standard_normal((6, 6))
    return QpProblem(P=B.T @ B / 6 + 0.1 * np.eye(6), q=np.arange(6.0) - 2.5,
                     A=np.zeros((0, 6)), l=np.zeros(0), u=np.zeros(0))


def bits(v) -> bytes:
    return np.asarray(v).tobytes()


def assert_same_check(got, want):
    assert type(got.max_transition_violation) is float
    assert bits(got.max_transition_violation) == bits(want.max_transition_violation)
    assert bits(got.max_perturbation_violation) == bits(want.max_perturbation_violation)
    assert got.worst_transition_step == want.worst_transition_step
    assert got.worst_perturbation_step == want.worst_perturbation_step


# BLOCK_ENTRIES values: one-step blocks; 7, 28 and 466 steps a block on the
# three trajectories below (a short last block on the first two); the
# shipped size.
BLOCK_SIZES = [1, 2800, verify.BLOCK_ENTRIES]


class TestBlocksMatchPerStep:
    """The block-wise checks return, bit for bit, what a step-by-step
    evaluation returns, and raise at the same step with the same message."""

    def _trajectory_cases(self):
        cases = []
        # 400 consensus entries: 20 steps a block, 10 blocks at the shipped size
        prob = random_box_qp(np.random.default_rng(50), 150, 250)
        steps = record_trajectory(prob, SolverConfig(adaptive_rho=True), 200)
        ref = reference_solution(prob)
        z_s = np.clip(prob.A @ ref.x_star, prob.l, prob.u)
        cases.append((prob, steps, (ref.x_star, z_s, ref.lambda_star)))
        # m = 0: the constraint block is empty
        prob = no_constraints_problem()
        steps = record_trajectory(prob, SolverConfig(adaptive_rho=True), 40)
        cases.append((prob, steps, (np.linalg.solve(prob.P, -prob.q), np.zeros(0), np.zeros(0))))
        # 0 is outside [l, u]: the cold start is skipped, its slack is NaN
        prob = generate(FamilySpec("svm", 10, 1))
        steps = record_trajectory(prob, SolverConfig(adaptive_rho=True), 120)
        x_s, z_s, lam_s, _ = reference_triple(prob)
        cases.append((prob, steps, (x_s, z_s, lam_s)))
        return cases

    @pytest.mark.parametrize("block_entries", BLOCK_SIZES)
    def test_states_violations_and_slacks(self, monkeypatch, block_entries):
        cases = self._trajectory_cases()
        monkeypatch.setattr(verify, "BLOCK_ENTRIES", block_entries)
        nan_prefixes = []
        for prob, steps, (x_s, z_s, lam_s) in cases:
            assert_same_check(reconstruct_drs(steps, prob), reconstruct_drs_per_step(steps, prob))
            got = check_descent(steps, x_s, z_s, lam_s, alpha_max=1.95)
            want = check_descent_per_step(steps, prob, x_s, z_s, lam_s, alpha_max=1.95)
            assert bits(got) == bits(want)
            nan_prefixes.append(int(np.isnan(got).sum()))
        assert nan_prefixes == [0, 0, 1]

    @pytest.mark.parametrize("block_entries", BLOCK_SIZES)
    def test_fault_raises_at_the_same_step(self, monkeypatch, inject_relaxation_fault, block_entries):
        prob = generate(FamilySpec("random_qp", 10, 22))
        x_s, z_s, lam_s, _ = reference_triple(prob)
        inject_relaxation_fault()
        steps = record_trajectory(prob, SolverConfig(adaptive_rho=False), 30)
        monkeypatch.setattr(verify, "BLOCK_ENTRIES", block_entries)
        descent_args = (x_s, z_s, lam_s, 1.95)
        for check, args, reference, reference_args in (
            (reconstruct_drs, (steps, prob), reconstruct_drs_per_step, (steps, prob)),
            (check_descent, (steps, *descent_args),
             check_descent_per_step, (steps, prob, *descent_args)),
        ):
            with pytest.raises(TheoryViolationError) as got:
                check(*args)
            with pytest.raises(TheoryViolationError) as want:
                reference(*reference_args)
            assert str(got.value) == str(want.value)
            assert got.value.iteration == want.value.iteration
        assert_same_check(reconstruct_drs(steps, prob, raise_on_violation=False),
                          reconstruct_drs_per_step(steps, prob, raise_on_violation=False))
        got = check_descent(steps, x_s, z_s, lam_s, 1.95, raise_on_violation=False)
        want = check_descent_per_step(steps, prob, x_s, z_s, lam_s, 1.95, raise_on_violation=False)
        assert bits(got) == bits(want)

    def test_worst_steps_locate_the_maxima(self):
        prob = random_box_qp(np.random.default_rng(21), 15, 10)
        steps = record_trajectory(prob, SolverConfig(adaptive_rho=True), 200)
        chk = reconstruct_drs(steps, prob)
        assert 0.0 < chk.max_transition_violation
        assert 0.0 < chk.max_perturbation_violation  # adaptive rho moved the metric
        assert chk.worst_transition_step != chk.worst_perturbation_step
        # the per-step reference tracks the first step of each maximum
        want = reconstruct_drs_per_step(steps, prob)
        assert (chk.worst_transition_step, chk.worst_perturbation_step) == (
            want.worst_transition_step, want.worst_perturbation_step)

    @pytest.mark.parametrize("block_entries", [50, verify.BLOCK_ENTRIES])
    @pytest.mark.parametrize("schedule", ["inverse_square", "constant", "zero"])
    def test_drift_histories(self, monkeypatch, schedule, block_entries):
        # 1000 iterations are not a whole number of draw blocks: m = 9 draws
        # 19 signs an iteration, 431 iterations a block at the shipped size,
        # 2 at 50 entries
        prob = random_box_qp(np.random.default_rng(30), 12, 9)
        p_star = objective(prob, reference_solution(prob).x_star)
        sch = {"inverse_square": DriftSchedule.inverse_square(1000),
               "constant": DriftSchedule(np.full(1000, 0.5)),
               "zero": DriftSchedule(np.zeros(1000))}[schedule]
        monkeypatch.setattr(verify, "BLOCK_ENTRIES", block_entries)
        got = run_drift_experiment(prob, sch, 1000, SolverConfig(), p_star, seed=3)
        want = drift_per_step(prob, sch, 1000, SolverConfig(), p_star, seed=3)
        for field in ("r_inf", "s_inf", "objective_gap"):
            assert bits(getattr(got, field)) == bits(getattr(want, field)), field
        assert (got.converged, got.iterations) == (want.converged, want.iterations)
        if schedule == "constant":
            assert got.iterations == 1000  # ran past every block boundary

    def test_drift_without_constraints(self):
        prob = no_constraints_problem()
        p_star = objective(prob, np.linalg.solve(prob.P, -prob.q))
        sch = DriftSchedule.inverse_square(500)
        got = run_drift_experiment(prob, sch, 500, SolverConfig(), p_star, seed=4)
        want = drift_per_step(prob, sch, 500, SolverConfig(), p_star, seed=4)
        assert bits(got.r_inf) == bits(want.r_inf) and bits(got.s_inf) == bits(want.s_inf)
        assert bits(got.objective_gap) == bits(want.objective_gap)
        assert got.iterations == want.iterations

    def test_short_relaxation_schedule_is_an_input_error(self):
        prob = random_box_qp(np.random.default_rng(30), 4, 3)
        with pytest.raises(InputError, match="drift horizon 10 is negative or longer"):
            run_drift_experiment(prob, DriftSchedule(np.zeros(5)), 10, SolverConfig(), 0.0)

    def test_negative_horizon_is_an_input_error(self):
        prob = random_box_qp(np.random.default_rng(31), 4, 3)
        with pytest.raises(InputError, match="drift horizon -5 is negative"):
            run_drift_experiment(prob, DriftSchedule(np.zeros(10)), -5, SolverConfig(), 0.0)

    @pytest.mark.parametrize("m", [0, 1, 5, 23, 150])
    @pytest.mark.parametrize("iterations", [1, 7])
    def test_one_bulk_draw_is_the_per_call_draws(self, m, iterations):
        # A drift run draws a block's signs at once: m for R, m for Gamma
        # and one for alpha_x per iteration.  They are the draws of one call
        # per sign vector, and leave the generator in the same state.
        per_call, bulk = np.random.default_rng(11), np.random.default_rng(11)
        want = []
        for _ in range(iterations):
            want.append(per_call.integers(0, 2, size=m))
            want.append(per_call.integers(0, 2, size=m))
            want.append(np.array([per_call.integers(0, 2)]))
        got = bulk.integers(0, 2, size=iterations * (2 * m + 1))
        assert got.tobytes() == np.concatenate(want).astype(got.dtype).tobytes()
        assert per_call.random() == bulk.random()


class TestTrajectory:
    """record_trajectory's columnar Trajectory, filled by solve's observer,
    holds bit for bit the steps a per-step copying recorder makes, with each
    iterate stored once."""

    def test_steps_match_per_step_copies(self):
        # _trajectory_cases records each case with SolverConfig(adaptive_rho=True)
        cases = [
            (prob, SolverConfig(adaptive_rho=True), len(steps), lambda: None)
            for prob, steps, _ in TestBlocksMatchPerStep()._trajectory_cases()
        ]
        # Gamma and alpha_x move at every stage boundary
        cfg = SolverConfig(adaptive_rho=True, alpha_min=1.0, alpha_max=1.9)
        cases.append((random_box_qp(np.random.default_rng(60), 12, 9), cfg, 80,
                      lambda: RandomGammaPolicy(cfg.alpha_min, cfg.alpha_max, seed=7)))
        assert [prob.m for prob, *_ in cases][1] == 0
        names = [f.name for f in fields(TrajectoryStep)]
        assert len(names) == 13
        for prob, cfg, n_steps, policy in cases:
            got = record_trajectory(prob, cfg, n_steps, policy=policy())
            want = record_per_step(prob, cfg, n_steps, policy=policy())
            assert len(got) == len(want) == n_steps
            for k, w in enumerate(want):
                g = got[k]
                for name in names:
                    a, b = np.asarray(getattr(g, name)), np.asarray(getattr(w, name))
                    assert a.shape == b.shape and bits(a) == bits(b), (prob.name, k, name)
        # in the last case, the policy's, the relaxation changed at every stage boundary
        assert len(set(got.alpha_x.tolist())) == n_steps // cfg.stage_length
        assert not np.array_equal(got[9].gamma_values, got[10].gamma_values)

    def test_last_penalty_row_is_read_from_the_final_state(self):
        # a penalty update that follows the last recorded iteration is the
        # last step's r_next_values
        prob = random_box_qp(np.random.default_rng(21), 15, 10)
        cfg = SolverConfig(adaptive_rho=True)
        full = record_trajectory(prob, cfg, 200)
        k = next(k for k in range(len(full)) if not np.array_equal(full[k].r_values, full[k].r_next_values))
        steps = record_trajectory(prob, cfg, k + 1)
        assert len(steps) == k + 1
        assert not np.array_equal(steps[-1].r_next_values, steps[-1].r_values)
        assert bits(steps[-1].r_next_values) == bits(full[k].r_next_values)

    def test_sequence_behaviour(self):
        prob = random_box_qp(np.random.default_rng(61), 6, 4)
        steps = record_trajectory(prob, SolverConfig(adaptive_rho=True), 30)
        assert len(steps) == 30
        assert [st.alpha_x for st in steps] == [steps[k].alpha_x for k in range(30)]
        assert bits(steps[-1].y_next) == bits(steps[29].y_next) == bits(steps.y[30])
        assert bits(steps[np.int64(7)].x) == bits(steps[7].x)
        for k in (30, -31):
            with pytest.raises(IndexError):
                steps[k]
        # step k's output is step k + 1's input, one row of one array
        assert np.shares_memory(steps[3].z_next, steps[4].z)

    def test_early_termination_keeps_the_steps_run(self):
        # the origin is the optimum: the first iteration stays there and its
        # zero residuals meet even the recording's 1e-300 tolerances
        prob = QpProblem(P=np.eye(1), q=np.zeros(1), A=np.eye(1),
                         l=np.array([-1.0]), u=np.array([1.0]))
        steps = record_trajectory(prob, SolverConfig(adaptive_rho=False), 3)
        assert len(steps) == 1 and steps.x.shape == (2, 1) and steps.r.shape == (2, 1)
        assert bits(steps[0].r_next_values) == bits(steps[0].r_values)
