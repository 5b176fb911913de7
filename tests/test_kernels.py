"""The per-iteration kernels equal their plain numpy formulas.

``iterate_once`` writes the new iterate into views of one array with
in-place ufuncs, ``osqp_residuals`` takes its six norms in one reduction
and ``extract_rows`` writes its logs into the feature rows and clamps them
at once; each is checked here against the straightforward formula, on
bits, not within a tolerance.  The MLP query runs on weights compiled from
the checkpoint (normalization folded into W1, centred layers), so it
differs from the layer norm's mean-and-variance formula by roundoff; it is
checked against that formula to 1e-14 relative.
"""

import dataclasses

import numpy as np
import pytest
from scipy.special import expit

from relaxqp import engine
from relaxqp.bench import FamilySpec, generate
from relaxqp.engine import (
    ITERATE_ERRSTATE,
    SolverConfig,
    apply_policy,
    init_state,
    iterate_once,
    refactor,
    rho_pattern,
)
from relaxqp.linalg import ldlt_solve
from relaxqp.policy import (
    FEATURE_CLAMP,
    FEATURE_EPS,
    LAYERNORM_EPS,
    extract_rows,
    init_checkpoint,
    mlp_forward,
    param_shapes,
    policy_from_checkpoint,
)
from relaxqp.problem import QpProblem, osqp_residuals

from oracles import RandomGammaPolicy

INF = np.inf


def bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype == np.float64 and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# -- residuals ---------------------------------------------------------------


def inf_norm_reference(v: np.ndarray) -> float:
    return float(np.max(np.abs(v))) if v.size else 0.0


def residuals_reference(prob: QpProblem, x, z, y) -> tuple:
    A, AT, P = prob.operators
    Ax, Px, ATy = A @ x, P @ x, AT @ y
    r_prim, r_dual = Ax - z, Px + prob.q + ATy
    return (
        r_prim, r_dual, inf_norm_reference(r_prim), inf_norm_reference(r_dual),
        max(inf_norm_reference(Ax), inf_norm_reference(z)),
        max(inf_norm_reference(Px), inf_norm_reference(ATy), inf_norm_reference(prob.q)),
    )


def infinite_bounds_problem(a_scale: float = 1.0) -> QpProblem:
    rng = np.random.default_rng(7)
    n, m = 6, 9
    B = rng.standard_normal((n, n))
    l = -rng.uniform(0.5, 2.0, size=m)
    u = rng.uniform(0.5, 2.0, size=m)
    l[:3] = -INF
    u[3:6] = INF
    l[6], u[6] = -INF, INF
    A = a_scale * rng.standard_normal((m, n))
    return QpProblem(P=B.T @ B, q=rng.standard_normal(n), A=A, l=l, u=u)


def no_variables_problem() -> QpProblem:
    return QpProblem(P=np.zeros((0, 0)), q=np.zeros(0), A=np.zeros((3, 0)),
                     l=-np.ones(3), u=np.ones(3))


def no_constraints_problem() -> QpProblem:
    return QpProblem(P=np.diag([1.0, 2.0, 3.0]), q=np.array([1.0, -5.0, 2.0]),
                     A=np.zeros((0, 3)), l=np.zeros(0), u=np.zeros(0))


def sparse_problem() -> QpProblem:
    prob = generate(FamilySpec("lasso", 20, seed=1))
    assert prob.kkt_backend == "sparse"
    return prob


class TestResidualNorms:
    @pytest.mark.parametrize("make", [
        infinite_bounds_problem, no_variables_problem, no_constraints_problem, sparse_problem,
    ], ids=["infinite_bounds", "n0", "m0", "sparse"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equal_to_per_vector_norms(self, make, seed):
        prob = make()
        rng = np.random.default_rng(seed)
        # Magnitudes over many decades, so each norm sits in a different vector.
        x = rng.standard_normal(prob.n) * 10.0 ** rng.integers(-3, 4, size=prob.n)
        z = np.clip(rng.standard_normal(prob.m) * 10.0 ** rng.integers(-3, 4, size=prob.m),
                    prob.l, prob.u)
        y = rng.standard_normal(prob.m) * 10.0 ** rng.integers(-3, 4, size=prob.m)
        res = osqp_residuals(prob, x, z, y)
        r_prim, r_dual, *norms = residuals_reference(prob, x, z, y)
        assert bits(res.r_prim) == bits(r_prim) and bits(res.r_dual) == bits(r_dual)
        got = [res.r_prim_inf, res.r_dual_inf, res.prim_scale, res.dual_scale]
        assert bits(got) == bits(norms)
        assert all(type(v) is float for v in got)

    def test_each_norm_read_from_its_own_vector(self):
        # One entry dominates each vector in turn; a segment offset off by one
        # would hand its norm to a neighbour.
        prob = infinite_bounds_problem()
        for k in range(prob.n):
            x = np.zeros(prob.n)
            x[k] = 1e3 * (k + 1)
            y = np.zeros(prob.m)
            y[-1] = -7.0
            z = np.zeros(prob.m)
            res = osqp_residuals(prob, x, z, y)
            assert bits([res.r_prim_inf, res.r_dual_inf, res.prim_scale, res.dual_scale]) == bits(
                residuals_reference(prob, x, z, y)[2:])

    def test_q_norm_computed_once_per_problem(self):
        prob = infinite_bounds_problem()
        assert "q_norm" not in vars(prob)
        osqp_residuals(prob, np.zeros(prob.n), np.zeros(prob.m), np.zeros(prob.m))
        assert vars(prob)["q_norm"] == float(np.max(np.abs(prob.q)))
        assert prob.q_norm is prob.q_norm  # cached, like row_norms
        assert no_variables_problem().q_norm == 0.0


# -- ADMM step ---------------------------------------------------------------


def step_reference(state, prob, cfg) -> tuple:
    """(x_{k+1}, z_{k+1}, y_{k+1}, xt, zt) from the state, by the plain
    expressions of the engine module docstring, each its own new array."""
    r, g, x_k, z_k, y_k = state.R, state.Gamma, state.x, state.z, state.y
    A, AT, _ = prob.operators
    rhs = cfg.sigma * x_k - prob.q + AT @ (r * z_k - y_k)
    x_tilde = ldlt_solve(state.kkt, rhs)
    z_tilde = A @ x_tilde
    x_next = state.alpha_x * x_tilde + (1.0 - state.alpha_x) * x_k
    w = g * z_tilde + (1.0 - g) * z_k
    z_next = np.clip(w + y_k / r, prob.l, prob.u)
    y_next = y_k + r * (w - z_next)
    return x_next, z_next, y_next, x_tilde, z_tilde


STEP_FIELDS = ("x", "z", "y", "x_tilde", "z_tilde")


def dense_step_problem() -> QpProblem:
    prob = generate(FamilySpec("portfolio", 20, seed=3))
    assert prob.kkt_backend == "dense"
    return prob


class TestIterateStep:
    @pytest.fixture(autouse=True)
    def _errstate(self):
        with np.errstate(**ITERATE_ERRSTATE):
            yield

    @pytest.mark.parametrize("make", [dense_step_problem, sparse_problem], ids=["dense", "sparse"])
    def test_equal_to_plain_expressions(self, make):
        # 50 steps under a per-row relaxation redrawn every 5 steps, with a
        # penalty change and its refactor at step 25, from a random start: a
        # consistent iterate has y ~ 0 wherever z is not clipped, which would
        # hide how y/r is formed.
        prob = make()
        cfg = SolverConfig(adaptive_rho=False)
        st = init_state(prob, cfg)
        rng = np.random.default_rng(4)
        st.x = rng.standard_normal(prob.n)
        st.z = np.clip(rng.standard_normal(prob.m), prob.l, prob.u)
        st.y = rng.standard_normal(prob.m)
        policy = RandomGammaPolicy(cfg.alpha_min, cfg.alpha_max, seed=11)
        for k in range(50):
            if k % 5 == 0:
                apply_policy(st, policy, prob, None, None, cfg)
            if k == 25:
                st.rho_scalar *= 7.0
                st.R = rho_pattern(prob.equality, st.rho_scalar)
                refactor(st, prob, cfg)
            expected = step_reference(st, prob, cfg)
            iterate_once(st, prob, cfg)
            for name, want in zip(STEP_FIELDS, expected):
                assert same_bits(getattr(st, name), want), (k, name)
        assert len(np.unique(st.Gamma)) == prob.m and st.n_factorizations == 2

    def test_new_iterate_is_one_new_array(self):
        prob = dense_step_problem()
        cfg = SolverConfig(adaptive_rho=False)
        st = init_state(prob, cfg)
        bases = []
        for _ in range(3):
            iterate_once(st, prob, cfg)
            base = st.x.base
            assert base is not None and st.z.base is base and st.y.base is base
            assert base.size == prob.n + 2 * prob.m
            bases.append(base)
        assert bases[0] is not bases[1] and bases[1] is not bases[2]

    def test_kept_references_hold_their_values(self):
        # An observer's references to step k's arrays are unchanged five
        # steps later.
        prob = dense_step_problem()
        cfg = SolverConfig(adaptive_rho=False)
        st = init_state(prob, cfg)
        policy = RandomGammaPolicy(cfg.alpha_min, cfg.alpha_max, seed=5)
        kept = []
        for k in range(20):
            if k % 3 == 0:
                apply_policy(st, policy, prob, None, None, cfg)
            iterate_once(st, prob, cfg)
            kept.append([(getattr(st, name), getattr(st, name).copy()) for name in STEP_FIELDS])
            if k >= 5:
                for name, (ref, copy) in zip(STEP_FIELDS, kept[k - 5]):
                    assert same_bits(ref, copy), (k - 5, name)

    def test_step_after_separate_z_and_y(self, inject_relaxation_fault):
        # The faulty step binds z and y to arrays of their own; the next
        # step reads them as given.
        step = engine.iterate_once
        prob = dense_step_problem()
        cfg = SolverConfig(adaptive_rho=False)
        st = init_state(prob, cfg)
        inject_relaxation_fault()
        for _ in range(3):
            engine.iterate_once(st, prob, cfg)
        assert st.z.base is None and st.y.base is None
        for k in range(3):
            expected = step_reference(st, prob, cfg)
            step(st, prob, cfg)
            for name, want in zip(STEP_FIELDS, expected):
                assert same_bits(getattr(st, name), want), (k, name)


# -- per-row policy features -------------------------------------------------


def clamped_log_reference(v: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.clip(np.log(v), -FEATURE_CLAMP, FEATURE_CLAMP)


def rows_reference(prob, z, r_prim, y, r_prim_prev, rho_values) -> np.ndarray:
    return np.column_stack((
        clamped_log_reference(z - prob.l),
        clamped_log_reference(prob.u - z),
        clamped_log_reference(np.abs(r_prim)),
        np.sign(r_prim),
        clamped_log_reference(np.abs(y)),
        clamped_log_reference(np.abs(r_prim) / (np.abs(r_prim_prev) + FEATURE_EPS)),
        clamped_log_reference(rho_values),
        prob.row_norms,
    ))


class TestRowFeatures:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_equal_to_per_column_formula(self, seed):
        rng = np.random.default_rng(seed)
        prob = infinite_bounds_problem(a_scale=10.0)  # row norms beyond the clamp
        m = prob.m
        z = np.clip(rng.standard_normal(m) * 3.0, prob.l, prob.u)
        z[3] = prob.l[3]  # zero slack: -clamp
        z[0] = prob.u[0]
        r_prim = rng.standard_normal(m) * 10.0 ** rng.integers(-8, 8, size=m)
        r_prim[1] = 0.0  # zero residual: -clamp in columns 2 and 5, sign 0
        r_prim[2] = -0.0
        r_prim[5] = 1e12  # beyond the +clamp
        y = rng.standard_normal(m) * 10.0 ** rng.integers(-8, 8, size=m)
        y[4] = 0.0
        y[6] = 1e-12  # beyond the -clamp
        r_prev = rng.standard_normal(m) * 10.0 ** rng.integers(-8, 8, size=m)
        rho = 10.0 ** rng.uniform(-6, 6, size=m)
        feats = extract_rows(prob, z, r_prim, y, r_prev, rho)
        want = rows_reference(prob, z, r_prim, y, r_prev, rho)
        assert feats.shape == (m, 8) and bits(feats) == bits(want)
        # The cases the test is meant to reach are reached: zero slack on a
        # finite bound, an infinite bound (l = -inf on rows 0-2, u = +inf on
        # rows 3-6), a zero residual, values beyond either clamp.
        assert feats[3, 0] == feats[0, 1] == -FEATURE_CLAMP
        assert feats[0, 0] == feats[3, 1] == FEATURE_CLAMP
        assert feats[1, 2] == feats[1, 5] == feats[4, 4] == -FEATURE_CLAMP and feats[1, 3] == 0.0
        assert feats[5, 2] == FEATURE_CLAMP and feats[6, 4] == -FEATURE_CLAMP
        assert feats[:, 7].max() > FEATURE_CLAMP  # the row norm is not clamped

    def test_infinite_bounds_hit_the_upper_clamp(self):
        prob = infinite_bounds_problem()
        z = np.zeros(prob.m)
        feats = extract_rows(prob, z, np.ones(prob.m), np.ones(prob.m), np.ones(prob.m),
                             np.ones(prob.m))
        assert np.all(feats[:3, 0] == FEATURE_CLAMP) and np.all(feats[3:7, 1] == FEATURE_CLAMP)
        assert bits(feats) == bits(rows_reference(prob, z, *[np.ones(prob.m)] * 4))


# -- MLP ---------------------------------------------------------------------


def layer_reference(x, W, b, gain, offset):
    h = x @ W.T + b
    mu = h.mean(axis=-1, keepdims=True)
    var = h.var(axis=-1, keepdims=True)
    h = (h - mu) / np.sqrt(var + LAYERNORM_EPS) * gain + offset
    return np.where(h > 0, h, np.expm1(h))


def mlp_reference(ck, cfg, x):
    h = layer_reference(x, ck.W1, ck.b1, ck.ln1_gain, ck.ln1_offset)
    h = layer_reference(h, ck.W2, ck.b2, ck.ln2_gain, ck.ln2_offset)
    return cfg.alpha_min + (cfg.alpha_max - cfg.alpha_min) * expit(h @ ck.w_out + ck.b_out)


def random_checkpoint(variant: str, seed: int):
    """Every parameter drawn at random, so no layer is an identity."""
    rng = np.random.default_rng(seed)
    params = {name: rng.normal(scale=0.5, size=shape) for name, shape in param_shapes(variant).items()}
    return dataclasses.replace(init_checkpoint(variant, seed=seed), **params, b_out=0.3)


class TestMlpLayerNorm:
    @pytest.mark.parametrize("variant,shape", [
        ("scalar", (6,)), ("vector", (1, 13)), ("vector", (23, 13)), ("vector", (257, 13)),
    ])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_equal_to_mean_var_formula(self, variant, shape, seed):
        ck = random_checkpoint(variant, seed)
        x = np.random.default_rng(100 + seed).standard_normal(shape) * 3.0
        policy, cfg = policy_from_checkpoint(ck), SolverConfig()
        if variant == "scalar":
            got = mlp_forward(policy, cfg, x)
        else:
            x[:, :5] = x[0, :5]  # one query: the solver-level features are shared
            got = mlp_forward(policy, cfg, x[0, :5], x[:, 5:])
        want = mlp_reference(ck, cfg, x)
        assert np.shape(got) == np.shape(want)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        if len(shape) == 2 and shape[0] > 1:
            assert np.ptp(got) > 0  # the rows give different outputs
