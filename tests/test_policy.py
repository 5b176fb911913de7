import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from relaxqp.bench import FamilySpec, generate, reference_from_dict
from relaxqp.engine import SolverConfig, solve
from relaxqp.errors import InputError
from relaxqp.policy import (
    BLOCK_ENTRIES,
    HIDDEN_WIDTH,
    INPUT_DIMS,
    ROW_FEATURES,
    STD_FLOOR,
    NormStats,
    _elu,
    checkpoint_from_dict,
    checkpoint_to_dict,
    extract_global,
    extract_rows,
    fit_norm_stats,
    flatten_params,
    init_checkpoint,
    load_checkpoint,
    mlp_forward,
    param_shapes,
    policy_from_checkpoint,
    save_checkpoint,
    with_params,
)
from relaxqp.problem import QpProblem, Residuals

from oracles import FixedPolicy, mlp_forward_loops

INF = np.inf
CFG = SolverConfig()  # the default relaxation box, [1.25, 1.95]


def res_of(rp_inf, rd_inf):
    return Residuals(np.zeros(1), np.zeros(1), rp_inf, rd_inf, prim_scale=1.0, dual_scale=1.0)


def predict_rows(ck, phi, rows):
    """Vector-policy output for solver-level features phi and per-row features."""
    return policy_from_checkpoint(ck).predict(CFG, phi, rows, len(rows))


def perturbed_vector_checkpoint(seed):
    """An untrained checkpoint outputs exactly 1.6 whatever its inputs; small
    output weights make the relaxation depend on the features."""
    ck = init_checkpoint("vector", seed=seed)
    return dataclasses.replace(ck, w_out=np.random.default_rng(seed).normal(scale=0.1, size=64))


class TestGlobalFeatures:
    def test_unit_residuals(self):
        phi = extract_global(res_of(1.0, 1.0), res_of(1.0, 1.0), 0.1, "scalar")
        assert phi.shape == (6,)
        assert phi[0] == 0.0
        assert phi[1] == 0.0
        assert phi[2] == pytest.approx(0.0, abs=1e-7)
        assert phi[3] == pytest.approx(0.0, abs=1e-7)
        assert phi[4] == pytest.approx(0.0, abs=1e-7)
        assert phi[5] == pytest.approx(math.log(0.1))

    def test_zero_residual_hits_clamp(self):
        phi = extract_global(res_of(0.0, 1.0), res_of(1.0, 1.0), 0.1, "scalar")
        assert phi[0] == -6.0

    def test_vector_variant_drops_penalty_entry(self):
        phi = extract_global(res_of(1.0, 1.0), res_of(1.0, 1.0), 0.1, "vector")
        assert phi.shape == (5,)

    def test_always_finite(self):
        for rp, rd, rpp, rdp in [(0, 0, 0, 0), (1e300, 0, 0, 1e300), (0, 1e-300, 1e300, 0)]:
            phi = extract_global(res_of(rp, rd), res_of(rpp, rdp), 1e-6, "scalar")
            assert np.all(np.isfinite(phi))
            assert np.all(np.abs(phi) <= 6.0)


class TestRowFeatures:
    def make_prob(self, l, u):
        m = len(l)
        return QpProblem(P=np.eye(2), q=np.zeros(2), A=np.ones((m, 2)),
                         l=np.asarray(l, float), u=np.asarray(u, float))

    def test_loose_row_slack_clamps_high(self):
        prob = self.make_prob([-INF], [INF])
        f = extract_rows(prob, np.zeros(1), np.zeros(1), np.zeros(1),
                         np.zeros(1), np.array([0.1]))
        assert f[0, 0] == 6.0
        assert f[0, 1] == 6.0

    def test_active_bound_clamps_low(self):
        prob = self.make_prob([0.0], [1.0])
        f = extract_rows(prob, np.zeros(1), np.zeros(1), np.zeros(1),
                         np.zeros(1), np.array([0.1]))
        assert f[0, 0] == -6.0

    def test_formula_row(self):
        prob = QpProblem(P=np.eye(2), q=np.zeros(2),
                         A=np.array([[3.0, -1.0]]),
                         l=np.array([0.0]), u=np.array([1.0]))
        f = extract_rows(
            prob,
            z=np.array([0.5]),
            r_prim=np.array([0.01]),
            y=np.array([2.0]),
            r_prim_prev=np.array([0.1]),
            rho_values=np.array([0.1]),
        )
        eps = 1e-8
        expected = [
            math.log(0.5),
            math.log(0.5),
            math.log(0.01),
            1.0,
            math.log(2.0),
            math.log(0.01 / (0.1 + eps)),
            math.log(0.1),
            3.0,
        ]
        assert_allclose(f[0], expected, rtol=1e-12)

    def test_total_on_degenerate_states(self):
        prob = self.make_prob([-INF, 0.0, 0.0], [INF, 0.0, 5.0])
        f = extract_rows(prob, np.zeros(3), np.zeros(3), np.zeros(3),
                         np.zeros(3), np.full(3, 0.1))
        assert np.all(np.isfinite(f))


class TestNormStats:
    def test_constant_column_floors_std(self):
        ns = fit_norm_stats([np.full((50, 3), 2.0)])
        assert_allclose(ns.mean, [2.0, 2.0, 2.0])
        assert_allclose(ns.std, [1e-6] * 3)

    def test_two_vector_stats(self):
        ns = fit_norm_stats([np.array([[0.0, 1.0], [2.0, 1.0]])])
        assert ns.mean[0] == pytest.approx(1.0)
        assert ns.std[0] == pytest.approx(1.0)

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        batch = rng.standard_normal((200, 6))
        n1 = fit_norm_stats([batch])
        n2 = fit_norm_stats([batch])
        assert np.array_equal(n1.mean, n2.mean)
        assert np.array_equal(n1.std, n2.std)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            fit_norm_stats([])


class TestMlpForward:
    def test_zero_output_layer_gives_exact_midpoint(self):
        ck = init_checkpoint("scalar", seed=0)
        out = mlp_forward(policy_from_checkpoint(ck), CFG, np.linspace(-1, 1, 6))
        assert out == 1.6
        # of whichever box the querying config has
        off_centre = SolverConfig(alpha0=1.5, alpha_min=1.0, alpha_max=1.9)
        out = mlp_forward(policy_from_checkpoint(ck), off_centre, np.linspace(-1, 1, 6))
        assert out == 1.0 + 0.5 * (1.9 - 1.0)

    def test_saturation_never_exceeds_box(self):
        ck = init_checkpoint("scalar", seed=1)
        ck.b_out = 1e3
        out = mlp_forward(policy_from_checkpoint(ck), CFG, np.zeros(6))
        assert out == pytest.approx(1.95)
        assert out <= 1.95
        ck.b_out = -1e3
        assert mlp_forward(policy_from_checkpoint(ck), CFG, np.zeros(6)) >= 1.25

    @pytest.mark.parametrize("variant,dim", [("scalar", 6), ("vector", 13)])
    def test_matches_loop_oracle(self, variant, dim):
        rng = np.random.default_rng(42)
        ck = init_checkpoint(variant, seed=9)
        theta = flatten_params(ck)
        ck = with_params(ck, theta + 0.1 * rng.standard_normal(theta.size))
        policy = policy_from_checkpoint(ck)
        for _ in range(5):
            x = rng.standard_normal(dim)
            if variant == "scalar":
                got = mlp_forward(policy, CFG, x)
            else:
                got = float(mlp_forward(policy, CFG, x[:5], x[None, 5:])[0])
            want = mlp_forward_loops(ck, CFG, x)
            assert got == pytest.approx(want, abs=1e-10)

    def test_bad_input_dim(self):
        scalar = policy_from_checkpoint(init_checkpoint("scalar", seed=0))
        vector = policy_from_checkpoint(init_checkpoint("vector", seed=0))
        for policy, phi, rows in [
            (scalar, np.zeros(5), None),
            (scalar, np.zeros(6), np.zeros((2, 8))),
            (vector, np.zeros(5), None),
            (vector, np.zeros(6), np.zeros((2, 8))),
            (vector, np.zeros(5), np.zeros((2, 7))),
        ]:
            with pytest.raises(InputError):
                mlp_forward(policy, CFG, phi, rows)


def fitted_checkpoint(variant, seed):
    """A perturbed checkpoint with norm stats whose stds run from STD_FLOOR to
    1e3 (log-uniform per feature; the floor and 1e3 themselves included)
    and whose means are up to +-6, the feature clamp."""
    rng = np.random.default_rng(seed)
    d = INPUT_DIMS[variant]
    ck = init_checkpoint(variant, seed=seed)
    theta = flatten_params(ck)
    ck = with_params(ck, theta + 0.3 * rng.standard_normal(theta.size))
    std = 10.0 ** rng.uniform(math.log10(STD_FLOOR), 3.0, size=d)
    std[[0, -1]] = STD_FLOOR, 1e3
    mean = rng.uniform(-6.0, 6.0, size=d)
    return dataclasses.replace(ck, norm_stats=NormStats(mean, std, source="test"))


def raw_inputs(ck, rng, rows):
    """Raw features drawn around the checkpoint's statistics (normalized
    values of about N(0, 2^2)): the solver-level part and ``rows`` rows."""
    ns = ck.norm_stats
    x = ns.mean + ns.std * 2.0 * rng.standard_normal((max(rows, 1), ns.mean.size))
    if ck.variant == "scalar":
        return x[0], None
    return x[0, :5], x[:rows, 5:]


class TestFoldedForward:
    """The compiled query against the unfolded loop oracle, on raw inputs."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scalar_variant(self, seed):
        ck = fitted_checkpoint("scalar", seed)
        policy = policy_from_checkpoint(ck)
        rng = np.random.default_rng(100 + seed)
        for _ in range(5):
            phi, _ = raw_inputs(ck, rng, 0)
            got = mlp_forward(policy, CFG, phi)
            assert isinstance(got, float)
            assert got == pytest.approx(mlp_forward_loops(ck, CFG, phi), rel=1e-12, abs=0)

    @pytest.mark.parametrize("m", [0, 1, 255, 256, 257, 2600])
    def test_vector_variant_across_row_blocks(self, m):
        ck = fitted_checkpoint("vector", m)
        rng = np.random.default_rng(200 + m)
        phi, rows = raw_inputs(ck, rng, m)
        out = mlp_forward(policy_from_checkpoint(ck), CFG, phi, rows)
        assert out.shape == (m,)
        # Every row up to 257, and at m = 2600 the first and last rows of every
        # block plus a sample: the loop oracle takes ~0.4 ms a row.
        step = BLOCK_ENTRIES // HIDDEN_WIDTH
        check = set(range(min(m, 2 * step + 1)))
        check |= {i for b in range(0, m, step) for i in (b, b + 1, b + step - 1)}
        check |= set(rng.choice(m, size=min(m, 40), replace=False).tolist())
        for i in sorted(i for i in check if i < m):
            want = mlp_forward_loops(ck, CFG, np.concatenate((phi, rows[i])))
            assert out[i] == pytest.approx(want, rel=1e-12, abs=0), i

    def test_floor_std_feature_far_from_zero(self):
        # A feature at STD_FLOOR whose mean is at the clamp: the mean is
        # subtracted before the scaled weights apply, so nothing cancels.
        ck = fitted_checkpoint("vector", 5)
        ns = ck.norm_stats
        mean, std = ns.mean.copy(), ns.std.copy()
        mean[5:], std[5:] = 6.0, STD_FLOOR
        ck = dataclasses.replace(ck, norm_stats=NormStats(mean, std))
        rng = np.random.default_rng(5)
        phi, rows = raw_inputs(ck, rng, 64)
        out = mlp_forward(policy_from_checkpoint(ck), CFG, phi, rows)
        for i in range(64):
            want = mlp_forward_loops(ck, CFG, np.concatenate((phi, rows[i])))
            assert out[i] == pytest.approx(want, rel=1e-12, abs=0), i

    def test_checkpoint_edits_after_building_are_not_seen(self):
        # The policy compiles its checkpoint once: a later edit of the
        # checkpoint needs a new policy.
        ck = perturbed_vector_checkpoint(3)
        policy = policy_from_checkpoint(ck)
        rows = np.random.default_rng(3).standard_normal((4, ROW_FEATURES))
        before = mlp_forward(policy, CFG, np.zeros(5), rows)
        for name in param_shapes("vector"):
            getattr(ck, name)[...] = 0.0
        ck.norm_stats.mean[...] = 1.0
        ck.b_out = 5.0
        assert np.array_equal(mlp_forward(policy, CFG, np.zeros(5), rows), before)

    def test_query_holds_no_m_by_hidden_array(self):
        prob = generate(FamilySpec("mpc", 100, 1))
        assert prob.m == 2600
        policy = policy_from_checkpoint(perturbed_vector_checkpoint(4))
        cfg = SolverConfig(adaptive_rho=False, max_iter=20)
        seen = []
        solve(prob, cfg, observer=lambda state, res: seen.append((state, res)))
        (_, res_prev), (state, res) = seen[-11], seen[-1]
        policy.propose(prob, state, res, res_prev, cfg)
        tracemalloc.start()
        try:
            gamma, _ = policy.propose(prob, state, res, res_prev, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gamma.shape == (prob.m,)
        assert peak < prob.m * HIDDEN_WIDTH * 8, peak


SPECIAL_ELU_INPUTS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
                      1e-300, -1e-300, 1e-17, -1e-17, 0.5, -0.5, 1.0, -1.0, 700.0, -700.0, 710.0,
                      -745.0, 1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308,
                      np.inf, -np.inf, np.nan, -np.nan]


class TestElu:
    @pytest.mark.parametrize("reps", [1, 3, 64])
    def test_bit_for_bit_the_where_form(self, reps):
        # reps moves the special values across vector and remainder loops.
        h = np.concatenate([np.tile(SPECIAL_ELU_INPUTS, reps), -np.logspace(-320, 3, 97),
                            np.logspace(-320, 3, 97)])
        with np.errstate(over="ignore"):
            want = np.where(h > 0, h, np.expm1(h))
        got = h.copy()
        _elu(got, np.empty_like(got))
        assert got.tobytes() == want.tobytes()


class TestPolicySteps:
    def test_scalar_broadcast(self):
        ck = init_checkpoint("scalar", seed=0)
        gamma, ax = policy_from_checkpoint(ck).predict(CFG, np.zeros(6), None, 7)
        assert gamma.shape == (7,)
        assert np.all(gamma == ax)

    def test_vector_zero_init_outputs_midpoint(self):
        ck = init_checkpoint("vector", seed=0)
        rows = np.random.default_rng(0).standard_normal((4, 8))
        gamma, ax = predict_rows(ck, np.zeros(5), rows)
        assert np.all(gamma == 1.6)
        assert ax == 1.6

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        ck = init_checkpoint("vector", seed=3)
        theta = flatten_params(ck)
        ck = with_params(ck, theta + 0.05 * rng.standard_normal(theta.size))
        rows = rng.standard_normal((6, 8))
        phi = rng.standard_normal(5)
        gamma, _ = predict_rows(ck, phi, rows)
        perm = rng.permutation(6)
        gamma_p, _ = predict_rows(ck, phi, rows[perm])
        assert_allclose(gamma_p, gamma[perm], rtol=1e-13)

    def test_identical_rows_identical_outputs(self):
        ck = init_checkpoint("vector", seed=4)
        rows = np.tile(np.arange(8.0), (3, 1))
        gamma, _ = predict_rows(ck, np.ones(5), rows)
        assert gamma[0] == gamma[1] == gamma[2]

    def test_mean_for_decision_block(self):
        rng = np.random.default_rng(6)
        ck = init_checkpoint("vector", seed=5)
        theta = flatten_params(ck)
        ck = with_params(ck, theta + 0.05 * rng.standard_normal(theta.size))
        rows = rng.standard_normal((5, 8))
        gamma, ax = predict_rows(ck, rng.standard_normal(5), rows)
        assert ax == pytest.approx(np.mean(gamma))


class TestSizeTransfer:
    def test_vector_checkpoint_evaluates_on_any_size(self):
        rng = np.random.default_rng(8)
        ck = init_checkpoint("vector", seed=6)
        theta = flatten_params(ck)
        ck = with_params(ck, theta + 0.05 * rng.standard_normal(theta.size))
        policy = policy_from_checkpoint(ck)
        cfg = SolverConfig(adaptive_rho=False)
        for size in (10, 50):
            prob = generate(FamilySpec("random_qp", size, 30))
            rep = solve(prob, cfg, policy=policy)
            assert rep.status == "solved"

    def test_determinism(self):
        rng = np.random.default_rng(9)
        ck = init_checkpoint("vector", seed=7)
        theta = flatten_params(ck)
        ck = with_params(ck, theta + 0.05 * rng.standard_normal(theta.size))
        rows = rng.standard_normal((4, 8))
        phi = rng.standard_normal(5)
        g1, a1 = predict_rows(ck, phi, rows)
        g2, a2 = predict_rows(ck, phi, rows)
        assert np.array_equal(g1, g2)
        assert a1 == a2


class TestCheckpointFormat:
    def test_document_with_a_box_loads_alike(self):
        # Files written when checkpoints carried a relaxation box and their
        # layer widths hold alpha_min/alpha_max and dims; the reader ignores
        # them, and the policy maps into the querying config's box.
        ck = perturbed_vector_checkpoint(13)
        doc = checkpoint_to_dict(ck)
        old = {**doc, "alpha_min": 1.3, "alpha_max": 1.9, "dims": [ck.W1.shape[1], 64, 64, 1]}
        rng = np.random.default_rng(13)
        phi, rows = rng.standard_normal(5), rng.standard_normal((7, ROW_FEATURES))
        for cfg in (CFG, SolverConfig(alpha_min=1.5, alpha_max=1.7)):
            want, want_x = policy_from_checkpoint(checkpoint_from_dict(doc)).predict(cfg, phi, rows, 7)
            got, got_x = policy_from_checkpoint(checkpoint_from_dict(old)).predict(cfg, phi, rows, 7)
            assert got.tobytes() == want.tobytes() and got_x == want_x

    def test_json_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        ck = init_checkpoint("vector", seed=11,
                             metadata={"family": "random_qp", "epoch": 3})
        theta = flatten_params(ck)
        ck = with_params(ck, theta + rng.standard_normal(theta.size))
        path = tmp_path / "ckpt.json"
        save_checkpoint(ck, path)
        again = load_checkpoint(path)
        assert np.array_equal(again.W1, ck.W1)
        assert np.array_equal(again.W2, ck.W2)
        assert np.array_equal(again.w_out, ck.w_out)
        assert again.b_out == ck.b_out
        assert again.metadata["family"] == "random_qp"
        path2 = tmp_path / "ckpt2.json"
        save_checkpoint(again, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_failed_save_keeps_the_previous_checkpoint(self, tmp_path):
        ck = init_checkpoint("vector", seed=12, metadata={"epoch": 1})
        path = tmp_path / "ckpt.json"
        save_checkpoint(ck, path)
        before = path.read_bytes()
        # metadata that is not JSON fails the save after the document is built
        bad = dataclasses.replace(ck, metadata={"epoch": object()})
        with pytest.raises(TypeError):
            save_checkpoint(bad, path)
        assert path.read_bytes() == before
        again = load_checkpoint(path)
        assert flatten_params(again).tobytes() == flatten_params(ck).tobytes()
        assert again.metadata == ck.metadata
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]

    def test_dict_contains_schema_fields(self):
        doc = checkpoint_to_dict(init_checkpoint("scalar", seed=0))
        for key in ("variant", "W1", "b1", "ln1_gain", "ln1_offset", "W2",
                    "b2", "ln2_gain", "ln2_offset", "w_out", "b_out", "norm_mean",
                    "norm_std", "metadata"):
            assert key in doc
        assert not {"alpha_min", "alpha_max", "dims"} & set(doc)

    def test_malformed_rejected(self):
        with pytest.raises(InputError):
            checkpoint_from_dict({"variant": "scalar"})

    def test_binary_object_fields_rejected(self):
        # Checkpoints and reference solutions hold their arrays as lists of
        # numbers only; no writer ever put a binary object into one.
        binary = {"f8le_zlib_b64": "eJxjYIAAAAAIAAE="}  # zlib of 8 zero bytes, base64
        fault = "field '{}' is an object, not a list of numbers"
        doc = checkpoint_to_dict(init_checkpoint("vector", seed=3))
        for field in ("W1", "norm_std"):
            with pytest.raises(InputError, match=fault.format(field)):
                checkpoint_from_dict({**doc, field: binary})
        ref = {"x_star": [1.0], "lambda_star": [0.5], "objective": 0.5, "kkt_error": 0.0}
        assert reference_from_dict(ref, 1, 1).x_star.tolist() == [1.0]
        for field in ("x_star", "lambda_star"):
            with pytest.raises(InputError, match=fault.format(field)):
                reference_from_dict({**ref, field: binary}, 1, 1)


SPECIAL_WEIGHTS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                   -1.7976931348623157e308, 0.1, 1 / 3]
weights = st.one_of(st.sampled_from(SPECIAL_WEIGHTS),
                    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def checkpoints(draw):
    variant = draw(st.sampled_from(sorted(INPUT_DIMS)))
    ck = init_checkpoint(variant, seed=draw(st.integers(0, 2**32 - 1)),
                         metadata=draw(st.dictionaries(st.text(max_size=4), st.one_of(
                             st.integers(-2**53, 2**53), st.text(max_size=4), weights), max_size=3)))
    # Special values at drawn places of the parameter vector, b_out included.
    theta = flatten_params(ck)
    places = draw(st.lists(st.integers(0, theta.size - 1), max_size=12))
    theta[places] = draw(st.lists(weights, min_size=len(places), max_size=len(places)))
    theta[-1] = draw(weights)
    d_in = INPUT_DIMS[variant]
    stats = NormStats(mean=np.array(draw(st.lists(weights, min_size=d_in, max_size=d_in))),
                      std=np.array(draw(st.lists(weights, min_size=d_in, max_size=d_in))),
                      source=draw(st.text(max_size=5)))
    return dataclasses.replace(with_params(ck, theta), norm_stats=stats)


class TestCheckpointProperties:
    @settings(max_examples=60, deadline=None)
    @given(checkpoints())
    def test_save_load_bit_exact(self, tmp_path_factory, ck):
        path = tmp_path_factory.mktemp("ckpt") / "ckpt.json"
        save_checkpoint(ck, path)
        again = load_checkpoint(path)
        assert again.variant == ck.variant
        assert flatten_params(again).tobytes() == flatten_params(ck).tobytes()
        for f in param_shapes(ck.variant):
            assert getattr(again, f).shape == getattr(ck, f).shape
        assert again.norm_stats.mean.tobytes() == ck.norm_stats.mean.tobytes()
        assert again.norm_stats.std.tobytes() == ck.norm_stats.std.tobytes()
        assert again.norm_stats.source == ck.norm_stats.source
        assert again.metadata == ck.metadata


class TestEnginePolicyIntegration:
    def test_untrained_scalar_policy_behaves_like_default(self):
        prob = generate(FamilySpec("random_qp", 20, 31))
        cfg = SolverConfig(adaptive_rho=False)
        ck = init_checkpoint("scalar", seed=0)
        rep_policy = solve(prob, cfg, policy=policy_from_checkpoint(ck))
        rep_fixed = solve(prob, cfg, policy=FixedPolicy(1.6))
        assert rep_policy.iterations == rep_fixed.iterations
        assert_allclose(rep_policy.x, rep_fixed.x, rtol=0, atol=0)

    def test_proposals_lie_in_the_config_box(self):
        # The policy maps into the box of the solve that queries it, so
        # apply_policy's clip stores every proposal unchanged.
        prob = generate(FamilySpec("svm", 10, 1))
        cfg = SolverConfig(alpha_min=1.5, alpha_max=1.7)
        policy = policy_from_checkpoint(perturbed_vector_checkpoint(20240601))
        proposals, stored = {}, {}

        class Recording:
            def propose(self, prob, state, res, res_prev, cfg):
                proposals[state.iter] = policy.propose(prob, state, res, res_prev, cfg)
                return proposals[state.iter]

        def observer(state, res):
            stored[state.iter] = (state.Gamma, state.alpha_x)

        rep = solve(prob, cfg, policy=Recording(), observer=observer)
        assert rep.policy_queries == len(proposals) > 1
        gammas = np.concatenate([g for g, _ in proposals.values()])
        assert np.all((gammas >= 1.5) & (gammas <= 1.7)) and np.ptp(gammas) > 0.01
        for k, (gamma, alpha_x) in proposals.items():
            # the relaxation iteration k + 1 ran with is what apply_policy stored at k
            assert stored[k + 1][0].tobytes() == gamma.tobytes()
            assert stored[k + 1][1] == alpha_x

    def test_shared_vector_policy_matches_fresh_policy(self):
        # Row norms belong to the problem: one policy object reused across
        # problems of the same shape must act exactly like a fresh one on each.
        ck = perturbed_vector_checkpoint(12)
        shared = policy_from_checkpoint(ck)
        cfg = SolverConfig(adaptive_rho=False)
        for s in range(1, 20):
            got = solve(generate(FamilySpec("portfolio", 20, s)), cfg, policy=shared).x
            fresh = policy_from_checkpoint(ck)
            want = solve(generate(FamilySpec("portfolio", 20, s)), cfg, policy=fresh).x
            assert np.array_equal(got, want), f"portfolio_n20_s{s}"


class TestRowNorms:
    def test_row_infinity_norms_of_a(self):
        prob = QpProblem(P=np.eye(2), q=np.zeros(2), A=np.array([[3.0, -4.0], [0.0, 0.5]]),
                         l=-np.ones(2), u=np.ones(2))
        assert_allclose(prob.row_norms, [4.0, 0.5], rtol=0)
        assert prob.row_norms is prob.row_norms  # computed once per problem

    def test_no_columns(self):
        prob = QpProblem(P=np.zeros((0, 0)), q=np.zeros(0), A=np.zeros((2, 0)),
                         l=-np.ones(2), u=np.ones(2))
        assert np.array_equal(prob.row_norms, np.zeros(2))


class TestLayout:
    @pytest.mark.parametrize("variant", sorted(INPUT_DIMS))
    def test_flattening_and_json_follow_the_layout(self, variant):
        shapes = param_shapes(variant)
        ck = init_checkpoint(variant, seed=1)
        assert shapes["W1"] == (64, INPUT_DIMS[variant])
        assert flatten_params(ck).size == sum(math.prod(sh) for sh in shapes.values()) + 1
        doc = checkpoint_to_dict(ck)
        keys = list(doc)
        assert keys[keys.index("W1") : keys.index("b_out")] == list(shapes)
        for name, shape in shapes.items():
            assert getattr(ck, name).shape == shape
            assert len(doc[name]) == math.prod(shape)

    def test_unknown_variant_rejected(self):
        with pytest.raises(InputError, match="unknown policy variant"):
            init_checkpoint("matrix")

    @pytest.mark.parametrize("name", ["W1", "b1", "ln1_offset", "W2", "ln2_gain", "w_out",
                                      "norm_mean", "norm_std"])
    def test_every_field_shape_checked(self, name):
        ck = init_checkpoint("scalar", seed=0)
        if name.startswith("norm_"):
            ns = ck.norm_stats
            mean, std = (ns.mean[:-1], ns.std) if name == "norm_mean" else (ns.mean, ns.std[:-1])
            changes = {"norm_stats": NormStats(mean, std)}
        else:
            changes = {name: getattr(ck, name)[:-1]}
        with pytest.raises(InputError, match=f"'{name}'"):
            dataclasses.replace(ck, **changes)

    def test_non_numeric_field_rejected(self):
        doc = checkpoint_to_dict(init_checkpoint("scalar", seed=0))
        doc["b2"] = ["x"] * 64
        with pytest.raises(InputError):
            checkpoint_from_dict(doc)
