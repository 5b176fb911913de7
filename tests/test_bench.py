import json
import math
import re
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse

from relaxqp import bench
from relaxqp.bench import (
    DESK_SIZES,
    FamilySpec,
    MPC_HORIZON,
    MPC_INPUT_DIM,
    MPC_STATE_DIM,
    TEST_GRIDS,
    TRAIN_SIZES,
    default_desk_manifest,
    documented_grid,
    ensure_instance,
    generate,
    load_manifest,
    manifest_specs,
    reference_solution,
    spec_from_dict,
)
from relaxqp.engine import SolverConfig, solve
from relaxqp.errors import InputError, ReferenceFailureError, SingularKktError
from relaxqp import problem as problem_mod
from relaxqp.problem import QpProblem, load_problem, normal_cone_gap, save_problem

from oracles import active_set_solution, control_kron, lasso_dense, mpc_dense


class TestFamilySpec:
    def test_published_test_grid_random_qp(self):
        assert TEST_GRIDS["random_qp"] == (500, 501, 503, 507, 515, 531, 562, 625, 750, 999)

    def test_published_test_grid_control(self):
        assert TEST_GRIDS["control"] == (200, 201, 203, 205, 210, 219, 235, 262, 311, 399)

    def test_published_small_family_grids(self):
        expected = (50, 51, 52, 54, 58, 63, 72, 87, 110, 149)
        for fam in ("portfolio", "lasso", "svm"):
            assert TEST_GRIDS[fam] == expected

    def test_published_training_sizes(self):
        assert TRAIN_SIZES == {
            "random_qp": 250, "portfolio": 20, "lasso": 20, "svm": 20, "control": 100,
        }

    def test_grid_membership_enforced(self):
        with pytest.raises(InputError):
            FamilySpec("random_qp", 77, 0)
        with pytest.raises(InputError):
            FamilySpec("nonsense", 10, 0)

    def test_grid_contains_desk_and_paper_sizes(self):
        g = documented_grid("random_qp")
        assert 50 in g and 250 in g and 999 in g


class TestGenerators:
    def test_determinism_bit_identical(self):
        a = generate(FamilySpec("random_qp", 20, 7))
        b = generate(FamilySpec("random_qp", 20, 7))
        assert np.array_equal(a.P, b.P)
        assert np.array_equal(a.q, b.q)
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.l, b.l)
        assert np.array_equal(a.u, b.u)

    def test_seeds_differ(self):
        a = generate(FamilySpec("random_qp", 20, 7))
        b = generate(FamilySpec("random_qp", 20, 8))
        assert not np.array_equal(a.q, b.q)

    def test_random_qp_shapes(self):
        p = generate(FamilySpec("random_qp", 15, 1))
        assert p.n == 15
        assert p.m == 8  # ceil(15/2)
        assert np.all(p.l <= 0.0) and np.all(p.u >= 0.0)

    def test_portfolio_structure(self):
        p = generate(FamilySpec("portfolio", 20, 1))
        k = 2  # ceil(20/10)
        assert p.n == 20 + k
        assert p.m == k + 1 + 20
        # budget row is an equality at 1
        assert p.l[k] == 1.0 and p.u[k] == 1.0

    def test_lasso_structure(self):
        p = generate(FamilySpec("lasso", 10, 1))
        assert p.n == 10 + 100 + 10
        assert p.m == 100 + 20

    @pytest.mark.parametrize("size", [10, 50])
    def test_lasso_stores_no_negative_zeros(self, size):
        # The -1 blocks are diagonals, not negated identities, which would
        # leave -0.0 off the diagonal.  Only the dense-backend size (10) can
        # still hold one: its A and problem file keep every bit, while the
        # sparse backend (size 50) stores no zero value.
        p = generate(FamilySpec("lasso", size, 1))
        assert not np.any(np.signbit(p.A) & (p.A == 0.0))
        assert np.count_nonzero(p.A == -1.0) == 10 * size + size

    @pytest.mark.parametrize("size", [10, 20, 149])
    def test_portfolio_stores_no_negative_zeros(self, size):
        p = generate(FamilySpec("portfolio", size, 3))
        assert not np.any(np.signbit(p.A) & (p.A == 0.0))
        k = math.ceil(size / 10)
        assert np.count_nonzero(p.A[:k, size:] == -1.0) == k

    def test_svm_structure(self):
        p = generate(FamilySpec("svm", 10, 1))
        assert p.n == 10 + 30
        assert p.m == 60

    def test_control_structure(self):
        p = generate(FamilySpec("control", 10, 1))
        assert p.n == 10 * 5  # T * ceil(size/2)
        assert p.m == 50 + 100

    @pytest.mark.parametrize("size", [5, 10, 50, 100])
    @pytest.mark.parametrize("seed", [1, 573290])
    def test_control_matches_the_kron_formula(self, size, seed):
        # The generator drops the identity state cost and writes G into A;
        # every field keeps the bits of the textbook formula.
        got, want = generate(FamilySpec("control", size, seed)), control_kron(size, seed)
        for k in "PqAlu":
            assert getattr(got, k).tobytes() == getattr(want, k).tobytes(), k
        assert (got.name, got.seed) == (want.name, want.seed)

    def test_mpc_dimensions(self):
        p = generate(FamilySpec("mpc", 100, 1))
        T, nx, nu = MPC_HORIZON, MPC_STATE_DIM, MPC_INPUT_DIM
        assert p.n == T * (nx + nu) + nx == 1600
        # equality rows: initial state + dynamics
        eq = np.sum((p.l == p.u))
        assert eq == nx + T * nx

    def test_mpc_shares_plant_data(self):
        p1 = generate(FamilySpec("mpc", 100, 1))
        p2 = generate(FamilySpec("mpc", 100, 2))
        assert np.array_equal(p1.P, p2.P)
        assert np.array_equal(p1.A, p2.A)
        # only the initial-state equality rows differ
        nx = MPC_STATE_DIM
        assert not np.array_equal(p1.l[:nx], p2.l[:nx])
        assert np.array_equal(p1.l[nx:], p2.l[nx:])
        assert np.array_equal(p1.u[nx:], p2.u[nx:])

    @pytest.mark.parametrize("family", ["random_qp", "portfolio", "lasso", "svm", "control"])
    def test_instances_valid_and_solvable(self, family):
        size = DESK_SIZES[family][0]
        prob = generate(FamilySpec(family, size, 5))
        rep = solve(prob, SolverConfig())
        assert rep.status == "solved"


def saved_files(prob: QpProblem, directory: Path) -> dict:
    """Name and bytes of every file save_problem writes for ``prob``."""
    directory.mkdir()
    save_problem(prob, directory / "p.json")
    return {f.name: f.read_bytes() for f in directory.iterdir()}


def operator_parts(M) -> tuple:
    """The arrays of an operator: a CSR matrix's parts, or the ndarray."""
    return (M.indptr, M.indices, M.data) if sparse.issparse(M) else (np.ascontiguousarray(M),)


def held_arrays(obj, seen=None) -> list:
    """Every ndarray reachable from ``obj`` through containers, the parts of
    sparse matrices and the attributes of objects."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if sparse.issparse(obj):
        children = (obj.data, obj.indices, obj.indptr)
    elif isinstance(obj, dict):
        children = obj.values()
    elif isinstance(obj, (tuple, list)):
        children = obj
    else:
        children = getattr(obj, "__dict__", {}).values()
    return [a for child in children for a in held_arrays(child, seen)]


SPARSE_GENERATOR_CASES = ([("lasso", size, 1) for size in documented_grid("lasso")]
                          + [("mpc", 100, seed) for seed in (1, 2, 573290)])


class TestSparseGenerators:
    """lasso and mpc build P and A as CSR matrices; the problem equals, bit
    for bit, the one built from the dense arrays of the same blocks."""

    @pytest.mark.parametrize("family,size,seed", SPARSE_GENERATOR_CASES)
    def test_matches_the_dense_oracle(self, tmp_path, family, size, seed):
        got = generate(FamilySpec(family, size, seed))
        want = {"lasso": lasso_dense, "mpc": mpc_dense}[family](size, seed)
        for k in "PqAlu":
            a, b = getattr(got, k), getattr(want, k)
            assert a.dtype == np.float64 and a.flags.c_contiguous, k
            assert a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64)), k
        assert (got.name, got.seed, got.kkt_backend) == (want.name, want.seed, want.kkt_backend)
        for a, b in zip(got.operators, want.operators):
            assert type(a) is type(b)
            for x, y in zip(operator_parts(a), operator_parts(b), strict=True):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        assert saved_files(got, tmp_path / "got") == saved_files(want, tmp_path / "want")

    @pytest.mark.parametrize("family,size", [("mpc", 100), ("lasso", 50)])
    def test_no_dense_matrix_is_held_or_built(self, tmp_path, monkeypatch, family, size):
        # Generated or loaded, solved and saved, a sparse-backend problem
        # holds no array with n*n or m*n entries and never densifies P or A.
        def refuse(a):
            raise AssertionError("a dense P or A was built")

        monkeypatch.setattr(problem_mod, "_dense", refuse)
        spec = FamilySpec(family, size, 1)
        generated = generate(spec)
        save_problem(generated, tmp_path / "p.json")
        loaded = load_problem(tmp_path / "p.json")
        for prob in (generated, loaded):
            assert prob.kkt_backend == "sparse"
            rep = solve(prob, SolverConfig())
            assert rep.status == "solved"
            n, m = prob.n, prob.m
            sizes = [a.size for a in held_arrays(prob.__dict__)]
            assert sizes and max(sizes) < min(n * n, m * n)
            assert not {"P", "A"} & set(prob.__dict__)
        monkeypatch.undo()
        assert generated.P.tobytes() == loaded.P.tobytes()
        assert generated.P is not generated.P

    def test_mpc_shared_data_is_read_only(self):
        arrays = [a for a in bench._mpc_shared_data() if isinstance(a, np.ndarray)]
        assert len(arrays) == 5
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0.0
        assert bench._mpc_shared_data() is bench._mpc_shared_data()


@pytest.fixture
def solve_eps(monkeypatch):
    """The eps_abs of every solve reference_solution runs, in order: one
    entry when the polish is kept, two when the tight solve runs after it."""
    calls = []

    def recording(prob, cfg, **kwargs):
        calls.append(cfg.eps_abs)
        return solve(prob, cfg, **kwargs)

    monkeypatch.setattr(bench, "solve", recording)
    return calls


def tight_solve(prob):
    return solve(prob, SolverConfig(eps_abs=1e-9, eps_rel=1e-9, max_iter=200000))


class TestReferenceSolution:
    def test_analytic_interior(self, solve_eps):
        # min 0.5 x^2, 0 <= x <= 1  ->  x* = 0, lambda* = 0; no row is active
        # and the polish keeps its point.
        prob = QpProblem(P=np.eye(1), q=np.zeros(1), A=np.eye(1),
                         l=np.zeros(1), u=np.ones(1))
        ref = reference_solution(prob)
        assert solve_eps == [bench.POLISH_EPS]
        assert ref.x_star[0] == pytest.approx(0.0, abs=1e-12)
        assert ref.lambda_star[0] == pytest.approx(0.0, abs=1e-12)

    def test_analytic_active_upper_bound(self):
        # min 0.5 (x-2)^2, 0 <= x <= 1  ->  x* = 1, lambda* = 1
        prob = QpProblem(P=np.eye(1), q=np.array([-2.0]), A=np.eye(1),
                         l=np.zeros(1), u=np.ones(1))
        ref = reference_solution(prob)
        assert ref.x_star[0] == pytest.approx(1.0, abs=1e-8)
        assert ref.lambda_star[0] == pytest.approx(1.0, abs=1e-8)

    def assert_polished_matches_active_set_enumeration(self, prob, solve_eps, unique_y=True):
        ref = reference_solution(prob)
        assert solve_eps == [bench.POLISH_EPS]
        assert ref.kkt_error <= bench.REFERENCE_KKT_TOL
        best = active_set_solution(prob)
        assert best is not None
        x_oracle, y_oracle, obj_oracle = best
        assert_allclose(ref.x_star, x_oracle, rtol=0, atol=1e-9)
        if unique_y:
            assert_allclose(ref.lambda_star, y_oracle, rtol=0, atol=1e-9)
        assert ref.objective == pytest.approx(obj_oracle, abs=1e-9)

    def test_matches_active_set_enumeration(self, solve_eps):
        prob = generate(FamilySpec("random_qp", 8, 0))  # m = 4 rows
        self.assert_polished_matches_active_set_enumeration(prob, solve_eps)

    def test_portfolio_matches_active_set_enumeration(self, solve_eps):
        # Two equality rows and ten rows bounded on both sides.
        prob = generate(FamilySpec("portfolio", 10, 1))
        self.assert_polished_matches_active_set_enumeration(prob, solve_eps)

    def test_degenerate_vertex_keeps_the_solve_multipliers(self, solve_eps):
        # Every asset row and the budget are active at x* = e_1: twelve rows
        # of rank eleven, so the multipliers are not unique.  Polished from
        # zero they took wrong signs; from the solve's y they pass the check.
        prob = generate(FamilySpec("portfolio", 10, 3))
        self.assert_polished_matches_active_set_enumeration(prob, solve_eps, unique_y=False)

    def test_second_active_set_is_polished(self, solve_eps, monkeypatch):
        # The solve's active set misses the check here; the sets of the
        # polished points are polished in turn, three in all.
        polishes = []
        polish = bench._polish
        monkeypatch.setattr(bench, "_polish", lambda *a: polishes.append(a[4]) or polish(*a))
        prob = generate(FamilySpec("portfolio", 10, 9))
        self.assert_polished_matches_active_set_enumeration(prob, solve_eps)
        assert len(polishes) == bench.POLISH_ROUNDS

    def test_kkt_error_within_tolerance(self):
        prob = generate(FamilySpec("portfolio", 10, 2))
        ref = reference_solution(prob)
        assert ref.kkt_error <= 1e-8

    @pytest.mark.parametrize("size, seed", [(10, 5), (15, 8), (50, 1)])
    def test_lasso_references_pass_their_kkt_check(self, size, seed):
        # The eps = 1e-9 solve alone misses 1e-8 on these, by 3.6e-8 to 1.3e-7.
        prob = generate(FamilySpec("lasso", size, seed))
        if size == 50:
            assert prob.kkt_backend == "sparse"
        ref = reference_solution(prob)
        assert ref.kkt_error <= bench.REFERENCE_KKT_TOL
        res = problem_mod.osqp_residuals(
            prob, ref.x_star, np.clip(prob.A @ ref.x_star, prob.l, prob.u), ref.lambda_star)
        assert max(res.r_prim_inf, res.r_dual_inf) <= bench.REFERENCE_KKT_TOL

    def test_rejected_polish_returns_the_tight_solve(self, solve_eps, monkeypatch):
        # With one polish allowed, portfolio_n10_s9's first polished point
        # misses the check, and the tight solve gives the reference.
        monkeypatch.setattr(bench, "POLISH_ROUNDS", 1)
        prob = generate(FamilySpec("portfolio", 10, 9))
        ref = reference_solution(prob)
        assert solve_eps == [bench.POLISH_EPS, bench.REFERENCE_EPS]
        rep = tight_solve(prob)
        assert np.array_equal(ref.x_star, rep.x)
        assert np.array_equal(ref.lambda_star, rep.y)
        assert ref.objective == rep.objective
        assert ref.kkt_error <= bench.REFERENCE_KKT_TOL

    def test_failed_polish_returns_the_tight_solve(self, solve_eps, monkeypatch):
        def singular(prob, cfg):
            raise SingularKktError(step=0, index=0, pivot=0.0)

        monkeypatch.setattr(bench, "init_state", singular)
        prob = generate(FamilySpec("random_qp", 8, 0))
        ref = reference_solution(prob)
        assert solve_eps == [bench.POLISH_EPS, bench.REFERENCE_EPS]
        assert np.array_equal(ref.x_star, tight_solve(prob).x)

    def test_failure_names_each_kkt_part(self, monkeypatch):
        monkeypatch.setattr(bench, "REFERENCE_KKT_TOL", 1e-300)
        prob = generate(FamilySpec("random_qp", 8, 0))
        with pytest.raises(ReferenceFailureError,
                           match=r"on 'random_qp_n8_s0' \(primal \S+, dual \S+, normal cone \S+\)$"):
            reference_solution(prob)

    def test_complementarity_measure(self):
        prob = QpProblem(P=np.eye(1), q=np.zeros(1), A=np.eye(1),
                         l=np.zeros(1), u=np.ones(1))
        # z at the lower bound with a multiplier: complementary
        assert normal_cone_gap(prob, np.array([0.0]), np.array([-2.0])) == 0.0
        # interior z with a nonzero multiplier: violation = min(|y|, slack)
        assert normal_cone_gap(prob, np.array([0.5]), np.array([-2.0])) == 0.5
        # z at the lower bound with a positive multiplier, which belongs to
        # the upper bound: min(|y|, u - z)
        assert normal_cone_gap(prob, np.array([0.0]), np.array([2.0])) == 1.0
        wide = QpProblem(P=np.eye(1), q=np.zeros(1), A=np.eye(1),
                         l=np.zeros(1), u=np.full(1, np.inf))
        assert normal_cone_gap(wide, np.array([0.0]), np.array([2.0])) == 2.0
        assert normal_cone_gap(wide, np.array([3.0]), np.array([0.0])) == 0.0


class TestManifestAndStore:
    def test_spec_roundtrip(self):
        spec = FamilySpec("svm", 10, 3, "val")
        assert spec_from_dict(asdict(spec)) == spec

    @pytest.mark.parametrize("field,value", [
        ("size", 20.9), ("size", 20.0), ("size", "20"), ("size", True), ("seed", "3"),
        ("seed", 3.0), ("seed", None), ("seed", False),
    ])
    def test_spec_size_and_seed_must_be_integers(self, field, value):
        doc = {"family": "random_qp", "size": 20, "seed": 3, field: value}
        with pytest.raises(InputError, match=f"field '{field}' must be an integer"):
            spec_from_dict(doc)

    def test_split_disjointness_enforced(self, tmp_path):
        specs = [
            FamilySpec("random_qp", 10, 1, "train"),
            FamilySpec("random_qp", 20, 1, "test"),
        ]
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"specs": [asdict(s) for s in specs]}))
        with pytest.raises(InputError, match=f"^manifest {re.escape(str(path))}: family "
                                             r"'random_qp': splits share seeds \[1\]$"):
            load_manifest(path)

    def test_fixed_keys_are_given_and_refused(self):
        fixed = {"family": "svm", "split": "val"}
        assert spec_from_dict({"size": 10, "seed": 3}, **fixed) == FamilySpec("svm", 10, 3, "val")
        for key in fixed:
            with pytest.raises(InputError, match=rf"unknown fields \['{key}'\]"):
                spec_from_dict({"size": 10, "seed": 3, key: fixed[key]}, **fixed)
        with pytest.raises(InputError, match=r"lacks fields \['seed'\]"):
            spec_from_dict({"size": 10}, **fixed)

    def test_manifest_specs_names_the_list_and_entry(self):
        lists = {"a": ([{"family": "svm", "size": 10, "seed": 1}], {}),
                 "b": ([{"size": 10, "seed": 2}, {"size": 10, "seed": "2"}],
                       {"family": "svm", "split": "val"})}
        with pytest.raises(InputError, match=r"^where: field 'b' entry 1: malformed family "
                                             r"spec: field 'seed' must be an integer"):
            manifest_specs("where", lists)
        lists["b"][0].pop()
        assert manifest_specs("where", lists) == [FamilySpec("svm", 10, 1),
                                                  FamilySpec("svm", 10, 2, "val")]

    def test_manifest_roundtrip(self, tmp_path):
        specs = [
            FamilySpec("random_qp", 10, 1, "train"),
            FamilySpec("random_qp", 10, 2, "val"),
            FamilySpec("svm", 10, 1, "test"),
        ]
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"specs": [asdict(s) for s in specs]}))
        assert load_manifest(path) == specs

    def test_store_layout_and_cache(self, tmp_path):
        spec = FamilySpec("random_qp", 10, 9)
        prob, ref = ensure_instance(tmp_path, spec, with_reference=True)
        d = tmp_path / "random_qp" / "size10" / "seed9"
        assert (d / "problem.json").exists()
        assert (d / "reference.json").exists()
        prob2, ref2 = ensure_instance(tmp_path, spec, with_reference=True)
        assert np.array_equal(prob2.P, prob.P)
        assert np.array_equal(ref2.x_star, ref.x_star)

    def test_default_desk_manifest_covers_all_families(self):
        fams = {s.family for s in default_desk_manifest()}
        assert fams == {"random_qp", "portfolio", "lasso", "svm", "control", "mpc"}
