import csv
import json
import re
from dataclasses import asdict

import numpy as np
import pytest

from relaxqp import cli
from relaxqp.bench import FamilySpec, ensure_instance, generate, instance_dir
from relaxqp.cli import main
from relaxqp.engine import SolverConfig, solve
from relaxqp.policy import checkpoint_to_dict, init_checkpoint, load_checkpoint, save_checkpoint
from relaxqp.problem import CSR_SIDECAR_KEY, SIDECAR_KEY, QpProblem, save_problem
from relaxqp.training import collect_norm_stats
from relaxqp.verify import (
    DriftSchedule,
    check_descent,
    reconstruct_drs,
    record_trajectory,
    run_drift_experiment,
)


def write_manifest(specs: list, path) -> None:
    path.write_text(json.dumps({"specs": [asdict(s) for s in specs]}))


@pytest.fixture()
def tiny_problem_file(tmp_path):
    prob = QpProblem(P=np.eye(1), q=np.array([-0.5]), A=np.eye(1),
                     l=np.zeros(1), u=np.ones(1), name="tiny")
    path = tmp_path / "tiny.json"
    save_problem(prob, path)
    return path


@pytest.fixture()
def random_problem_file(tmp_path):
    prob = generate(FamilySpec("random_qp", 15, 3))
    path = tmp_path / "rqp.json"
    save_problem(prob, path)
    return path


class TestSolveCommand:
    def test_trivial_exit_zero(self, tiny_problem_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["solve", "--problem", str(tiny_problem_file), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "solved"
        assert report["kkt_backend"] == "dense"
        assert report["iterations"] >= 1
        assert (out / "residuals.csv").exists()

    def test_stdout_report_names_the_backend(self, tiny_problem_file, capsys):
        assert main(["solve", "--problem", str(tiny_problem_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kkt_backend"] == "dense"

    def test_csr_problem_file(self, tmp_path, capsys):
        prob = generate(FamilySpec("lasso", 20, 1))
        path = tmp_path / "lasso.json"
        save_problem(prob, path)
        assert set(json.loads(path.read_text())["A"]) == {CSR_SIDECAR_KEY, "nnz"}
        assert main(["solve", "--problem", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["status"], report["kkt_backend"]) == ("solved", "sparse")
        rep = solve(prob, SolverConfig())
        assert [report[k] for k in ("x", "z", "y")] == [rep.x.tolist(), rep.z.tolist(), rep.y.tolist()]

    def test_max_iter_exit_two(self, random_problem_file):
        rc = main(["solve", "--problem", str(random_problem_file), "--max-iter", "1"])
        assert rc == 2

    def test_malformed_input_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["solve", "--problem", str(bad)])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_exit_one(self):
        assert main(["solve", "--problem", "/nonexistent/problem.json"]) == 1

    def test_indefinite_kkt_exit_one(self, tmp_path, capsys):
        # P passes the PSD probe (it tolerates eigenvalues down to -1e-9), but
        # with sigma = 1e-12 the KKT matrix P + sigma*I + A'RA is indefinite
        # in its second column, which no constraint row touches.
        prob = QpProblem(P=np.diag([1.0, -5e-10]), q=np.zeros(2), A=np.array([[1.0, 0.0]]),
                         l=-np.ones(1), u=np.ones(1), name="indefinite")
        path = tmp_path / "indefinite.json"
        save_problem(prob, path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sigma": 1e-12}))
        rc = main(["solve", "--problem", str(path), "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("relaxqp: error: singular KKT system")
        assert "matrix index 1" in err
        assert "Traceback" not in err

    def test_deterministic_report_modulo_runtime(self, random_problem_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--problem", str(random_problem_file), "--out", str(out1)]) == 0
        assert main(["solve", "--problem", str(random_problem_file), "--out", str(out2)]) == 0
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        r1.pop("runtime_seconds")
        r2.pop("runtime_seconds")
        assert r1 == r2

    def test_policy_checkpoint(self, random_problem_file, tmp_path, capsys):
        # A checkpoint runs as the variant it was trained as.
        for variant in ("scalar", "vector"):
            ck_path = tmp_path / f"{variant}.json"
            save_checkpoint(init_checkpoint(variant, seed=0), ck_path)
            rc = main(["solve", "--problem", str(random_problem_file), "--checkpoint", str(ck_path)])
            assert rc == 0
            assert json.loads(capsys.readouterr().out)["policy_queries"] > 0

    def test_report_carries_the_policy_time(self, random_problem_file, tmp_path, capsys):
        ck_path = tmp_path / "ck.json"
        save_checkpoint(init_checkpoint("vector", seed=0), ck_path)
        args = ["solve", "--problem", str(random_problem_file)]
        assert main(args + ["--checkpoint", str(ck_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["policy_queries"] == (report["iterations"] - 1) // 10 > 0
        assert 0.0 < report["policy_seconds"] < report["runtime_seconds"]
        assert main(args) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["policy_queries"], report["policy_seconds"]) == (0, 0.0)


class TestBenchCommand:
    def test_rows_and_summary(self, tmp_path):
        manifest = tmp_path / "m.json"
        write_manifest([FamilySpec("random_qp", 10, s) for s in (1, 2)], manifest)
        out = tmp_path / "bench.csv"
        rc = main([
            "bench", "--manifest", str(manifest), "--store", str(tmp_path / "store"),
            "--out", str(out),
        ])
        assert rc == 0
        rows = list(csv.DictReader(out.open()))
        data = [r for r in rows if r["status"] != "summary"]
        summaries = [r for r in rows if r["status"] == "summary"]
        # 2 instances x baseline x {fixed, adaptive}
        assert len(data) == 4
        assert {r["rho_mode"] for r in data} == {"fixed", "adaptive"}
        assert {r["kkt_backend"] for r in data} == {"dense"}
        assert len(summaries) == 2

    def test_policy_column_present_with_checkpoint(self, tmp_path):
        manifest = tmp_path / "m.json"
        write_manifest([FamilySpec("random_qp", 10, 1)], manifest)
        ck_path = tmp_path / "scalar_policy.json"
        save_checkpoint(init_checkpoint("scalar", seed=0), ck_path)
        out = tmp_path / "bench.csv"
        rc = main([
            "bench", "--manifest", str(manifest), "--store", str(tmp_path / "store"),
            "--checkpoint", str(ck_path), "--out", str(out),
        ])
        assert rc == 0
        rows = list(csv.DictReader(out.open()))
        assert {r["policy"] for r in rows} == {"baseline", "scalar_policy"}
        # Each row carries its solve's query count, factorizations and policy
        # time: the policy rows query, the baseline rows do not.
        data = [r for r in rows if r["status"] != "summary"]
        for r in data:
            assert int(r["factorizations"]) == 1 + int(r["rho_updates"])
            queried = int(r["policy_queries"]) > 0
            assert queried == (float(r["policy_seconds"]) > 0.0) == (r["policy"] != "baseline")
        for r in rows:
            if r["status"] == "summary":
                grp = [d for d in data if (d["policy"], d["rho_mode"]) == (r["policy"], r["rho_mode"])]
                assert float(r["policy_queries"]) == pytest.approx(
                    np.mean([int(d["policy_queries"]) for d in grp]), abs=0.005)

    def test_checkpoint_in_the_other_rho_mode_is_named(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        write_manifest([FamilySpec("random_qp", 10, 1)], manifest)
        paths = {}
        for name, metadata in (("plain", {}), ("fixed", {"adaptive_rho": False}),
                               ("adaptive", {"adaptive_rho": True})):
            paths[name] = tmp_path / f"{name}.json"
            save_checkpoint(init_checkpoint("scalar", seed=0, metadata=metadata), paths[name])
        outs = []
        for name in ("plain", "fixed", "adaptive"):
            outs.append(tmp_path / f"{name}.csv")
            assert main(["bench", "--manifest", str(manifest), "--store", str(tmp_path / "store"),
                         "--checkpoint", str(paths[name]), "--out", str(outs[-1])]) == 0
            err = capsys.readouterr().err.splitlines()
            named = [line for line in err if str(paths[name]) in line]
            if name == "plain":
                assert named == []
            else:
                other = "adaptive" if name == "fixed" else "fixed"
                assert named == [f"bench: checkpoint {paths[name]} was trained with {name} rho; "
                                 f"its {other}-rho rows run it in the other mode"]
        # the CSV is as it was: the checkpoint's label and the timing columns
        # aside, the three runs write the same rows (summaries sort by label)
        def columns(out):
            rows = [{**r, "policy": r["policy"] == "baseline", "runtime_s": "", "policy_seconds": ""}
                    for r in csv.DictReader(out.open())]
            return sorted(rows, key=lambda r: list(r.values()))
        assert columns(outs[0]) == columns(outs[1]) == columns(outs[2])

    def test_empty_manifest_header_only(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"specs": []}))
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--manifest", str(manifest), "--out", str(out)])
        assert rc == 0
        content = out.read_text().strip().splitlines()
        assert len(content) == 1
        assert content[0].startswith("family,")

    def test_determinism_of_iteration_columns(self, tmp_path):
        manifest = tmp_path / "m.json"
        write_manifest([FamilySpec("random_qp", 10, 4)], manifest)
        outs = []
        for name in ("b1.csv", "b2.csv"):
            out = tmp_path / name
            main(["bench", "--manifest", str(manifest), "--store",
                  str(tmp_path / "store"), "--out", str(out)])
            rows = list(csv.DictReader(out.open()))
            outs.append([r["iterations"] for r in rows])
        assert outs[0] == outs[1]

    def test_parallel_jobs_preserve_manifest_order(self, tmp_path):
        manifest = tmp_path / "m.json"
        write_manifest([FamilySpec("random_qp", 10, s) for s in (1, 2, 3)], manifest)
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        main(["bench", "--manifest", str(manifest), "--store",
              str(tmp_path / "store"), "--out", str(serial)])
        rc = main(["bench", "--manifest", str(manifest), "--store",
                   str(tmp_path / "store"), "--out", str(parallel), "--jobs", "2"])
        assert rc == 0
        rows_s = list(csv.DictReader(serial.open()))
        rows_p = list(csv.DictReader(parallel.open()))
        keyed_s = [(r["seed"], r["rho_mode"], r["iterations"]) for r in rows_s]
        keyed_p = [(r["seed"], r["rho_mode"], r["iterations"]) for r in rows_p]
        assert keyed_s == keyed_p

    def test_each_checkpoint_loaded_once(self, tmp_path, monkeypatch):
        # bench compiles each checkpoint once and hands the policy to every
        # task, the worker processes of --jobs 2 included.
        manifest = tmp_path / "m.json"
        write_manifest([FamilySpec("random_qp", 10, s) for s in (1, 2)], manifest)
        argv = ["bench", "--manifest", str(manifest), "--store", str(tmp_path / "store")]
        for variant in ("scalar", "vector"):
            save_checkpoint(init_checkpoint(variant, seed=0), tmp_path / f"{variant}.json")
            argv += ["--checkpoint", str(tmp_path / f"{variant}.json")]
        loaded = []
        monkeypatch.setattr(cli, "load_checkpoint", lambda path: loaded.append(path) or
                            load_checkpoint(path))
        rows = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}.csv"
            assert main(argv + ["--out", str(out), "--jobs", jobs]) == 0
            rows[jobs] = [{k: v for k, v in r.items() if k not in ("runtime_s", "policy_seconds")}
                          for r in csv.DictReader(out.open())]
        assert loaded == [str(tmp_path / "scalar.json"), str(tmp_path / "vector.json")] * 2
        assert rows["1"] == rows["2"]
        assert {r["policy"] for r in rows["1"]} == {"baseline", "scalar", "vector"}

    def test_each_instance_read_once(self, tmp_path, monkeypatch):
        # One read (or generation) of each instance serves all of its rows,
        # which come instance-major, then policy, then fixed before adaptive.
        manifest = tmp_path / "m.json"
        write_manifest([FamilySpec("random_qp", 10, s) for s in (2, 1)], manifest)
        save_checkpoint(init_checkpoint("scalar", seed=0), tmp_path / "ck.json")
        argv = ["bench", "--manifest", str(manifest), "--store", str(tmp_path / "store"),
                "--checkpoint", str(tmp_path / "ck.json")]
        ensured = []

        def ensure(store, spec):
            ensured.append(spec.seed)
            return ensure_instance(store, spec)

        monkeypatch.setattr(cli.bench_mod, "ensure_instance", ensure)
        for run in ("generated", "loaded"):
            ensured.clear()
            out = tmp_path / f"{run}.csv"
            assert main(argv + ["--out", str(out)]) == 0
            assert ensured == [2, 1]
            rows = [r for r in csv.DictReader(out.open()) if r["status"] != "summary"]
            assert [(r["seed"], r["policy"], r["rho_mode"]) for r in rows] == [
                (seed, policy, mode) for seed in ("2", "1") for policy in ("baseline", "ck")
                for mode in ("fixed", "adaptive")]


class TestUsageErrors:
    """A removed, unknown or malformed flag ends as the usage text and one
    error line naming it, with exit 1; 2 is solve's iteration-limit code."""

    @pytest.mark.parametrize("argv,named", [
        (["solve", "--problem", "p.json", "--seed", "1"], "--seed"),
        (["bench", "--manifest", "m.json", "--seed", "1"], "--seed"),
        (["train", "--manifest", "m.json", "--seed", "1"], "--seed"),
        (["bench", "--manifest", "m.json", "--adaptive-rho", "off"], "--adaptive-rho"),
        (["verify", "--manifest", "m.json", "--adaptive-rho", "off"], "--adaptive-rho"),
        (["verify", "--manifest", "m.json", "--max-iter", "1"], "--max-iter"),
        (["solve", "--problem", "p.json", "--policy", "scalar"], "--policy"),
        (["solve", "--problem", "p.json", "--bogus"], "--bogus"),
        (["solve", "--problem", "p.json", "--max-iter", "many"], "--max-iter"),
        (["train", "--manifest", "m.json", "--adaptive-rho", "maybe"], "--adaptive-rho"),
        (["verify"], "--manifest"),
        (["verify", "--manifest", "m.json", "--steps", "0"], "--steps"),
        (["verify", "--manifest", "m.json", "--drift-iters", "-5"], "--drift-iters"),
        (["verify", "--manifest", "m.json", "--drift-iters", "0"], "--drift-iters"),
        (["verify", "--manifest", "m.json", "--steps", "1.5"], "--steps"),
        (["solve", "--problem", "p.json", "--max-iter", "0"], "--max-iter"),
        (["bench", "--manifest", "m.json", "--max-iter", "0"], "--max-iter"),
        (["train", "--manifest", "m.json", "--max-iter", "-1"], "--max-iter"),
        (["bench", "--manifest", "m.json", "--jobs", "-3"], "--jobs"),
        (["bench", "--manifest", "m.json", "--jobs", "0"], "--jobs"),
        (["verify", "--manifest", "m.json", "--jobs", "0"], "--jobs"),
    ], ids=["solve_seed", "bench_seed", "train_seed", "bench_adaptive_rho",
            "verify_adaptive_rho", "verify_max_iter", "solve_policy", "unknown_flag",
            "malformed_value", "invalid_choice", "missing_required", "zero_steps",
            "negative_drift_iters", "zero_drift_iters", "fractional_steps", "solve_zero_max_iter",
            "bench_zero_max_iter", "train_negative_max_iter", "bench_negative_jobs",
            "bench_zero_jobs", "verify_zero_jobs"])
    def test_exit_one_with_one_error_line(self, capsys, argv, named):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        errors = [line for line in err.splitlines() if "error" in line]
        assert out == "" and err.startswith("usage: relaxqp") and "Traceback" not in err
        assert errors == [err.splitlines()[-1]]
        assert errors[0].startswith("relaxqp: error: ") and named in errors[0]

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        assert "--checkpoint" in capsys.readouterr().out


class TestInputErrors:
    """Malformed inputs end as one error line and exit 1, never a traceback."""

    def _expect_error(self, argv, field, capsys):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("relaxqp: error:") and err.count("\n") == 1 and field in err

    def test_mistyped_config_value(self, tiny_problem_file, tmp_path, capsys):
        # A JSON boolean is not a number and a number is not a boolean.
        cfg = tmp_path / "cfg.json"
        for doc, field in [({"rho0": "abc"}, "'rho0' must be float, got 'abc'"),
                           ({"max_iter": True}, "'max_iter' must be int, got True"),
                           ({"adaptive_rho": 1}, "'adaptive_rho' must be bool, got 1"),
                           ({"rho0": True}, "'rho0' must be float, got True")]:
            cfg.write_text(json.dumps(doc))
            self._expect_error(
                ["solve", "--problem", str(tiny_problem_file), "--config", str(cfg)], field, capsys
            )

    @pytest.mark.parametrize("doc,field", [({"eps_abs": 0}, "'eps_abs'"),
                                           ({"eps_rel": float("nan")}, "'eps_rel'")],
                             ids=["eps_abs_zero", "eps_rel_nan"])
    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_invalid_tolerance_in_config(self, tiny_problem_file, tmp_path, capsys, doc, field,
                                         command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))  # NaN is written as the literal NaN
        if command == "solve":
            argv = ["solve", "--problem", str(tiny_problem_file)]
        else:
            manifest = tmp_path / "m.json"
            write_manifest([FamilySpec("random_qp", 10, 1)], manifest)
            argv = ["bench", "--manifest", str(manifest), "--store", str(tmp_path / "store"),
                    "--out", str(tmp_path / "results.csv")]
        self._expect_error(argv + ["--config", str(cfg)], field, capsys)
        assert not (tmp_path / "results.csv").exists()

    def test_problem_matrix_size_mismatch(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "n": 2, "m": 1, "P": [1.0, 0.0, 1.0], "q": [0.0, 0.0], "A": [1.0, 1.0],
            "l": [-1.0], "u": [1.0],
        }))
        self._expect_error(["solve", "--problem", str(bad)], "'P'", capsys)

    @pytest.mark.parametrize("text,named", [
        (json.dumps({"family": "random_qp", "val_instances": []}), "train_instances"),
        ("{not json", "invalid training manifest"),
        (json.dumps({"family": "random_qp", "train_instances": [], "val_instances": [],
                     "config": {"epoch": 1}}), "'epoch'"),
        (json.dumps({"family": "random_qp", "train_instances": [], "val_instances": [],
                     "config": {"epochs": "many"}}), "'epochs'"),
        (json.dumps({"family": "random_qp", "train_instances": [], "val_instances": [],
                     "config": {"epochs": True}}), "'epochs' must be int, got True"),
        (json.dumps({"family": "random_qp", "train_instances": 5, "val_instances": []}),
         "'train_instances' must be a list"),
        (json.dumps({"family": "random_qp", "train_instances": [{"size": 10, "seed": 1}],
                     "val_instances": [3]}), "'val_instances' must be a list of objects"),
        (json.dumps({"family": "random_qp", "varient": "vector", "train_instances": [],
                     "val_instances": []}), "unknown fields ['varient']"),
        (json.dumps({"family": "random_qp", "seed": 3, "train_instances": [],
                     "val_instances": []}), "unknown fields ['seed']"),
        (json.dumps({"family": "random_qp", "variant": ["vector"], "train_instances": [],
                     "val_instances": []}), "unknown policy variant ['vector']"),
        (json.dumps({"family": "random_qp", "train_instances": [],
                     "val_instances": [{"size": 10, "seed": 11}], "config": {"batch_size": 1}}),
         "field 'train_instances' lists no instance"),
        (json.dumps({"family": "random_qp", "train_instances": [{"size": 10, "seed": 1}],
                     "val_instances": [{"size": 10, "seed": 11}]}),
         "'batch_size' (16) exceeds the number of training instances (1)"),
    ], ids=["missing_train_instances", "not_json", "unknown_config_key", "mistyped_config_value",
            "bool_config_value", "instances_not_a_list", "instance_not_an_object", "misspelt_key",
            "top_level_seed", "variant_not_a_string", "no_training_instances",
            "batch_size_above_training_set"])
    def test_malformed_train_manifest(self, tmp_path, capsys, text, named):
        # Refused before any reference solve: no instance store, no checkpoint.
        man_path = tmp_path / "train.json"
        man_path.write_text(text)
        self._expect_error(
            ["train", "--manifest", str(man_path), "--store", str(tmp_path / "store"),
             "--out", str(tmp_path / "run")],
            named,
            capsys,
        )
        assert sorted(f.name for f in tmp_path.iterdir()) == ["train.json"]

    @pytest.mark.parametrize("train,val,named", [
        ([{"size": 10, "seed": 1}, {"size": 10, "sede": 2}], [{"size": 10, "seed": 11}],
         "field 'train_instances' entry 1: family spec: unknown fields ['sede']"),
        ([{"size": 10, "seed": 1}], [{"size": 10, "seed": 11}, {"size": 11, "seed": 12}],
         "field 'val_instances' entry 1: size 11 not in the documented grid"),
        ([{"size": 10, "seed": 1, "split": "val"}], [{"size": 10, "seed": 11}],
         "field 'train_instances' entry 0: family spec: unknown fields ['split']"),
        ([{"size": 10, "seed": 1}], [{"family": "svm", "size": 10, "seed": 11}],
         "field 'val_instances' entry 0: family spec: unknown fields ['family']"),
        ([{"size": 10, "seed": 1}, {"size": 10, "seed": 2}], [{"size": 20, "seed": 2}],
         "family 'random_qp': splits share seeds [2]"),
    ], ids=["later_entry_misspelt", "later_entry_off_grid", "entry_carries_split",
            "entry_carries_family", "train_and_val_share_a_seed"])
    def test_bad_instance_entry_writes_nothing(self, tmp_path, capsys, train, val, named):
        # Every entry becomes a spec before the first instance is generated,
        # and the error names the manifest file and the entry.
        man_path = tmp_path / "train.json"
        man_path.write_text(json.dumps({"family": "random_qp", "train_instances": train,
                                        "val_instances": val,
                                        "config": {"epochs": 0, "batch_size": 1}}))
        self._expect_error(
            ["train", "--manifest", str(man_path), "--store", str(tmp_path / "store"),
             "--out", str(tmp_path / "run")],
            f"training manifest {man_path}: {named}",
            capsys,
        )
        assert sorted(f.name for f in tmp_path.iterdir()) == ["train.json"]

    @pytest.mark.parametrize("config,named", [
        ({"step_size": float("nan")}, "'step_size'"),
        ({"perturbation": 0.0}, "'perturbation'"),
        ({"loss_eps": -1e-10}, "unknown config fields: ['loss_eps']"),
        ({"epochs": -1}, "'epochs'"),
        ({"horizon": -5}, "'horizon'"),
        ({"stage_length": 20}, "unknown config fields: ['stage_length']"),
    ], ids=["step_size_nan", "perturbation_zero", "loss_eps_negative", "epochs_negative",
            "horizon_negative", "stage_length"])
    def test_invalid_train_config_writes_nothing(self, tmp_path, capsys, config, named):
        # Rejected before any reference solve: no instance store, no checkpoint.
        man_path = tmp_path / "train.json"
        man_path.write_text(json.dumps({
            "family": "random_qp", "train_instances": [{"size": 10, "seed": 1}],
            "val_instances": [{"size": 10, "seed": 11}], "config": config,
        }))  # NaN is written as the literal NaN
        argv = ["train", "--manifest", str(man_path), "--store", str(tmp_path / "store"),
                "--out", str(tmp_path / "run")]
        self._expect_error(argv, named, capsys)
        assert sorted(f.name for f in tmp_path.iterdir()) == ["train.json"]


    @pytest.mark.parametrize("field", ["W1", "b1", "ln2_gain", "norm_std"])
    def test_checkpoint_field_one_entry_short(self, random_problem_file, tmp_path, capsys, field):
        doc = checkpoint_to_dict(init_checkpoint("scalar", seed=0))
        doc[field] = doc[field][:-1]
        ck_path = tmp_path / "ck.json"
        ck_path.write_text(json.dumps(doc))
        self._expect_error(
            ["solve", "--problem", str(random_problem_file), "--checkpoint", str(ck_path)],
            f"'{field}'",
            capsys,
        )

    def test_deleted_sidecar_file(self, random_problem_file, capsys):
        name = json.loads(random_problem_file.read_text())["P"][SIDECAR_KEY]
        (random_problem_file.parent / name).unlink()
        self._expect_error(["solve", "--problem", str(random_problem_file)], name, capsys)

    def test_bench_manifest_non_integer_size(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"specs": [{"family": "random_qp", "size": "x", "seed": 1}]}))
        self._expect_error(
            ["bench", "--manifest", str(manifest), "--store", str(tmp_path / "store")],
            "malformed family spec",
            capsys,
        )

    @pytest.mark.parametrize("doc,named", [
        ({"spex": [{"family": "random_qp", "size": 10, "seed": 1}]}, "unknown fields ['spex']"),
        ({}, "lacks fields ['specs']"),
        ({"specs": [{"family": "random_qp", "size": 10, "seed": 1, "slpit": "train"}]},
         "unknown fields ['slpit']"),
        ({"specs": [3]}, "3 is not an object"),
        ({"specs": [{"family": "random_qp", "size": 10, "seed": 1},
                    {"family": "random_qp", "size": 10, "sede": 2}]},
         "field 'specs' entry 1: family spec: unknown fields ['sede']"),
    ], ids=["misspelt_specs", "missing_specs", "unknown_entry_key", "entry_not_an_object",
            "later_entry_misspelt"])
    @pytest.mark.parametrize("command", ["bench", "verify"])
    def test_manifest_keys_are_checked(self, tmp_path, capsys, command, doc, named):
        manifest, out = tmp_path / "m.json", tmp_path / "out"
        manifest.write_text(json.dumps(doc))
        argv = [command, "--manifest", str(manifest), "--store", str(tmp_path / "store"),
                "--out", str(out)]
        self._expect_error(argv, named, capsys)
        assert not out.exists()

    def test_bench_names_the_broken_problem_file_of_a_store(self, tmp_path, capsys):
        specs = [FamilySpec("random_qp", 10, 1), FamilySpec("control", 10, 1)]
        manifest, store = tmp_path / "m.json", tmp_path / "store"
        write_manifest(specs, manifest)
        argv = ["bench", "--manifest", str(manifest), "--store", str(store),
                "--out", str(tmp_path / "r.csv")]
        assert main(argv) == 0
        good, broken = (instance_dir(store, s) / "problem.json" for s in specs)
        doc = json.loads(broken.read_text())
        doc["P"] = {"csr": {}}  # a form no writer produces any more
        broken.write_text(json.dumps(doc))
        capsys.readouterr()
        self._expect_error(argv, f"problem file {broken}: malformed problem document", capsys)
        assert str(good) not in capsys.readouterr().err

    @pytest.mark.parametrize("text,named", [
        (json.dumps({"x_star": [1.0]}), "lambda_star"),
        ("{not json", "invalid reference file"),
        (json.dumps({"x_star": [1.0], "lambda_star": [0.0] * 5, "objective": 0, "kkt_error": 0}),
         "'x_star'"),
        (json.dumps({"x_star": [0.0] * 10, "lambda_star": [1.0], "objective": 0, "kkt_error": 0}),
         "'lambda_star'"),
    ], ids=["missing_field", "not_json", "x_star_wrong_length", "lambda_star_wrong_length"])
    def test_verify_malformed_reference(self, tmp_path, capsys, text, named):
        spec = FamilySpec("random_qp", 10, 5)
        manifest = tmp_path / "m.json"
        write_manifest([spec], manifest)
        ensure_instance(tmp_path / "store", spec)
        (instance_dir(tmp_path / "store", spec) / "reference.json").write_text(text)
        self._expect_error(
            ["verify", "--manifest", str(manifest), "--store", str(tmp_path / "store"),
             "--steps", "10", "--drift-iters", "100", "--jobs", "1"],
            named,
            capsys,
        )


class TestJsonFiles:
    """Every JSON input file goes through one reader: undecodable bytes,
    invalid JSON and a top level that is not an object end as an error line
    naming the file, never a traceback."""

    BAD = {"undecodable": b"\xff\xfe\xfd{}", "invalid": b"{not json",
           "not_object": b'[{"a": 1}]'}

    def _expect_error(self, argv, path, capsys):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("relaxqp: error: invalid ") and str(path) in err
        assert "Traceback" not in err

    @pytest.fixture(params=sorted(BAD))
    def bad_file(self, request, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(self.BAD[request.param])
        return path

    def test_problem_file(self, bad_file, capsys):
        self._expect_error(["solve", "--problem", str(bad_file)], bad_file, capsys)

    def test_config_file(self, bad_file, tiny_problem_file, capsys):
        self._expect_error(
            ["solve", "--problem", str(tiny_problem_file), "--config", str(bad_file)],
            bad_file,
            capsys,
        )

    def test_checkpoint_file(self, bad_file, tiny_problem_file, capsys):
        self._expect_error(
            ["solve", "--problem", str(tiny_problem_file), "--checkpoint", str(bad_file)],
            bad_file,
            capsys,
        )

    def test_bench_manifest(self, bad_file, tmp_path, capsys):
        self._expect_error(
            ["bench", "--manifest", str(bad_file), "--store", str(tmp_path / "store")],
            bad_file,
            capsys,
        )

    def test_training_manifest(self, bad_file, tmp_path, capsys):
        self._expect_error(
            ["train", "--manifest", str(bad_file), "--store", str(tmp_path / "store"),
             "--out", str(tmp_path / "run")],
            bad_file,
            capsys,
        )

    def test_reference_file(self, bad_file, tmp_path, capsys):
        spec = FamilySpec("random_qp", 10, 5)
        manifest = tmp_path / "m.json"
        write_manifest([spec], manifest)
        ensure_instance(tmp_path / "store", spec)
        ref_path = instance_dir(tmp_path / "store", spec) / "reference.json"
        ref_path.write_bytes(bad_file.read_bytes())
        self._expect_error(
            ["verify", "--manifest", str(manifest), "--store", str(tmp_path / "store"),
             "--steps", "10", "--drift-iters", "100", "--jobs", "1"],
            ref_path,
            capsys,
        )

    def test_manifest_specs_not_a_list(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"specs": 5}))
        rc = main(["bench", "--manifest", str(manifest), "--store", str(tmp_path / "store")])
        err = capsys.readouterr().err
        assert rc == 1 and "'specs' must be a list" in err and "Traceback" not in err


class TestTrainCommand:
    def test_zero_epochs_writes_initial_checkpoints(self, tmp_path):
        manifest = {
            "family": "random_qp",
            "variant": "scalar",
            "train_instances": [{"size": 10, "seed": s} for s in (1, 2)],
            "val_instances": [{"size": 10, "seed": 11}],
            "config": {"epochs": 0, "batch_size": 2, "seed": 0},
        }
        man_path = tmp_path / "train.json"
        man_path.write_text(json.dumps(manifest))
        out = tmp_path / "run"
        rc = main([
            "train", "--manifest", str(man_path), "--store", str(tmp_path / "store"),
            "--out", str(out), "--adaptive-rho", "off",
        ])
        assert rc == 0
        ck = json.loads((out / "ckpt_iter.json").read_text())
        assert all(w == 0.0 for w in ck["w_out"])
        assert ck["metadata"]["adaptive_rho"] is False
        assert json.loads((out / "ckpt_rho.json").read_text())["metadata"]["adaptive_rho"] is False
        # the header and the initial checkpoint's epoch-0 row, without a training loss
        rows = list(csv.DictReader((out / "train_log.csv").open()))
        assert [(r["epoch"], r["mean_train_loss"]) for r in rows] == [("0", "")]
        assert float(rows[0]["mean_val_iters"]) == ck["metadata"]["val_score"]

    def test_log_rows_equal_epochs(self, tmp_path):
        manifest = {
            "family": "random_qp",
            "variant": "scalar",
            "train_instances": [{"size": 10, "seed": s} for s in (1, 2)],
            "val_instances": [{"size": 10, "seed": 11}],
            "config": {"epochs": 2, "batch_size": 2, "seed": 0},
        }
        man_path = tmp_path / "train.json"
        man_path.write_text(json.dumps(manifest))
        out = tmp_path / "run"
        rc = main([
            "train", "--manifest", str(man_path), "--store", str(tmp_path / "store"),
            "--out", str(out), "--adaptive-rho", "off",
        ])
        assert rc == 0
        rows = list(csv.DictReader((out / "train_log.csv").open()))
        assert [r["epoch"] for r in rows] == ["0", "1", "2"]  # the initial row, then one per epoch
        assert rows[0]["mean_train_loss"] == "" and all(r["mean_train_loss"] for r in rows[1:])

    @pytest.mark.parametrize("adaptive_rho", ["on", "off"])
    def test_never_improved_warning(self, tmp_path, capsys, monkeypatch, adaptive_rho):
        # Validation gets worse after the initial checkpoint: both checkpoints
        # carry the warning, and it is printed once.
        from relaxqp import training

        means = iter([(10.0, 1.0)])
        monkeypatch.setattr(training, "_evaluate_validation",
                            lambda ckpt, val_set, cfg: next(means, (20.0, 2.0)))
        man_path = tmp_path / "train.json"
        man_path.write_text(json.dumps({
            "family": "random_qp", "train_instances": [{"size": 10, "seed": s} for s in (1, 2)],
            "val_instances": [{"size": 10, "seed": 11}],
            "config": {"epochs": 2, "batch_size": 2, "horizon": 50},
        }))
        out = tmp_path / "run"
        assert main(["train", "--manifest", str(man_path), "--store", str(tmp_path / "store"),
                     "--out", str(out), "--adaptive-rho", adaptive_rho]) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("train: warning:")]
        assert warnings == ["train: warning: validation never improved on the initial checkpoint"]
        for name in ("ckpt_iter.json", "ckpt_rho.json"):
            metadata = json.loads((out / name).read_text())["metadata"]
            assert metadata["warning"] == "validation never improved on the initial checkpoint"
            assert metadata["epoch"] == 0

    def _zero_epoch_run(self, tmp_path, config: dict, variant="scalar", family="random_qp"):
        man_path, cfg_path = tmp_path / "train.json", tmp_path / "cfg.json"
        man_path.write_text(json.dumps({
            "family": family, "variant": variant,
            "train_instances": [{"size": 10, "seed": s} for s in (1, 2)],
            "val_instances": [{"size": 10, "seed": 11}],
            "config": {"epochs": 0, "batch_size": 2},
        }))
        cfg_path.write_text(json.dumps(config))
        return main(["train", "--manifest", str(man_path), "--store", str(tmp_path / "store"),
                     "--out", str(tmp_path / "run"), "--config", str(cfg_path)])

    def test_norm_statistics_at_the_config_stage_length(self, tmp_path):
        assert self._zero_epoch_run(tmp_path, {"stage_length": 20, "adaptive_rho": False}) == 0
        ck = load_checkpoint(tmp_path / "run" / "ckpt_iter.json")
        probs = [ensure_instance(tmp_path / "store", FamilySpec("random_qp", 10, s, "train"))[0]
                 for s in (1, 2)]
        for stage_length, same in ((20, True), (10, False)):
            cfg = SolverConfig(stage_length=stage_length, adaptive_rho=False)
            expected = collect_norm_stats(probs, "scalar", cfg)
            assert np.array_equal(ck.norm_stats.mean, expected.mean) is same

    def test_checkpoint_box_from_the_config(self, tmp_path, random_problem_file, capsys):
        # A checkpoint holds no relaxation box: it trains in any box the
        # config takes, centred or not, and runs in the box of the solve.
        assert self._zero_epoch_run(tmp_path, {"alpha_min": 1.0, "alpha_max": 1.9}) == 0
        ck_path = tmp_path / "run" / "ckpt_iter.json"
        assert not {"alpha_min", "alpha_max"} & set(json.loads(ck_path.read_text()))
        capsys.readouterr()
        argv = ["solve", "--problem", str(random_problem_file), "--checkpoint", str(ck_path),
                "--config", str(tmp_path / "cfg.json")]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["policy_queries"] > 0

    @pytest.mark.parametrize("family,config,why", [
        # Both control_n10 training solves stop before iteration 10.
        ("control", {}, r"the baseline solve of each of \['control_n10_s1', 'control_n10_s2'\] "
                        r"stops before it"),
        ("random_qp", {"freeze_iter": 10}, r"freeze_iter \(10\) is not after it"),
    ], ids=["stopped", "frozen"])
    def test_no_policy_query_for_norm_statistics(self, tmp_path, capsys, family, config, why):
        assert self._zero_epoch_run(tmp_path, config, variant="vector", family=family) == 1
        err = capsys.readouterr().err.splitlines()[-1]
        assert re.fullmatch(
            rf"relaxqp: error: training manifest {re.escape(str(tmp_path / 'train.json'))}: "
            rf"field 'train_instances': no policy query to fit normalization statistics: the "
            rf"first is at iteration 10 \(stage_length\), and {why}", err), err
        assert not (tmp_path / "run").exists()

    def test_unknown_variant_writes_nothing(self, tmp_path, capsys):
        assert self._zero_epoch_run(tmp_path, {}, variant="matrix") == 1
        assert capsys.readouterr().err == "relaxqp: error: unknown policy variant 'matrix'\n"
        assert sorted(f.name for f in tmp_path.iterdir()) == ["cfg.json", "train.json"]


class TestVerifyCommand:
    def test_clean_run_exit_zero(self, tmp_path):
        manifest = tmp_path / "m.json"
        write_manifest([FamilySpec("random_qp", 10, 5)], manifest)
        out = tmp_path / "verify.json"
        rc = main([
            "verify", "--manifest", str(manifest), "--store", str(tmp_path / "store"),
            "--steps", "100", "--drift-iters", "4000", "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc[0]["max_transition_violation"] <= 1e-9
        assert doc[0]["max_perturbation_violation"] <= 1e-9
        assert doc[0]["min_descent_slack"] >= -1e-8
        assert doc[0]["drift_converged"] is True
        assert 0 < doc[0]["drift_iterations"] < 4000
        assert doc[0]["steps_recorded"] == 100
        for key in ("worst_transition_step", "worst_perturbation_step", "min_descent_slack_step"):
            assert isinstance(doc[0][key], int) and 0 <= doc[0][key] < 100
        # the step fields locate the reported extremes
        prob, ref = ensure_instance(tmp_path / "store", FamilySpec("random_qp", 10, 5), with_reference=True)
        steps = record_trajectory(prob, SolverConfig(adaptive_rho=True), 100)
        chk = reconstruct_drs(steps, prob)
        assert (chk.worst_transition_step, chk.worst_perturbation_step) == (
            doc[0]["worst_transition_step"], doc[0]["worst_perturbation_step"])
        z_star = np.clip(prob.A @ ref.x_star, prob.l, prob.u)
        slacks = check_descent(steps, ref.x_star, z_star, ref.lambda_star, SolverConfig().alpha_max)
        assert slacks[doc[0]["min_descent_slack_step"]] == doc[0]["min_descent_slack"]
        drift = run_drift_experiment(prob, DriftSchedule.inverse_square(4000), 4000, SolverConfig(),
                                     ref.objective)
        assert drift.iterations == doc[0]["drift_iterations"]

    def test_fault_injection_nonzero_exit(self, tmp_path, inject_relaxation_fault):
        spec = FamilySpec("random_qp", 10, 5)
        manifest = tmp_path / "m.json"
        write_manifest([spec], manifest)
        ensure_instance(tmp_path / "store", spec, with_reference=True)  # unfaulted reference
        inject_relaxation_fault()
        out = tmp_path / "verify.json"
        rc = main([
            "verify", "--manifest", str(manifest), "--store", str(tmp_path / "store"),
            "--steps", "50", "--drift-iters", "500", "--jobs", "1", "--out", str(out),
        ])
        assert rc != 0
        doc = json.loads(out.read_text())
        assert "violation" in doc[0]
