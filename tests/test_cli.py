import csv
import json

import numpy as np
import pytest

from relaxqp.bench import FamilySpec, generate, save_manifest
from relaxqp.cli import main
from relaxqp.policy import init_checkpoint, save_checkpoint
from relaxqp.problem import QpProblem, save_problem


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
        assert report["iterations"] >= 1
        assert (out / "residuals.csv").exists()

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

    def test_policy_checkpoint(self, random_problem_file, tmp_path):
        ck = init_checkpoint("scalar", seed=0)
        ck_path = tmp_path / "ck.json"
        save_checkpoint(ck, ck_path)
        rc = main([
            "solve", "--problem", str(random_problem_file),
            "--policy", "scalar", "--checkpoint", str(ck_path),
        ])
        assert rc == 0

    def test_policy_without_checkpoint_errors(self, random_problem_file):
        assert main(["solve", "--problem", str(random_problem_file), "--policy", "scalar"]) == 1


class TestBenchCommand:
    def test_rows_and_summary(self, tmp_path):
        manifest = tmp_path / "m.json"
        save_manifest([FamilySpec("random_qp", 10, s) for s in (1, 2)], manifest)
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
        assert len(summaries) == 2

    def test_policy_column_present_with_checkpoint(self, tmp_path):
        manifest = tmp_path / "m.json"
        save_manifest([FamilySpec("random_qp", 10, 1)], manifest)
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
        save_manifest([FamilySpec("random_qp", 10, 4)], manifest)
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
        save_manifest([FamilySpec("random_qp", 10, s) for s in (1, 2, 3)], manifest)
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


class TestTrainCommand:
    def test_zero_epochs_writes_initial_checkpoints(self, tmp_path):
        manifest = {
            "family": "random_qp",
            "variant": "scalar",
            "train_instances": [{"size": 10, "seed": s} for s in (1, 2)],
            "val_instances": [{"size": 10, "seed": 11}],
            "config": {"epochs": 0, "batch_size": 2},
            "seed": 0,
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
        assert (out / "ckpt_rho.json").exists()
        log = (out / "train_log.csv").read_text().strip().splitlines()
        assert len(log) == 1  # header only with zero epochs

    def test_log_rows_equal_epochs(self, tmp_path):
        manifest = {
            "family": "random_qp",
            "variant": "scalar",
            "train_instances": [{"size": 10, "seed": s} for s in (1, 2)],
            "val_instances": [{"size": 10, "seed": 11}],
            "config": {"epochs": 2, "batch_size": 2},
            "seed": 0,
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
        assert len(rows) == 2


class TestVerifyCommand:
    def test_clean_run_exit_zero(self, tmp_path):
        manifest = tmp_path / "m.json"
        save_manifest([FamilySpec("random_qp", 10, 5)], manifest)
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

    def test_fault_injection_nonzero_exit(self, tmp_path):
        manifest = tmp_path / "m.json"
        save_manifest([FamilySpec("random_qp", 10, 5)], manifest)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fault_hook": "flip_relaxation_sign"}))
        out = tmp_path / "verify.json"
        rc = main([
            "verify", "--manifest", str(manifest), "--store", str(tmp_path / "store"),
            "--config", str(cfg), "--steps", "50", "--drift-iters", "500",
            "--out", str(out),
        ])
        assert rc != 0
        doc = json.loads(out.read_text())
        assert "violation" in doc[0]
