import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import archive_file
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fnode
from fnode import inference
from fnode.cli import RunConfig, ValidationError, band_to_csv, main
from fnode.serialize import load_archive
from fnode.syndata import PanelDataset, Trajectory, load_dataset, save_dataset


def run(args):
    return main([str(a) for a in args])


def run_module(*args):
    """``python -m fnode`` in a child process that imports the ``fnode`` these tests import."""
    src = str(Path(fnode.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "fnode", *map(str, args)], capture_output=True, text=True, env=env)


class TestRunConfig:
    def test_defaults_cover_every_key(self):
        cfg = RunConfig()
        assert cfg["epochs"] == 200 and cfg["learning_rate"] == 1e-3
        assert cfg["gmm_components"] == tuple(range(1, 21))

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("nonsense = 3\n")
        with pytest.raises(ValidationError, match="unknown key"):
            RunConfig.from_file(p)

    def test_bad_value_rejected(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("epochs = banana\n")
        with pytest.raises(ValidationError, match="epochs"):
            RunConfig.from_file(p)

    def test_range_syntax(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("gmm_components = 10:200:10\n")
        cfg = RunConfig.from_file(p)
        assert cfg["gmm_components"] == tuple(range(10, 201, 10))

    def test_comments_and_blanks_ignored(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("# comment\n\nseed = 9\n")
        assert RunConfig.from_file(p)["seed"] == 9


class TestGenerateData:
    def test_same_seed_gives_identical_files(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        args = ["generate-data", "--set", "a", "--seed", "7", "--n-per-class", "3"]
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_set_b_metadata_carries_frequencies(self, tmp_path):
        out = tmp_path / "b.jsonl"
        assert run(["generate-data", "--set", "b", "--out", out, "--n-per-class", "2"]) == 0
        header = json.loads(out.read_text().splitlines()[0])
        assert "frequencies" in header["metadata"]

    def test_zero_count_is_validation_error(self, tmp_path):
        rc = run(["generate-data", "--set", "a", "--out", tmp_path / "x", "--n-per-class", "0"])
        assert rc == 2


class TestTrain:
    def test_archive_and_log_written(self, cli_workspace):
        model = cli_workspace["model"]
        assert model.exists()
        log = model.parent / (model.name + ".log.csv")
        lines = log.read_text().strip().split("\n")
        assert lines[0] == "epoch,elbo,recon,kl_z0,kl_gamma,kl_weight"
        assert len(lines) == 7  # header + 6 epochs
        first, last = (float(lines[i].split(",")[1]) for i in (1, -1))
        assert last > first

    def test_deterministic_archive(self, cli_workspace, tmp_path):
        out = tmp_path / "again.json"
        rc = run(
            [
                "train", "--data", cli_workspace["data"],
                "--config", cli_workspace["config"], "--out", out,
            ]
        )
        assert rc == 0
        assert out.read_bytes() == cli_workspace["model"].read_bytes()

    def test_epochs_zero_archives_initial_weights_without_gmm(self, cli_workspace, tmp_path):
        cfg = tmp_path / "zero.txt"
        cfg.write_text(cli_workspace["config"].read_text().replace("epochs = 6", "epochs = 0"))
        out = tmp_path / "m0.json"
        assert run(["train", "--data", cli_workspace["data"], "--config", cfg, "--out", out]) == 0
        doc = archive_file.read(out)
        assert doc["gmm"] is None
        assert doc["history"] is None

    def test_gmm_only_fits_sampler_at_zero_epochs(self, cli_workspace, tmp_path):
        cfg = tmp_path / "zero.txt"
        cfg.write_text(cli_workspace["config"].read_text().replace("epochs = 6", "epochs = 0"))
        out = tmp_path / "m0g.json"
        rc = run(
            ["train", "--data", cli_workspace["data"], "--config", cfg, "--out", out, "--gmm-only"]
        )
        assert rc == 0
        assert archive_file.read(out)["gmm"] is not None

    def test_gmm_table_bic_cells_are_numbers(self, cli_workspace, tmp_path):
        cfg = tmp_path / "zero.txt"
        cfg.write_text(cli_workspace["config"].read_text().replace("epochs = 6", "epochs = 0"))
        out = tmp_path / "m0g.json"
        rc = run(
            ["train", "--data", cli_workspace["data"], "--config", cfg, "--out", out, "--gmm-only"]
        )
        assert rc == 0
        lines = (tmp_path / "m0g.json.gmm.csv").read_text().strip().split("\n")
        col = lines[0].split(",").index("bic")
        assert len(lines) > 1
        for line in lines[1:]:
            float(line.split(",")[col])

    def test_selection_sidecar_reports_em_convergence(self, cli_workspace, tmp_path):
        model = cli_workspace["model"]
        table = (model.parent / (model.name + ".gmm.csv")).read_text().strip().split("\n")
        assert table[0] == "K,cov_type,loglik,params,bic,selected"
        rows = [json.loads(line) for line in (model.parent / (model.name + ".gmm.jsonl")).read_text().splitlines()]
        assert [(str(r["K"]), r["cov_type"]) for r in rows] == [tuple(line.split(",")[:2]) for line in table[1:]]
        for r in rows:
            assert set(r) == {"K", "cov_type", "n_iter", "converged"}
            assert 1 <= r["n_iter"] <= 200 and isinstance(r["converged"], bool)
        # one EM step cannot show a gain below tol, so no fit counts as converged
        cfg = tmp_path / "one_iter.txt"
        cfg.write_text(cli_workspace["config"].read_text() + "gmm_max_iter = 1\n")
        out = tmp_path / "one.json"
        assert run(["train", "--data", cli_workspace["data"], "--config", cfg, "--out", out]) == 0
        rows = [json.loads(line) for line in (tmp_path / "one.json.gmm.jsonl").read_text().splitlines()]
        assert len(rows) == 4 and all(r["n_iter"] == 1 and r["converged"] is False for r in rows)

    def test_gmm_max_iter_zero_is_validation_error(self, cli_workspace, tmp_path, capsys):
        cfg = tmp_path / "zero_iter.txt"
        text = cli_workspace["config"].read_text().replace("epochs = 6", "epochs = 0")
        cfg.write_text(text + "gmm_max_iter = 0\n")
        capsys.readouterr()
        rc = run(
            ["train", "--data", cli_workspace["data"], "--config", cfg, "--out", tmp_path / "m.json", "--gmm-only"]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and "max_iter" in err

    def test_seed_flag_overrides_config(self, cli_workspace, tmp_path):
        out = tmp_path / "seeded.json"
        rc = run(
            [
                "train", "--data", cli_workspace["data"], "--config", cli_workspace["config"],
                "--out", out, "--seed", "99",
            ]
        )
        assert rc == 0
        assert archive_file.read(out)["seeds"]["train"] == 99
        assert out.read_bytes() != cli_workspace["model"].read_bytes()


class TestSample:
    @pytest.mark.parametrize("mode", ["gmm", "prior"])
    def test_modes_write_deterministic_csv(self, cli_workspace, tmp_path, mode):
        outs = []
        for name in ("s1.csv", "s2.csv"):
            out = tmp_path / name
            rc = run(
                [
                    "sample", "--model", cli_workspace["model"], "--data", cli_workspace["data"],
                    "--index", 0, "--mode", mode, "--n", 4, "--seed", 3, "--out", out,
                ]
            )
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        header = outs[0].decode().split("\n")[0]
        assert header == "sample_id,time,value_1"

    def test_transfer_mode(self, cli_workspace, tmp_path):
        out = tmp_path / "t.csv"
        rc = run(
            [
                "sample", "--model", cli_workspace["model"], "--data", cli_workspace["data"],
                "--index", 0, "--mode", "transfer", "--exemplar", 5, "--n", 1, "--out", out,
            ]
        )
        assert rc == 0
        rows = out.read_text().strip().split("\n")[1:]
        assert all(r.split(",")[0] == "0" for r in rows)

    def test_neighborhood_zero_acceptance_is_runtime_error(self, cli_workspace, tmp_path):
        rc = run(
            [
                "sample", "--model", cli_workspace["model"], "--data", cli_workspace["data"],
                "--index", 0, "--mode", "neighborhood", "--exemplar", 1,
                "--delta", "1e-12", "--n", 2, "--max-attempts", 200,
                "--out", tmp_path / "n.csv",
            ]
        )
        assert rc == 1

    def test_n_zero_is_validation_error(self, cli_workspace, tmp_path):
        rc = run(
            [
                "sample", "--model", cli_workspace["model"], "--data", cli_workspace["data"],
                "--index", 0, "--n", 0, "--out", tmp_path / "x.csv",
            ]
        )
        assert rc == 2

    def test_grid_points_flag(self, cli_workspace, tmp_path):
        out = tmp_path / "g.csv"
        rc = run(
            [
                "sample", "--model", cli_workspace["model"], "--data", cli_workspace["data"],
                "--index", 0, "--mode", "prior", "--n", 1, "--grid-points", 17, "--out", out,
            ]
        )
        assert rc == 0
        assert len(out.read_text().strip().split("\n")) == 1 + 17


class TestOOD:
    def test_report_and_flag_rate(self, cli_workspace, tmp_path):
        out = tmp_path / "ood.csv"
        rc = run(
            [
                "ood", "--model", cli_workspace["model"],
                "--train-data", cli_workspace["data"], "--test-data", cli_workspace["data"],
                "--quantile", "0.95", "--out", out,
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "index,label,nll,threshold,flagged"
        flags = [int(ln.split(",")[4]) for ln in lines[1:]]
        assert abs(np.mean(flags) - 0.05) <= 0.1

    def test_sampler_width_mismatch_is_one_line(self, cli_workspace, tmp_path, capsys):
        # the fixture's model has p = 3 and d_gamma = 4, so a sampler must be 4 or 7 wide
        doc = archive_file.read(cli_workspace["model"])
        K = doc["gmm"]["weights"].shape[0]
        assert doc["gmm"]["cov_type"] == "diag"
        for key in ("means", "covariances"):
            doc["gmm"][key] = np.full((K, 3), 0.5)
        bad = tmp_path / "width3.fnode"
        archive_file.write(bad, doc)
        capsys.readouterr()
        rc = run(
            [
                "ood", "--model", bad, "--train-data", cli_workspace["data"],
                "--test-data", cli_workspace["data"], "--out", tmp_path / "ood.csv",
            ]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "width 3" in err and "needs 4 (code) or 7 (z0 and code)" in err
        assert "broadcast" not in err

    def test_missing_labels_omit_class_block(self, cli_workspace, tmp_path, capsys):
        data = load_dataset(cli_workspace["data"])
        unlabeled = PanelDataset(
            [Trajectory(t.times, t.values, None) for t in data.trajectories],
            obs_dim=data.obs_dim,
            metadata=data.metadata,
        )
        path = tmp_path / "unlabeled.jsonl"
        save_dataset(unlabeled, path)
        out = tmp_path / "ood.csv"
        rc = run(
            [
                "ood", "--model", cli_workspace["model"],
                "--train-data", cli_workspace["data"], "--test-data", path, "--out", out,
            ]
        )
        assert rc == 0
        captured = capsys.readouterr().out
        assert "class" not in captured
        assert len(out.read_text().strip().split("\n")) == 1 + len(data.trajectories)


class TestEval:
    def test_full_observation_leaves_extrapolation_empty(self, cli_workspace, tmp_path):
        out = tmp_path / "eval.csv"
        rc = run(
            [
                "eval", "--model", cli_workspace["model"], "--data", cli_workspace["data"],
                "--observe-fraction", "1.0", "--out", out,
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("index,label,n_observed,interp_mse,extrap_10")
        for ln in lines[1:-1]:
            assert ln.endswith(",,,,")

    def test_posterior_mean_eval_is_deterministic(self, cli_workspace, tmp_path):
        outs = []
        for name in ("e1.csv", "e2.csv"):
            out = tmp_path / name
            rc = run(
                [
                    "eval", "--model", cli_workspace["model"], "--data", cli_workspace["data"],
                    "--observe-fraction", "0.5", "--samples", 1, "--out", out,
                ]
            )
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_bad_fraction_rejected(self, cli_workspace, tmp_path):
        rc = run(
            [
                "eval", "--model", cli_workspace["model"], "--data", cli_workspace["data"],
                "--observe-fraction", "0", "--out", tmp_path / "x.csv",
            ]
        )
        assert rc == 2

    def test_prefix_longer_than_model_is_validation_error(self, cli_workspace, tmp_path, capsys):
        # the workspace model encodes 5 points; the second trajectory observes 8
        rng = np.random.default_rng(0)
        trajs = [Trajectory(np.linspace(0.0, 1.0, n), rng.standard_normal((n, 1))) for n in (5, 8)]
        data = tmp_path / "long.jsonl"
        save_dataset(PanelDataset(trajs, obs_dim=1), data)
        rc = run(
            [
                "eval", "--model", cli_workspace["model"], "--data", data,
                "--observe-fraction", "1.0", "--out", tmp_path / "x.csv",
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == "error: 8 observed points exceed the model's 5\n"

    @pytest.mark.parametrize("samples", [1, 3])
    def test_each_row_is_its_trajectory_evaluated_alone(self, cli_workspace, tmp_path, samples):
        # oracle: row j of a run at seed s is the one row of a run on {trajectory j} at seed s ^ j
        rng = np.random.default_rng(4)
        trajs = []
        for j, n in enumerate((10, 13, 13, 10, 13)):
            t0, span = rng.uniform(0.0, 0.5), rng.uniform(1.0, 2.0)
            times = np.linspace(t0, t0 + span, n)
            trajs.append(Trajectory(times, np.sin(3.0 * times + j)[:, None] * (j + 1), label=j % 2))
        seed = 6

        def eval_rows(data_trajs, run_seed, name):
            data, out = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.csv"
            save_dataset(PanelDataset(data_trajs, obs_dim=1), data)
            argv = ["eval", "--model", cli_workspace["model"], "--data", data, "--observe-fraction", "0.3",
                    "--samples", samples, "--seed", run_seed, "--out", out]
            assert run(argv) == 0
            return [ln.split(",") for ln in out.read_text().splitlines()[1:-1]]

        batched = eval_rows(trajs, seed, "all")
        assert len(batched) == len(trajs)
        for j, row in enumerate(batched):
            (alone,) = eval_rows([trajs[j]], seed ^ j, f"alone_{j}")
            assert row[0] == str(j) and alone[0] == "0"
            assert row[1:3] == alone[1:3]
            assert [c == "" for c in row[3:]] == [c == "" for c in alone[3:]]
            got = np.array([float(c) for c in row[3:] if c])
            want = np.array([float(c) for c in alone[3:] if c])
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


def _overflowing_decoder_argv(ws, tmp_path, command):
    """A command on a valid, finite archive whose decoder output overflows to inf; its argv and output."""
    doc = archive_file.read(ws["model"])
    params = doc["model"]["params"]
    params["dec.w0"][:] = 0.0
    params["dec.b0"][:] = 10.0
    params["dec.w1"][:] = 1e308
    path = tmp_path / "overflow.fnode"
    archive_file.write(path, doc)
    out = tmp_path / "out.csv"
    argv = [command, "--model", path, "--data", ws["data"], "--out", out]
    return argv + ["--mode", "prior"] if command == "sample" else argv, out


class TestRuntimeErrors:
    @pytest.mark.parametrize("command", ["sample", "eval"])
    def test_overflowing_decoder_is_one_line_runtime_error(self, cli_workspace, tmp_path, capsys, command):
        argv, out = _overflowing_decoder_argv(cli_workspace, tmp_path, command)
        capsys.readouterr()
        rc = run(argv)
        err = capsys.readouterr().err
        assert rc == 1, err
        assert err.startswith("error: ") and err.count("\n") == 1 and "non-finite" in err, err
        assert not out.exists()

    def test_memory_error_is_one_line_runtime_error(self, cli_workspace, tmp_path, capsys, monkeypatch):
        # a grid far wider than its step asks the solver for a step table that cannot be allocated
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 271. TiB for an array")

        monkeypatch.setattr(inference, "rollout", out_of_memory)
        out = tmp_path / "s.csv"
        capsys.readouterr()
        rc = run(["sample", "--model", cli_workspace["model"], "--data", cli_workspace["data"],
                  "--out", out, "--mode", "prior"])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert err == "error: Unable to allocate 271. TiB for an array\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sample", "eval"])
    def test_overflow_prints_one_stderr_line_from_a_process(self, cli_workspace, tmp_path, command):
        # pytest captures numpy's warnings in process, so only a child process shows all of stderr
        argv, out = _overflowing_decoder_argv(cli_workspace, tmp_path, command)
        proc = run_module(*argv)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert "non-finite" in proc.stderr
        assert not out.exists()

    def test_overflowing_code_posterior_is_one_line_ood_error(self, cli_workspace, tmp_path, capsys):
        # a code posterior mean of 1e308 squares to inf in the mixture density: every score was nan
        doc = archive_file.read(cli_workspace["model"])
        doc["model"]["params"]["enc_gamma.b1"][0] = 1e308
        path = tmp_path / "overflow.fnode"
        archive_file.write(path, doc)
        out = tmp_path / "ood.csv"
        capsys.readouterr()
        rc = run(_ood({**cli_workspace, "model": path}, out, 2))
        err = capsys.readouterr().err
        assert rc == 1, err
        assert err.startswith("error: ") and err.count("\n") == 1 and "non-finite OOD score" in err, err
        assert not out.exists()

    def test_overflowing_squared_error_is_one_line_eval_error(self, cli_workspace, tmp_path, capsys):
        # the decoded values stay finite, but their squared error was inf in every MSE cell at exit 0
        doc = archive_file.read(cli_workspace["model"])
        doc["model"]["params"]["dec.b1"][0] = 1e308
        path = tmp_path / "overflow.fnode"
        archive_file.write(path, doc)
        out = tmp_path / "eval.csv"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run(["eval", "--model", path, "--data", cli_workspace["data"], "--out", out])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert err == "error: eval: the squared error of trajectory 0 overflows\n", err
        assert not caught, [str(w.message) for w in caught]
        assert not out.exists()

    def test_overflowing_hypernetwork_pre_activation_is_one_line_error(self, cli_workspace, tmp_path, capsys):
        # tanh would map the overflow to a finite weight; the dense node's check stops it first
        doc = archive_file.read(cli_workspace["model"])
        doc["model"]["params"]["hyper.w0"][0, 1] = 1e308
        doc["model"]["params"]["hyper.w0"][1, 1] = -1e308
        path = tmp_path / "overflow.fnode"
        archive_file.write(path, doc)
        out = tmp_path / "sample.csv"
        capsys.readouterr()
        rc = run(_sample({**cli_workspace, "model": path}, out, "--n", 3))
        err = capsys.readouterr().err
        assert rc == 1, err
        assert err.startswith("error: ") and err.count("\n") == 1 and "'dense'" in err, err
        assert not out.exists()

    def test_deeply_nested_dataset_is_validation_error(self, cli_workspace, tmp_path, capsys):
        lines = cli_workspace["data"].read_text().splitlines()
        deep = tmp_path / "deep.jsonl"
        deep.write_text("\n".join([lines[0], "[" * 100_000 + "]" * 100_000, *lines[1:]]) + "\n")
        out = tmp_path / "eval.csv"
        capsys.readouterr()
        rc = run(["eval", "--model", cli_workspace["model"], "--data", deep, "--out", out])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith("error: ") and err.count("\n") == 1 and "deep.jsonl:2:" in err, err
        assert not out.exists()


class TestPlot:
    def make_traj_csv(self, path, rows):
        path.write_text("sample_id,time,value_1\n" + "\n".join(rows) + "\n")

    def test_constant_trajectory_gives_horizontal_polyline(self, tmp_path):
        csv = tmp_path / "t.csv"
        self.make_traj_csv(csv, ["0,0.0,2.0", "0,0.5,2.0", "0,1.0,2.0"])
        out = tmp_path / "p.svg"
        assert run(["plot", "--traj", csv, "--out", out]) == 0
        text = out.read_text()
        polyline = [ln for ln in text.split("\n") if "polyline" in ln][-1]
        ys = {pt.split(",")[1] for pt in polyline.split('points="')[1].split('"')[0].split()}
        assert len(ys) == 1

    def test_identical_inputs_byte_identical_svg(self, cli_workspace, tmp_path):
        csv = tmp_path / "t.csv"
        self.make_traj_csv(csv, ["0,0.0,1.0", "0,1.0,3.0", "1,0.0,2.0", "1,1.0,0.5"])
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert run(["plot", "--traj", csv, "--out", a]) == 0
        assert run(["plot", "--traj", csv, "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_times_finer_than_their_resolution_plot(self, tmp_path):
        # ticks step by 0.5, below the spacing of float64 values near 1e16
        csv = tmp_path / "t.csv"
        self.make_traj_csv(csv, ["0,1e16,1.0", "0,10000000000000002,2.0"])
        out = tmp_path / "p.svg"
        src = str(Path(fnode.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "fnode", "plot", "--traj", str(csv), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "polyline" in out.read_text()

    @pytest.mark.parametrize(
        "rows",
        [["0,1e16,1.0"], ["0,1e16,1.0", "1,1e16,2.0"], ["0,0.0,1e16", "0,1.0,1e16"]],
        ids=["one_row", "two_samples_one_time", "constant_values"],
    )
    def test_one_large_value_plots(self, tmp_path, rows):
        # a range of one value is widened by more than the values' resolution
        csv = tmp_path / "t.csv"
        self.make_traj_csv(csv, rows)
        out = tmp_path / "p.svg"
        assert run(["plot", "--traj", csv, "--out", out]) == 0
        assert "polyline" in out.read_text()

    def test_band_with_lower_above_upper_rejected(self, tmp_path):
        csv = tmp_path / "t.csv"
        self.make_traj_csv(csv, ["0,0.0,1.0", "0,1.0,3.0"])
        band = tmp_path / "band.csv"
        band.write_text("time,lower_1,mean_1,upper_1\n0.0,2.0,1.5,1.0\n")
        rc = run(["plot", "--traj", csv, "--band", band, "--out", tmp_path / "p.svg"])
        assert rc == 2

    def test_band_rendering(self, tmp_path):
        csv = tmp_path / "t.csv"
        self.make_traj_csv(csv, ["0,0.0,1.0", "0,1.0,3.0"])
        band = tmp_path / "band.csv"
        band.write_text(
            "time,lower_1,mean_1,upper_1\n0.0,0.5,1.0,1.5\n1.0,2.5,3.0,3.5\n"
        )
        out = tmp_path / "p.svg"
        assert run(["plot", "--traj", csv, "--band", band, "--out", out]) == 0
        assert "polygon" in out.read_text()


    def test_title_is_escaped(self, tmp_path):
        csv = tmp_path / "t.csv"
        self.make_traj_csv(csv, ["0,0.0,1.0", "0,1.0,3.0"])
        out = tmp_path / "p.svg"
        assert run(["plot", "--traj", csv, "--out", out, "--title", "a < b & c"]) == 0
        root = ET.fromstring(out.read_text())
        assert "a < b & c" in [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]

    def test_band_csv_of_a_trained_model_plots(self, cli_workspace, tmp_path):
        m, S, _ = load_archive(cli_workspace["model"])
        traj = load_dataset(cli_workspace["data"]).trajectories[0]
        grid = np.linspace(traj.times[0], traj.times[-1], 7)
        band = inference.credible_band(m, S, traj, grid, n_draws=20, level=0.9, seed=0)
        lines = band_to_csv(band).splitlines()
        assert lines[0] == "time,lower_1,mean_1,upper_1"
        assert len(lines) == 1 + grid.size
        rows = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        want = np.column_stack([grid, band.lower[:, 0], band.mean[:, 0], band.upper[:, 0]])
        assert rows.tobytes() == want.tobytes()

        band_csv, csv, out = tmp_path / "band.csv", tmp_path / "t.csv", tmp_path / "p.svg"
        band_csv.write_text("\n".join(lines) + "\n")
        points = zip(traj.times.tolist(), traj.values[:, 0].tolist())
        self.make_traj_csv(csv, [f"0,{t!r},{v!r}" for t, v in points])
        assert run(["plot", "--traj", csv, "--band", band_csv, "--out", out]) == 0
        root = ET.fromstring(out.read_text())
        assert len(list(root.iter("{http://www.w3.org/2000/svg}polygon"))) == 1


class TestArchiveRoundTripThroughCLI:
    def test_saved_model_reproduces_sampling_bit_exactly(self, cli_workspace, tmp_path):
        import shutil

        copy = tmp_path / "copy.json"
        shutil.copy(cli_workspace["model"], copy)
        outs = []
        for model, name in ((cli_workspace["model"], "o1.csv"), (copy, "o2.csv")):
            out = tmp_path / name
            rc = run(
                [
                    "sample", "--model", model, "--data", cli_workspace["data"],
                    "--index", 2, "--mode", "gmm", "--n", 3, "--seed", 1, "--out", out,
                ]
            )
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def _sample(ws, out, *extra, model=None):
    return ["sample", "--model", model or ws["model"], "--data", ws["data"], "--index", 0, *extra, "--out", out]


def _neighborhood(ws, out, max_attempts):
    return _sample(ws, out, "--mode", "neighborhood", "--exemplar", 1, "--delta", 1.0, "--max-attempts", max_attempts)


def _ood(ws, out, n_gamma):
    data = ws["data"]
    return ["ood", "--model", ws["model"], "--train-data", data, "--test-data", data, "--n-gamma", n_gamma,
            "--out", out]


def _edited_sample(edit):
    """A BAD_VALUES case: ``sample`` from the workspace archive after ``edit(doc)``."""

    def argv(ws, tmp, out):
        doc = archive_file.read(ws["model"])
        edit(doc)
        path = tmp / "edited.fnode"
        archive_file.write(path, doc)
        return _sample(ws, out, model=path)

    return argv


def _set_obs_scale(value):
    def edit(doc):
        doc["model"]["obs_scale"] = value

    return edit


def _set_sampler_entry(key, index, value):
    def edit(doc):
        doc["gmm"][key][index] = value

    return edit


def _bad_config(key, value):
    """A BAD_VALUES case: ``train`` with the workspace config plus ``key = value``."""

    def argv(ws, tmp, out):
        cfg = tmp / "configured.txt"
        cfg.write_text(ws["config"].read_text() + f"{key} = {value}\n")
        return ["train", "--data", ws["data"], "--config", cfg, "--out", out]

    return key, argv


def _edited_file(draw):
    """A BAD_VALUES case: the command of a ``FILE_CASES`` draw, one field or row of a file edited."""
    return lambda ws, tmp, out: _file_argv(draw, ws, tmp, out)


def _archive_without_magic(ws, tmp, out):
    """A BAD_VALUES case: ``sample`` from the workspace archive's header alone, as plain JSON."""
    header, _ = archive_file.read_raw(ws["model"])
    return _file_argv(("bytes", "archive", json.dumps(header).encode()), ws, tmp, out)


# Flag, archive, config and file values that must be refused: case -> (word
# the message names, builder of the argv from the workspace, tmp_path and
# output).  An edited file's error names the file, and a dataset's its line.
BAD_VALUES = {
    "sample_max_attempts_0": ("max_attempts", lambda ws, tmp, out: _neighborhood(ws, out, 0)),
    "sample_max_attempts_negative": ("max_attempts", lambda ws, tmp, out: _neighborhood(ws, out, -1)),
    "sample_grid_points_0": ("--grid-points", lambda ws, tmp, out: _sample(ws, out, "--grid-points", 0)),
    "sample_grid_points_negative": ("--grid-points", lambda ws, tmp, out: _sample(ws, out, "--grid-points", -2)),
    "ood_n_gamma_0": ("n_gamma", lambda ws, tmp, out: _ood(ws, out, 0)),
    "ood_n_gamma_negative": ("n_gamma", lambda ws, tmp, out: _ood(ws, out, -1)),
    "sample_delta_nan": ("--delta", lambda ws, tmp, out: _sample(
        ws, out, "--mode", "neighborhood", "--exemplar", 1, "--delta", "nan")),
    "archive_obs_scale_0": ("obs_scale", _edited_sample(_set_obs_scale("0"))),
    "archive_obs_scale_nan": ("obs_scale", _edited_sample(_set_obs_scale("nan"))),
    "archive_obs_scale_inf": ("obs_scale", _edited_sample(_set_obs_scale("inf"))),
    "archive_gmm_means_nan": ("means", _edited_sample(_set_sampler_entry("means", (0, 0), np.nan))),
    "archive_gmm_covariances_inf": ("covariances", _edited_sample(_set_sampler_entry("covariances", (0, 0), np.inf))),
    "config_obs_scale_0": _bad_config("obs_scale", "0"),
    "config_obs_scale_negative": _bad_config("obs_scale", "-2"),
    "config_obs_scale_nan": _bad_config("obs_scale", "nan"),
    "config_obs_scale_inf": _bad_config("obs_scale", "inf"),
    "config_step_size_inf": _bad_config("step_size", "inf"),
    "config_step_size_nan": _bad_config("step_size", "nan"),
    "config_learning_rate_nan": _bad_config("learning_rate", "nan"),
    "config_learning_rate_inf": _bad_config("learning_rate", "inf"),
    "config_lambda_init_nan": _bad_config("lambda_init", "nan"),
    "config_lambda_init_inf": _bad_config("lambda_init", "inf"),
    "config_sigma_x_inf": _bad_config("sigma_x", "inf"),
    # the likelihood's 1 / (2 sigma_x^2): the square overflows, or rounds to zero
    "config_sigma_x_1e308": _bad_config("sigma_x", "1e308"),
    "config_sigma_x_1e-200": _bad_config("sigma_x", "1e-200"),
    # select_model refuses the count before any fit; a zero among good counts is not left out
    "config_gmm_components_0": ("K must be >= 1", _bad_config("gmm_components", "0")[1]),
    "config_gmm_components_0_1": ("K must be >= 1", _bad_config("gmm_components", "0,1")[1]),
    # selection settings are refused before training, so no log is left behind either;
    # the workspace has 12 trajectories, so n_gamma = 1 gives a 12-row code bank
    "config_gmm_components_empty": _bad_config("gmm_components", "3:1"),
    "config_gmm_components_over_bank": _bad_config("gmm_components", "20\nn_gamma = 1"),
    "config_gmm_cov_types_empty": _bad_config("gmm_cov_types", ""),
    "config_gmm_max_iter_0": _bad_config("gmm_max_iter", "0"),
    "config_n_gamma_0": _bad_config("n_gamma", "0"),
    "dataset_values_null": ("fuzzed.jsonl:2:", _edited_file(("dataset", 1, "values", None))),
    "dataset_values_number": ("fuzzed.jsonl:2:", _edited_file(("dataset", 1, "values", 0.25))),
    "dataset_values_true": ("fuzzed.jsonl:3:", _edited_file(("dataset", 2, "values", True))),
    "dataset_label_inf": ("fuzzed.jsonl:2:", _edited_file(("dataset", 1, "label", math.inf))),
    "dataset_obs_dim_null": ("fuzzed.jsonl:1:", _edited_file(("dataset", 0, "obs_dim", None))),
    "dataset_obs_dim_list": ("fuzzed.jsonl:1:", _edited_file(("dataset", 0, "obs_dim", [1]))),
    "dataset_obs_dim_object": ("fuzzed.jsonl:1:", _edited_file(("dataset", 0, "obs_dim", {"d": 1}))),
    "dataset_obs_dim_inf": ("fuzzed.jsonl:1:", _edited_file(("dataset", 0, "obs_dim", math.inf))),
    "archive_obs_dim_inf": ("fuzzed.fnode", _edited_file(("archive", ("model", "obs_dim"), math.inf))),
    # the workspace model has p 3, d_gamma 4, obs_dim 1 and n_points 5
    "archive_p_edited": ("fuzzed.fnode", _edited_file(("archive", ("model", "p"), 2))),
    "archive_d_gamma_edited": ("fuzzed.fnode", _edited_file(("archive", ("model", "d_gamma"), 1))),
    "archive_obs_dim_edited": ("fuzzed.fnode", _edited_file(("archive", ("model", "obs_dim"), 2))),
    "archive_n_points_edited": ("fuzzed.fnode", _edited_file(("archive", ("model", "n_points"), 4))),
    "archive_without_magic": ("not a format-3 archive", _archive_without_magic),
    "archive_spec_width_inf": (
        "fuzzed.fnode", _edited_file(("archive", ("model", "specs", "f", "widths", 1), math.inf))),
    "plot_short_traj_row": ("traj.csv:3:", _edited_file(("csv", "traj", 2, "0,0.5"))),
    "plot_short_band_row": ("band.csv:2:", _edited_file(("csv", "band", 1, "0.0,0.5"))),
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_bad_value_is_one_line_validation_error(case, cli_workspace, tmp_path, capsys):
    word, build = BAD_VALUES[case]
    out = tmp_path / "out.csv"
    argv = build(cli_workspace, tmp_path, out)
    capsys.readouterr()
    rc = run(argv)
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1 and word in err, err
    assert not out.exists()
    assert not tmp_path.joinpath("out.csv.log.csv").exists()


# Values that reach parsing and validation without asking for much work:
# small integers, float specials, numbers out of float range, range and list
# syntax, and text without digits, so that no large count can appear.
FUZZ_VALUES = st.one_of(
    st.integers(-2, 6).map(str),
    st.sampled_from(["nan", "inf", "-inf", "-0.0", "0.25", "1e308", "1e400", "1e-400", "1:3", "3:1", "2,1", ""]),
    st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=4),
)
FUZZED_FLAGS = [
    *(("sample", f) for f in ("--index", "--exemplar", "--delta", "--n", "--max-attempts", "--seed", "--grid-points")),
    *(("ood", f) for f in ("--quantile", "--n-gamma", "--seed")),
    *(("eval", f) for f in ("--observe-fraction", "--samples", "--seed")),
]
# JSON values for one field of a dataset record or an archive header, drawn
# like FUZZ_VALUES: every JSON kind, float specials, and short lists and
# objects of small scalars, so that no large count can appear.
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 6),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.25, 1e308]),
    st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=4),
)
JSON_VALUES = st.one_of(
    JSON_SCALARS,
    st.lists(JSON_SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=2), JSON_SCALARS, max_size=2),
)
DATASET_HEADER_FIELDS = ["record", "obs_dim", "generator", "seed", "n_trajectories", "metadata"]
DATASET_RECORD_FIELDS = ["id", "label", "times", "values", "meta"]
ARCHIVE_FIELDS = [
    ("format_version",),
    *(("model", key) for key in ("obs_dim", "n_points", "p", "d_gamma", "sigma_x", "obs_scale")),
    ("model", "solver", "method"),
    ("model", "solver", "step_size"),
    ("model", "specs", "f", "widths", 1),
    ("model", "specs", "dec", "widths", 0),
    ("model", "specs", "hyper_body", "final_activation"),
    ("model", "params", "dec.w0", "offset"),
    ("model", "params", "dec.w0", "shape", 0),
    ("model", "params", "hyper.lambda", "shape"),
    ("gmm", "cov_type"),
    ("gmm", "means", "shape", 1),
    ("seeds", "train"),
]
# plot inputs: a trajectories CSV and a band CSV
PLOT_CSVS = {
    "traj": ["sample_id,time,value_1", "0,0.0,1.0", "0,0.5,2.0", "1,0.0,0.5", "1,0.5,1.5"],
    "band": ["time,lower_1,mean_1,upper_1", "0.0,0.5,1.0,1.5", "0.5,1.5,2.0,2.5"],
}
FILE_CASES = st.one_of(
    st.tuples(st.just("dataset"), st.just(0), st.sampled_from(DATASET_HEADER_FIELDS), JSON_VALUES),
    st.tuples(st.just("dataset"), st.integers(1, 3), st.sampled_from(DATASET_RECORD_FIELDS), JSON_VALUES),
    st.tuples(st.just("archive"), st.sampled_from(ARCHIVE_FIELDS), JSON_VALUES),
    st.tuples(
        st.just("csv"),
        st.sampled_from(sorted(PLOT_CSVS)),
        st.integers(0, 2),
        st.lists(FUZZ_VALUES, max_size=5).map(",".join),
    ),
    # a whole file replaced by random bytes, some behind an archive's magic line
    st.tuples(
        st.just("bytes"),
        st.sampled_from(["archive", "dataset", *sorted(PLOT_CSVS)]),
        st.binary(max_size=64) | st.binary(max_size=64).map(archive_file.MAGIC.__add__),
    ),
)
# One float64 of a weight's block in the archive payload rewritten, the header
# left as it is: the parameter (the workspace model's 17 blocks), an entry
# index taken modulo the block's size, the new value, and the command to run.
ARCHIVE_PARAMS = [
    *(f"{part}.{kind}{i}" for part in ("enc_z0", "enc_gamma", "hyper", "dec") for kind in "wb" for i in (0, 1)),
    "hyper.lambda",
]
PAYLOAD_CASES = st.tuples(
    st.sampled_from(ARCHIVE_PARAMS),
    st.integers(0, 1000),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -2.5e-310]),
    st.sampled_from(["sample", "ood", "eval"]),
)
CONTRACT_CASES = st.one_of(
    st.tuples(
        st.just("flag"), st.sampled_from(FUZZED_FLAGS), FUZZ_VALUES,
        st.sampled_from(["gmm", "prior", "transfer", "neighborhood"]),
    ),
    st.tuples(
        st.just("config"),
        st.one_of(
            st.builds("{} = {}".format, st.sampled_from(sorted(RunConfig().values)), FUZZ_VALUES),
            st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=8),
        ),
    ),
    FILE_CASES,
)


def _file_argv(case, ws, tmp, out):
    """The argv of a ``FILE_CASES`` draw: a command on a file with one field or
    row edited, or with the whole file replaced by bytes."""
    kind, *rest = case
    if kind == "bytes":
        target, raw = rest
        if target == "archive":
            model = tmp / "fuzzed.fnode"
            model.write_bytes(raw)
            return _sample(ws, out, "--n", 3, model=model)
        if target == "dataset":
            data = tmp / "fuzzed.jsonl"
            data.write_bytes(raw)
            return ["eval", "--model", ws["model"], "--data", data, "--out", out]
        # both plot CSVs as they are (row 0 set to itself), then the target replaced
        argv = _file_argv(("csv", target, 0, PLOT_CSVS[target][0]), ws, tmp, out)
        (tmp / f"{target}.csv").write_bytes(raw)
        return argv
    if kind == "dataset":
        # line 0 is the header, line k >= 1 the k-th trajectory record
        line, field, value = rest
        lines = ws["data"].read_text(encoding="utf-8").splitlines()
        rec = json.loads(lines[line])
        rec[field] = value
        lines[line] = json.dumps(rec)
        data = tmp / "fuzzed.jsonl"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return ["eval", "--model", ws["model"], "--data", data, "--out", out]
    if kind == "archive":
        path, value = rest
        header, payload = archive_file.read_raw(ws["model"])
        node = header
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        model = tmp / "fuzzed.fnode"
        archive_file.write_raw(model, header, payload)
        return _sample(ws, out, "--n", 3, model=model)
    name, row, text = rest
    files = {}
    for key, lines in PLOT_CSVS.items():
        lines = list(lines)
        if key == name:
            lines[row] = text
        files[key] = tmp / f"{key}.csv"
        files[key].write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ["plot", "--traj", files["traj"], "--band", files["band"], "--out", out]


def _payload_argv(case, ws, tmp, out):
    """The argv of a ``PAYLOAD_CASES`` draw: its command on the workspace archive with one float64 rewritten."""
    name, index, value, command = case
    header, payload = archive_file.read_raw(ws["model"])
    block = header["model"]["params"][name]
    start = block["offset"] + 8 * (index % math.prod(block["shape"]))
    payload = payload[:start] + np.float64(value).astype("<f8").tobytes() + payload[start + 8:]
    model = tmp / "fuzzed.fnode"
    archive_file.write_raw(model, header, payload)
    ws = {**ws, "model": model}
    return {
        "sample": _sample(ws, out, "--n", 3),
        "ood": _ood(ws, out, 2),
        "eval": ["eval", "--model", model, "--data", ws["data"], "--out", out],
    }[command]


def _contract_argv(case, ws, tmp, out):
    """The argv of a ``CONTRACT_CASES`` draw or a ``("bad", BAD_VALUES key)`` seed."""
    kind, *rest = case
    if kind == "bad":
        return BAD_VALUES[rest[0]][1](ws, tmp, out)
    if kind in ("dataset", "archive", "csv", "bytes"):
        return _file_argv(case, ws, tmp, out)
    if kind == "config":
        cfg = tmp / "fuzzed.txt"
        cfg.write_text(ws["config"].read_text() + rest[0] + "\n", encoding="utf-8")
        return ["train", "--data", ws["data"], "--config", cfg, "--out", out]
    (command, flag), value, mode = rest
    # a base argv that keeps every run small: a few draws, a few attempts
    base = {
        "sample": _sample(ws, out, "--mode", mode, "--exemplar", 1, "--delta", 1.0, "--n", 3, "--max-attempts", 6),
        "ood": _ood(ws, out, 2),
        "eval": ["eval", "--model", ws["model"], "--data", ws["data"], "--out", out],
    }[command]
    return [*base, f"{flag}={value}"]


def _seeded_with_bad_values(test):
    for case in sorted(BAD_VALUES):
        test = example(case=("bad", case))(test)
    return test


def _written_csvs(argv, out):
    """The CSV files a run of ``argv`` writes: the ``--out`` of sample, ood and
    eval, and train's per-epoch log and, when it fits a sampler, its selection
    table (``epochs = 0`` without ``--gmm-only`` fits none)."""
    if argv[0] == "train":
        fitted = load_archive(out)[1] is not None
        return [Path(f"{out}.log.csv")] + [Path(f"{out}.gmm.csv")] * fitted
    return [out] if argv[0] in ("sample", "ood", "eval") else []


def _assert_finite_cells(path):
    for no, line in enumerate(path.read_text(encoding="utf-8").splitlines()[1:], start=2):
        for cell in line.split(","):
            try:
                value = float(cell)
            except ValueError:
                continue
            assert math.isfinite(value), f"{path.name}:{no}: {line}"


def _assert_exit_contract(build_argv, case, ws):
    # 0 ok, 1 runtime error, 2 usage or validation error; a failure writes one
    # error line and never a traceback, which here would be an exception out
    # of main().  A run that exits 0 writes finite numbers only.
    usage_exit = False
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        argv = build_argv(case, ws, Path(tmp), out)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                rc = run(argv)
            except SystemExit as e:
                rc, usage_exit = e.code, True
        if rc == 0:
            for path in _written_csvs(argv, out):
                _assert_finite_cells(path)
    err = err.getvalue()
    assert rc in (0, 1, 2), (rc, err)
    assert sum("error:" in line for line in err.splitlines()) <= 1, err
    if usage_exit:
        # argparse prints its usage lines above the one error line
        assert rc == 2 and [line for line in err.splitlines() if "error:" in line] == err.splitlines()[-1:], err
    elif rc != 0:
        assert err.startswith("error: ") and err.count("\n") == 1, err


@example(case=("config", "epochs = 0"))
@_seeded_with_bad_values
@settings(max_examples=40, deadline=None)
@given(case=CONTRACT_CASES)
def test_exit_code_contract(case, cli_workspace):
    _assert_exit_contract(_contract_argv, case, cli_workspace)


# a value of each kind in each command, the code posterior whose scores were
# nan, squared errors that overflowed in eval's cells, and an overflow that
# tanh would hide in the hypernetwork's output layer
@example(case=("hyper.w1", 0, math.nan, "sample"))
@example(case=("dec.b1", 0, 1e308, "eval"))
@example(case=("hyper.w1", 0, 1e308, "sample"))
@example(case=("enc_z0.b1", 5, math.inf, "eval"))
@example(case=("enc_gamma.b1", 0, 1e308, "ood"))
@example(case=("dec.w1", 7, -1e308, "eval"))
@example(case=("hyper.lambda", 0, 5e-324, "sample"))
@settings(max_examples=30, deadline=None)
@given(case=PAYLOAD_CASES)
def test_archive_payload_exit_code_contract(case, cli_workspace):
    _assert_exit_contract(_payload_argv, case, cli_workspace)


def test_module_entry_point_usage_error_exit_code():
    assert run_module("definitely-not-a-command").returncode == 2
