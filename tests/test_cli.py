import json
import subprocess
import sys

import numpy as np
import pytest

from fnode.cli import RunConfig, ValidationError, main
from fnode.syndata import PanelDataset, Trajectory, load_dataset, save_dataset


def run(args):
    return main([str(a) for a in args])


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
        doc = json.loads(out.read_text())
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
        assert json.loads(out.read_text())["gmm"] is not None

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

    def test_seed_flag_overrides_config(self, cli_workspace, tmp_path):
        out = tmp_path / "seeded.json"
        rc = run(
            [
                "train", "--data", cli_workspace["data"], "--config", cli_workspace["config"],
                "--out", out, "--seed", "99",
            ]
        )
        assert rc == 0
        assert json.loads(out.read_text())["seeds"]["train"] == 99
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


def test_module_entry_point_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "fnode", "definitely-not-a-command"],
        capture_output=True,
    )
    assert proc.returncode == 2
