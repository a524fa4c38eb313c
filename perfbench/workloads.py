"""The three workloads: train, select and infer.

Each workload has a set-up (inputs, model, archive), a round (the fixed amount
of work that ``wall_s`` times, run through the program's public entry points
``model.fit``, ``gmm.select_model``, ``cli.main`` and
``inference.credible_band``), and checks of the round's outputs against
computations made apart from the program.  Entry points are looked up on
their module at call time, so the traced run's probes see every call.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layers
import mixture
import reference

SIZES = {
    "train": {
        "full": dict(n_per_class=20, n_classes=10, n_points=10, epochs=2, learning_rate=None, arch={}),
        "smoke": dict(
            n_per_class=4, n_classes=4, n_points=6, epochs=8, learning_rate=3e-2,
            arch=dict(enc_hidden=(16,), dec_hidden=(16,), hyper_hidden=(16,), f_hidden=(16,)),
        ),
    },
    "select": {
        "full": dict(rows=500, dim=16, grid=tuple(range(1, 9)), max_iter=50),
        "smoke": dict(rows=150, dim=16, grid=(1, 2, 3, 4), max_iter=15),
    },
    "infer": {
        "full": dict(
            cal_per_class=10, side_per_class=2, gmm_components="1:3", gmm_max_iter=50,
            n_samples=20, grid_points=25, delta=4.0, band_draws=40, n_bands=3, arch="",
        ),
        "smoke": dict(
            cal_per_class=2, side_per_class=1, gmm_components="1:2", gmm_max_iter=10,
            n_samples=4, grid_points=8, delta=4.0, band_draws=20, n_bands=2,
            arch="enc_hidden = 16\ndec_hidden = 16\nhyper_hidden = 16\nf_hidden = 16\n",
        ),
    },
}


@dataclass
class RoundResult:
    failures: list[str] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)


def _attempt(result: RoundResult, name: str, fn):
    """Run one operation; an exception marks it failed."""
    try:
        return fn()
    except Exception as e:  # a failed operation is counted, not fatal
        result.failures.append(f"{name}: {type(e).__name__}: {e}")
        return None


def _weights(m) -> dict:
    return {name: t.data for name, t in m.params.items()}


def _spec_layers(m) -> dict:
    return {
        m.enc_z0.spec: "nets.encode",
        m.enc_gamma.spec: "nets.encode",
        m.hyper.body: "nets.hyper",
        m.dec.spec: "nets.decode",
    }


class Workload:
    """Defaults: rounds need no untimed preparation and run no networks."""

    def prepare(self, state: dict) -> None:
        pass

    def spec_layers(self, state: dict) -> dict:
        return {}


# -- train ------------------------------------------------------------------------


class Train(Workload):
    """``model.fit`` on a set-A panel with the CLI's default architecture."""

    def setup(self, seed: int, size: str, workdir: Path) -> dict:
        from fnode import cli, model, syndata

        cfg = SIZES["train"][size]
        data = syndata.generate_set_a(
            n_per_class=cfg["n_per_class"], n_classes=cfg["n_classes"], n_points=cfg["n_points"], seed=seed
        )
        values = np.concatenate([t.values.reshape(-1) for t in data.trajectories])
        defaults = cli.RunConfig().values
        arch = {k: defaults[k] for k in ("p", "d_gamma", "f_hidden", "enc_hidden", "dec_hidden", "hyper_hidden")}
        arch.update(cfg["arch"])
        build = dict(
            obs_dim=data.obs_dim,
            n_points=cfg["n_points"],
            step_size=defaults["step_size"],
            sigma_x=defaults["sigma_x"],
            lambda_init=defaults["lambda_init"],
            obs_scale=float(np.sqrt(np.mean(values**2))),
            seed=seed,
            **arch,
        )
        epochs = cfg["epochs"]
        tcfg = model.TrainConfig(
            epochs=epochs,
            batch_size=defaults["batch_size"],
            learning_rate=cfg["learning_rate"] or defaults["learning_rate"],
            kl_anneal_epochs=min(defaults["kl_anneal_epochs"], epochs),
            seed=seed,
            mc_samples=defaults["mc_samples"],
        )
        m = model.FNODEModel.build(**build)
        n_params = sum(t.data.size for _, t in m.params.items())
        return dict(ops=1, data=data, build=build, tcfg=tcfg, model=m, fresh=True, info=f"{n_params} parameters")

    def prepare(self, state: dict) -> None:
        from fnode import model

        if not state["fresh"]:
            state["model"] = model.FNODEModel.build(**state["build"])
        state["fresh"] = False

    def run_round(self, state: dict, tr) -> RoundResult:
        from fnode import model

        res = RoundResult()
        on_epoch = layers.epoch_clock(tr) if tr.enabled else None
        out = _attempt(res, "fit", lambda: model.fit(state["model"], state["data"], state["tcfg"], on_epoch=on_epoch))
        if out is not None:
            res.outputs["history"] = out[1]
        return res

    def check(self, state: dict, res: RoundResult) -> list[str]:
        from fnode import model

        if "history" not in res.outputs:
            return []
        problems = []
        m, tcfg = state["model"], state["tcfg"]
        history = res.outputs["history"]
        if len(history) != tcfg.epochs:
            problems.append(f"fit returned {len(history)} epochs, asked for {tcfg.epochs}")
        elif not history[-1].recon_loglik > history[0].recon_loglik:
            problems.append(
                f"reconstruction log-likelihood did not rise: {history[0].recon_loglik} -> {history[-1].recon_loglik}"
            )
        bad = [name for name, t in m.params.items() if not np.all(np.isfinite(t.data))]
        if bad:
            problems.append(f"non-finite parameters after fit: {bad}")
            return problems

        weights = _weights(m)
        trajs = state["data"].trajectories
        for j in sorted({0, len(trajs) // 2, len(trajs) - 1}):
            x = trajs[j]
            got = model.elbo_loss(m, x, tcfg, 1.0)
            rng = np.random.default_rng(tcfg.seed)
            noises = [
                (rng.standard_normal((1, m.p))[0], rng.standard_normal((1, m.d_gamma))[0])
                for _ in range(tcfg.mc_samples)
            ]
            want = reference.elbo(
                weights, m.f_spec.layer_widths, m.solver.step_size, m.sigma_x, m.obs_scale,
                x.times, x.values, noises, 1.0,
            )
            for term, g, w in zip(("total", "recon_loglik", "kl_z0", "kl_gamma"),
                                  (got.total, got.recon_loglik, got.kl_z0, got.kl_gamma), want):
                if not reference.close(g, w):
                    problems.append(f"elbo_loss {term} of trajectory {j}: {g!r} != reference {w!r}")
        return problems

    def spec_layers(self, state: dict) -> dict:
        return _spec_layers(state["model"])


# -- select -----------------------------------------------------------------------


class Select(Workload):
    """``gmm.select_model`` on a bank drawn from a planted mixture."""

    def setup(self, seed: int, size: str, workdir: Path) -> dict:
        cfg = SIZES["select"][size]
        bank = mixture.planted_bank(cfg["rows"], cfg["dim"], seed)
        return dict(ops=1, bank=bank, seed=seed, info=f"bank {bank.shape[0]}x{bank.shape[1]}", **cfg)

    def run_round(self, state: dict, tr) -> RoundResult:
        from fnode import gmm

        res = RoundResult()
        out = _attempt(
            res,
            "select_model",
            lambda: gmm.select_model(state["bank"], state["grid"], seed=state["seed"], max_iter=state["max_iter"]),
        )
        if out is not None:
            res.outputs["winner"], res.outputs["table"] = out
        return res

    def check(self, state: dict, res: RoundResult) -> list[str]:
        if "table" not in res.outputs:
            return []
        problems = []
        S, table = res.outputs["winner"], res.outputs["table"]
        X = state["bank"]
        n, d = X.shape
        cov_types = ("spherical", "tied", "diag", "full")
        fitted = {(r.K, r.cov_type) for r in table}
        missing = [(K, ct) for K in state["grid"] for ct in cov_types if (K, ct) not in fitted]
        if missing:
            problems.append(f"selection table lacks fits {missing}")
        chosen = [r for r in table if r.selected]
        if len(chosen) != 1 or (chosen[0].K, chosen[0].cov_type) != (mixture.PLANTED_K, mixture.PLANTED_COV):
            got = [(r.K, r.cov_type) for r in chosen]
            problems.append(f"selected {got}, planted {(mixture.PLANTED_K, mixture.PLANTED_COV)}")
        if (S.n_components, S.cov_type) != (mixture.PLANTED_K, mixture.PLANTED_COV):
            problems.append(f"returned model is ({S.n_components}, {S.cov_type})")
        own = float(mixture.log_density(S.weights, S.means, S.covariances, S.cov_type, X).sum())
        for r in chosen:
            if not reference.close(r.loglik, own):
                problems.append(f"winner loglik {r.loglik!r} != own log-density {own!r}")
        for r in table:
            k = mixture.n_params(r.K, d, r.cov_type)
            if r.params != k:
                problems.append(f"K={r.K} {r.cov_type}: {r.params} parameters, expected {k}")
            if not reference.close(r.bic, -2.0 * r.loglik + k * math.log(n)):
                problems.append(f"K={r.K} {r.cov_type}: bic {r.bic!r} != -2*loglik + params*ln(n)")
        return problems


# -- infer ------------------------------------------------------------------------


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = [ln.split(",") for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]
    return (lines[0], lines[1:]) if lines else ([], [])


def _finite(cells) -> bool:
    try:
        return all(math.isfinite(float(c)) for c in cells)
    except ValueError:
        return False


class Infer(Workload):
    """The CLI's inference commands on an archive written by ``fnode train --gmm-only``."""

    def setup(self, seed: int, size: str, workdir: Path) -> dict:
        from fnode import cli, serialize, syndata

        cfg = SIZES["infer"][size]
        files = {k: workdir / f"{k}.jsonl" for k in ("cal", "side_b", "eval")}
        archive = workdir / "model.json"
        config = workdir / "train.cfg"
        steps = [
            ["generate-data", "--set", "a", "--out", str(files["cal"]), "--seed", str(seed),
             "--n-per-class", str(cfg["cal_per_class"])],
            ["generate-data", "--set", "b", "--out", str(files["side_b"]), "--seed", str(seed + 1),
             "--n-per-class", str(cfg["side_per_class"])],
            ["generate-data", "--set", "a", "--out", str(files["eval"]), "--seed", str(seed + 2),
             "--n-per-class", str(cfg["side_per_class"])],
        ]
        for argv in steps:
            _cli_or_raise(cli, argv)
        cal = syndata.load_dataset(files["cal"])
        side = syndata.load_dataset(files["side_b"])
        # the calibration panel is the first N rows of the test panel
        test_path = workdir / "test.jsonl"
        syndata.save_dataset(
            syndata.PanelDataset(cal.trajectories + side.trajectories, obs_dim=cal.obs_dim, metadata={"generator": "a+b"}),
            test_path,
        )
        config.write_text(
            f"epochs = 0\ngmm_components = {cfg['gmm_components']}\ngmm_max_iter = {cfg['gmm_max_iter']}\n"
            + cfg["arch"],
            encoding="utf-8",
        )
        _cli_or_raise(cli, ["train", "--data", str(files["cal"]), "--config", str(config), "--out", str(archive),
                            "--gmm-only", "--seed", str(seed)])
        m, S, _ = serialize.load_archive(archive)

        rng = np.random.default_rng(seed)
        n = len(cal.trajectories)
        source, exemplar = (int(i) for i in rng.choice(n, size=2, replace=False))
        return dict(
            ops=5 + cfg["n_bands"],  # three sample modes, ood, eval, and one per band
            info=f"archive {archive.stat().st_size} bytes, sampler K={S.n_components} {S.cov_type}",
            seed=seed, cfg=cfg, workdir=workdir, archive=archive, model=m, sampler=S, cal=cal,
            n_test=n + len(side.trajectories), n_eval=len(syndata.load_dataset(files["eval"]).trajectories),
            files=files, test=test_path, source=source, exemplar=exemplar,
            band_rows=[int(i) for i in rng.choice(n, size=cfg["n_bands"], replace=False)],
        )

    def run_round(self, state: dict, tr) -> RoundResult:
        from fnode import cli, inference

        res = RoundResult()
        cfg, wd, seed = state["cfg"], state["workdir"], str(state["seed"])
        common = ["--model", str(state["archive"])]
        sample = ["sample", *common, "--data", str(state["files"]["cal"]), "--index", str(state["source"]), "--seed", seed]
        commands = [
            ("sample", "sample_gmm", sample + ["--mode", "gmm", "--n", str(cfg["n_samples"]),
                                              "--grid-points", str(cfg["grid_points"])]),
            ("sample", "sample_transfer", sample + ["--mode", "transfer", "--exemplar", str(state["exemplar"]),
                                                   "--grid-points", str(cfg["grid_points"])]),
            ("sample", "sample_neighborhood", sample + ["--mode", "neighborhood", "--exemplar", str(state["exemplar"]),
                                                       "--delta", str(cfg["delta"]), "--n", str(cfg["n_samples"])]),
            ("ood", "ood", ["ood", *common, "--train-data", str(state["files"]["cal"]),
                            "--test-data", str(state["test"]), "--quantile", "0.95", "--seed", seed]),
            ("eval", "eval", ["eval", *common, "--data", str(state["files"]["eval"]), "--samples", "2",
                              "--seed", seed]),
        ]
        for cmd, name, argv in commands:
            out = wd / f"{name}.csv"
            out.unlink(missing_ok=True)
            with tr.span("cli." + cmd):
                _attempt(res, name, lambda: _cli_or_raise(cli, argv + ["--out", str(out)]))
            res.outputs[name] = out

        m, S = state["model"], state["sampler"]
        bands = []
        for k, j in enumerate(state["band_rows"]):
            x = state["cal"].trajectories[j]
            source = "gmm" if k % 2 else "posterior"
            bands.append(_attempt(res, f"band_{j}", lambda: inference.credible_band(
                m, S, x, x.times, n_draws=cfg["band_draws"], level=0.9, seed=state["seed"] + k, source=source)))
        res.outputs["bands"] = bands
        return res

    def check(self, state: dict, res: RoundResult) -> list[str]:
        problems = []
        cfg = state["cfg"]
        cal = state["cal"].trajectories
        src = cal[state["source"]]
        failed = {f.split(":")[0] for f in res.failures}

        def rows_of(name, n_rows, header_start):
            path = res.outputs[name]
            if name in failed:
                return None
            header, rows = _read_csv(path)
            if header[: len(header_start)] != header_start:
                problems.append(f"{name}: header {header}")
                return None
            if len(rows) != n_rows:
                problems.append(f"{name}: {len(rows)} rows, flags imply {n_rows}")
                return None
            return rows

        G = cfg["grid_points"]
        for name, n_paths, T in (("sample_gmm", cfg["n_samples"], G), ("sample_neighborhood", cfg["n_samples"], len(src))):
            rows = rows_of(name, n_paths * T, ["sample_id", "time", "value_1"])
            if rows is not None:
                if not all(_finite(r[1:]) for r in rows):
                    problems.append(f"{name}: non-finite values")
                if sorted({int(r[0]) for r in rows}) != list(range(n_paths)):
                    problems.append(f"{name}: sample ids are not 0..{n_paths - 1}")

        rows = rows_of("sample_transfer", G, ["sample_id", "time", "value_1"])
        if rows is not None:
            m = state["model"]
            weights = _weights(m)
            ex = cal[state["exemplar"]]
            times = np.linspace(src.times[0], src.times[-1], G)
            z0, _ = reference.encode(weights, "enc_z0", src.times, src.values, m.obs_scale)
            gamma, _ = reference.encode(weights, "enc_gamma", ex.times, ex.values, m.obs_scale)
            want = reference.rollout(weights, m.f_spec.layer_widths, m.solver.step_size, z0, gamma, times)
            got = np.array([[float(c) for c in r[2:]] for r in rows])
            if not reference.close(got, want):
                problems.append(f"sample_transfer differs from the reference by {np.max(np.abs(got - want))!r}")

        rows = rows_of("ood", state["n_test"], ["index", "label", "nll", "threshold", "flagged"])
        if rows is not None:
            if not all(_finite(r[2:4]) for r in rows):
                problems.append("ood: non-finite nll or threshold")
            elif any(int(r[4]) != int(float(r[2]) > float(r[3])) for r in rows):
                problems.append("ood: a flag disagrees with nll > threshold")
            n = len(cal)
            flagged = sum(int(r[4]) for r in rows[:n])
            if flagged != n - math.ceil(0.95 * n):
                problems.append(f"ood: {flagged} calibration rows flagged, expected {n - math.ceil(0.95 * n)}")

        rows = rows_of("eval", state["n_eval"] + 1, ["index", "label", "n_observed", "interp_mse"])
        if rows is not None:
            if not all(_finite([r[3]]) and _finite([c for c in r[4:] if c]) for r in rows):
                problems.append("eval: non-finite error")

        for j, band in zip(state["band_rows"], res.outputs["bands"]):
            if band is None:
                continue
            shape = (len(cal[j].times), state["model"].obs_dim)
            if band.lower.shape != shape or band.mean.shape != shape or band.upper.shape != shape:
                problems.append(f"band {j}: shape {band.mean.shape}, expected {shape}")
            elif not (np.all(band.lower <= band.mean) and np.all(band.mean <= band.upper)):
                problems.append(f"band {j}: lower <= mean <= upper does not hold")
            if band.n_draws != cfg["band_draws"]:
                problems.append(f"band {j}: {band.n_draws} draws, asked for {cfg['band_draws']}")
        return problems

    def spec_layers(self, state: dict) -> dict:
        return _spec_layers(state["model"])


def _cli_or_raise(cli, argv: list[str]) -> None:
    """``cli.main`` in process; a non-zero exit raises with the command's error output."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"fnode {argv[0]} exited {code}: {err.getvalue().strip()}")


WORKLOADS = {"train": Train, "select": Select, "infer": Infer}
