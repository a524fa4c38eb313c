"""Command-line surface: data generation, training, sampling, OOD, eval, plots.

Every command is deterministic given its flags and seeds, writes files
atomically, and uses exit codes 0 (success), 1 (runtime failure) and
2 (usage or validation error).  :func:`main` is the one place that maps
errors to exit codes: any ``ValueError`` (a bad flag, config, dataset or
archive) exits 2, a runtime or OS error exits 1, each with one line on stderr.

Each default has one home, the library function that uses it: the config
keys read theirs from ``FNODEModel.build``, ``TrainConfig`` and
``gmm.select_model``, and the ``generate-data``, ``ood`` and ``sample
--max-attempts`` flags from ``generate_set_a``, ``ood_calibrate`` and
``neighborhood_sample``.  Only the defaults no library function declares are
stated here.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import astuple
from types import SimpleNamespace

import numpy as np

from . import gmm as gmm_mod
from . import inference, svg
from .model import FNODEModel, TrainConfig, TrainingDiverged, fit
from .odeint import IntegrationBlowUp
from .serialize import load_archive, save_archive
from .syndata import (
    fmt_float,
    generate_set_a,
    generate_set_b,
    load_dataset,
    save_dataset,
    write_text_atomic,
)
from .tensorgrad import NonFiniteValue

__all__ = ["main", "RunConfig", "band_to_csv"]


class ValidationError(ValueError):
    """Bad flags or config: maps to exit code 2."""


# -- run configuration -------------------------------------------------------------


def _defaults(fn) -> dict:
    """The keyword defaults ``fn`` declares, by name, in signature order."""
    return {k: v.default for k, v in inspect.signature(fn).parameters.items() if v.default is not v.empty}


# key -> default, build's obs_scale and seed aside.  "auto" obs_scale means RMS of the training values.
_CONFIG_DEFAULTS = {
    **{k: v for k, v in _defaults(FNODEModel.build).items() if k not in ("obs_scale", "seed")},
    "obs_scale": "auto",
    **_defaults(TrainConfig),
    "n_gamma": 5,
    "gmm_components": tuple(range(1, 21)),
    "gmm_cov_types": _defaults(gmm_mod.select_model)["cov_types"],
    "gmm_max_iter": _defaults(gmm_mod.select_model)["max_iter"],
}
# A key's parser follows the type of its default (int, float, or a tuple read
# as a comma list of ints), but for these.
_SPECIAL_KINDS = {"obs_scale": "scale", "gmm_components": "range", "gmm_cov_types": "covlist"}


def _parse_value(key: str, raw: str):
    kind = _SPECIAL_KINDS.get(key, type(_CONFIG_DEFAULTS[key]))
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is tuple:
            return tuple(int(tok) for tok in raw.split(",") if tok.strip())
        if kind == "scale":
            return "auto" if raw.strip() == "auto" else float(raw)
        if kind == "covlist":
            types = tuple(tok.strip() for tok in raw.split(",") if tok.strip())
            bad = [t for t in types if t not in gmm_mod.COV_TYPES]
            if bad:
                raise ValueError(f"unknown covariance types {bad}")
            return types
        if kind == "range":
            if ":" in raw:
                parts = [int(tok) for tok in raw.split(":")]
                if len(parts) > 3 or len(parts) == 3 and parts[2] < 1:
                    raise ValueError("a range is lo:hi or lo:hi:step, with step >= 1")
                lo, hi, step = (parts + [1])[:3]
                return tuple(range(lo, hi + 1, step))
            return tuple(int(tok) for tok in raw.split(",") if tok.strip())
    except ValueError as e:
        raise ValidationError(f"config key {key!r}: cannot parse {raw!r} ({e})") from e
    raise AssertionError(kind)


class RunConfig:
    """Plain-text key=value configuration; unknown keys are rejected."""

    def __init__(self, overrides: dict | None = None):
        self.values = dict(_CONFIG_DEFAULTS)
        if overrides:
            self.values.update(overrides)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        overrides = {}
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise ValidationError(f"{path}:{line_no}: expected key=value")
                key, raw = (part.strip() for part in stripped.split("=", 1))
                if key not in _CONFIG_DEFAULTS:
                    raise ValidationError(f"{path}:{line_no}: unknown key {key!r}")
                overrides[key] = _parse_value(key, raw)
        return cls(overrides)

    def __getitem__(self, key: str):
        return self.values[key]


# -- small shared helpers -------------------------------------------------------------


def _traj_by_index(data, index: int):
    if not 0 <= index < len(data.trajectories):
        raise ValidationError(f"trajectory index {index} out of range (N={len(data.trajectories)})")
    return data.trajectories[index]


def _csv(rows: list[list], header: list[str]) -> str:
    lines = [",".join(fmt_float(c) if isinstance(c, float) else str(c) for c in r) for r in rows]
    return "\n".join([",".join(header), *lines]) + "\n"


def band_to_csv(band: inference.CredibleBand) -> str:
    """Band CSV: time then (lower_d, mean_d, upper_d) triplets per dimension."""
    header = ["time"] + [f"{k}_{d}" for d in range(1, band.mean.shape[1] + 1) for k in ("lower", "mean", "upper")]
    triplets = np.stack([band.lower, band.mean, band.upper], axis=2).reshape(len(band.times), -1)
    return _csv([[float(t), *map(float, row)] for t, row in zip(band.times, triplets)], header)


def _trajs_to_csv(paths: np.ndarray, times: np.ndarray) -> str:
    """[n, T, obs_dim] decoded paths as rows of sample_id, time and the values."""
    header = ["sample_id", "time"] + [f"value_{d}" for d in range(1, paths.shape[2] + 1)]
    rows = [[sid, float(t), *map(float, row)] for sid, path in enumerate(paths) for t, row in zip(times, path)]
    return _csv(rows, header)


# -- commands ---------------------------------------------------------------------------


def cmd_generate_data(args) -> int:
    gen = generate_set_a if args.set == "a" else generate_set_b
    data = gen(**{k: getattr(args, k) for k in _defaults(gen)})
    save_dataset(data, args.out)
    print(
        f"wrote {args.out}: N={len(data)} trajectories, "
        f"{args.n_classes} classes, obs_dim={data.obs_dim}"
    )
    return 0


def _check_selection(cfg: RunConfig, n_trajectories: int) -> None:
    """Refuse mixture-selection settings before training spends a fit on them."""
    ks, n_rows = cfg["gmm_components"], n_trajectories * cfg["n_gamma"]
    for key, bad, need in [
        ("n_gamma", cfg["n_gamma"] < 1, "must be >= 1"),
        ("gmm_max_iter", cfg["gmm_max_iter"] < 1, "must be >= 1"),
        ("gmm_cov_types", not cfg["gmm_cov_types"], "must name at least one covariance type"),
        ("gmm_cov_types", len(set(cfg["gmm_cov_types"])) < len(cfg["gmm_cov_types"]), "must not repeat a type"),
        ("gmm_components", len(set(ks)) < len(ks), "must not repeat a K"),
        ("gmm_components", min(ks, default=0) < 1, "every K must be >= 1"),
        ("gmm_components", max(ks, default=0) > n_rows, f"every K must be <= the {n_rows} rows of the code bank"),
    ]:
        if bad:
            raise ValidationError(f"config key {key!r}: {need}, got {cfg[key]}")


def cmd_train(args) -> int:
    data = load_dataset(args.data)
    cfg_file = RunConfig.from_file(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg_file.values["seed"] = args.seed  # flag wins over config file

    obs_scale = cfg_file["obs_scale"]
    if obs_scale == "auto":
        values = np.concatenate([t.values.reshape(-1) for t in data.trajectories])
        # all-zero values have no scale of their own
        obs_scale = float(np.sqrt(np.mean(values**2))) or 1.0

    n_points = len(data.trajectories[0])
    if any(len(t) != n_points for t in data.trajectories):
        raise ValidationError("all trajectories must have the same number of points")
    select = cfg_file["epochs"] > 0 or args.gmm_only
    if select:
        _check_selection(cfg_file, len(data.trajectories))

    arch = {k: cfg_file[k] for k in _defaults(FNODEModel.build)} | {"obs_scale": obs_scale}
    m = FNODEModel.build(obs_dim=data.obs_dim, n_points=n_points, **arch)
    tcfg = TrainConfig(**{k: cfg_file[k] for k in _defaults(TrainConfig)})

    log_path = args.log or (str(args.out) + ".log.csv")
    log_rows: list[list] = []
    history, diverged = [], None
    try:
        _, history = fit(m, data, tcfg, on_epoch=lambda epoch, bd: log_rows.append([epoch, *astuple(bd)]))
    except TrainingDiverged as e:
        diverged = e
    write_text_atomic(log_path, _csv(log_rows, ["epoch", "elbo", "recon", "kl_z0", "kl_gamma", "kl_weight"]))
    if diverged is not None:
        print(f"error: {diverged} (partial log at {log_path})", file=sys.stderr)
        return 1

    S = None
    if select:
        bank = inference.collect_gamma_samples(m, data, cfg_file["n_gamma"], seed=cfg_file["seed"] + 1)
        S, table = gmm_mod.select_model(
            bank,
            cfg_file["gmm_components"],
            cfg_file["gmm_cov_types"],
            seed=cfg_file["seed"] + 2,
            max_iter=cfg_file["gmm_max_iter"],
        )
        write_text_atomic(str(args.out) + ".gmm.csv", gmm_mod.selection_table_csv(table))
        # EM convergence per fit, beside the pinned CSV
        fits = ({"K": r.K, "cov_type": r.cov_type, "n_iter": r.n_iter, "converged": r.converged} for r in table)
        write_text_atomic(str(args.out) + ".gmm.jsonl", "".join(json.dumps(f) + "\n" for f in fits))

    save_archive(args.out, m, S, history, seeds={"train": tcfg.seed})
    if history:
        print(
            f"trained {tcfg.epochs} epochs: elbo {history[0].total:.4f} -> {history[-1].total:.4f}"
        )
    if S is not None:
        print(f"sampler: K={S.n_components} cov_type={S.cov_type}")
    print(f"wrote {args.out}")
    return 0


def cmd_sample(args) -> int:
    if args.n < 1:
        raise ValidationError("--n must be >= 1")
    if args.grid_points is not None and args.grid_points < 1:
        raise ValidationError("--grid-points must be >= 1")
    m, S, _ = load_archive(args.model)
    data = load_dataset(args.data)
    source = _traj_by_index(data, args.index)

    if args.grid_points is not None:
        times = np.linspace(source.times[0], source.times[-1], args.grid_points)
    else:
        times = source.times

    if args.mode == "gmm":
        if S is None:
            raise ValidationError("archive holds no fitted sampler; train with epochs > 0")
        paths = inference.sample_trajectories(m, S, source, times, args.n, seed=args.seed)
    elif args.mode == "prior":
        z0 = inference.posterior(m, [source])[0][:, : m.p]
        codes = np.random.default_rng(args.seed).standard_normal((args.n, m.d_gamma))
        latents = np.hstack([np.repeat(z0, args.n, axis=0), codes])
        paths = inference.rollout(m, latents, float(source.times[0]), times)
    elif args.mode == "transfer":
        if args.exemplar is None:
            raise ValidationError("--mode transfer needs --exemplar")
        exemplar = _traj_by_index(data, args.exemplar)
        paths = inference.transfer_trajectory(m, source, exemplar, times)[None]
    else:  # neighborhood
        if args.exemplar is None or args.delta is None:
            raise ValidationError("--mode neighborhood needs --exemplar and --delta")
        if not args.delta > 0:
            raise ValidationError("--delta must be positive")
        if S is None:
            raise ValidationError("archive holds no fitted sampler; train with epochs > 0")
        exemplar = _traj_by_index(data, args.exemplar)
        _, paths = inference.neighborhood_sample(
            m, S, exemplar, args.delta, args.n, max_attempts=args.max_attempts, seed=args.seed, times=times
        )

    write_text_atomic(args.out, _trajs_to_csv(paths, times))
    print(f"wrote {args.out}: {len(paths)} trajectories over {times.size} times")
    return 0


def cmd_ood(args) -> int:
    m, S, _ = load_archive(args.model)
    if S is None:
        raise ValidationError("archive holds no fitted sampler; train with epochs > 0")
    train_data = load_dataset(args.train_data)
    test_data = load_dataset(args.test_data)

    threshold = inference.ood_calibrate(m, S, train_data, args.n_gamma, args.quantile, args.seed)
    nll = inference.ood_scores(m, S, test_data, args.n_gamma, args.seed)
    flagged = nll > threshold
    labels = test_data.labels()
    rows = [
        [j, "" if lab is None else lab, float(score), threshold, int(flag)]
        for j, (lab, score, flag) in enumerate(zip(labels, nll, flagged))
    ]
    write_text_atomic(args.out, _csv(rows, ["index", "label", "nll", "threshold", "flagged"]))

    print(f"threshold={threshold:.6g} flag_rate={flagged.mean():.4f} ({flagged.sum()}/{flagged.size})")
    for lab in sorted(set(labels) - {None}):
        print(f"class {lab}: {flagged[[k == lab for k in labels]].mean():.4f}")
    return 0


def _observed_prefix(m: FNODEModel, traj, mask: np.ndarray):
    """The observed points, padded to the encoder's point count by repeating the last one."""
    times = traj.times[mask]
    values = traj.values[mask]
    pad = m.n_points - times.size
    if pad < 0:
        raise ValidationError(f"{times.size} observed points exceed the model's {m.n_points}")
    if pad > 0:
        times = np.concatenate([times, np.repeat(times[-1], pad)])
        values = np.concatenate([values, np.repeat(values[-1:], pad, axis=0)])
    return SimpleNamespace(times=times, values=values)


EVAL_HORIZONS = (0.10, 0.20, 0.50, 1.00)


def cmd_eval(args) -> int:
    if not 0.0 < args.observe_fraction <= 1.0:
        raise ValidationError("--observe-fraction must lie in (0, 1]")
    if args.samples < 1:
        raise ValidationError("--samples must be >= 1")
    m, _, _ = load_archive(args.model)
    data = load_dataset(args.data)

    header = ["index", "label", "n_observed", "interp_mse"] + [
        f"extrap_{int(100 * h)}" for h in EVAL_HORIZONS
    ]
    trajs = data.trajectories
    cuts = [t.times[0] + args.observe_fraction * (t.times[-1] - t.times[0]) for t in trajs]
    masks = [t.times <= cut + 1e-12 for t, cut in zip(trajs, cuts)]
    prefixes = [_observed_prefix(m, t, mask) for t, mask in zip(trajs, masks)]
    mean, std = inference.posterior(m, prefixes)
    latents = mean[None]
    if args.samples > 1:
        # trajectory j's samples are posterior draws on default_rng(seed ^ j); latents[k, j] is its k-th
        rngs = [np.random.default_rng(args.seed ^ j) for j in range(len(prefixes))]
        latents = inference.posterior_draws(mean, std, args.samples, rngs).transpose(1, 0, 2)

    # One rollout per trajectory length: row (k, i) is sample k of trajectory js[i] over its own
    # times.  cut >= t0, so every mask holds the first time, where each row's rollout starts.
    sqs = [None] * len(trajs)
    for n in dict.fromkeys(len(t) for t in trajs):
        js = [j for j, t in enumerate(trajs) if len(t) == n]
        grid = np.tile(np.stack([trajs[j].times for j in js]), (args.samples, 1))
        recon = inference.rollout(m, latents[:, js].reshape(-1, mean.shape[1]), None, grid)
        recon = recon.reshape(args.samples, len(js), n, m.obs_dim)
        group_sq = ((recon - np.stack([trajs[j].values for j in js])) ** 2).sum(axis=0) / args.samples
        for j, row_sq in zip(js, group_sq):
            sqs[j] = row_sq

    rows = []
    for j, (traj, cut, mask, sq) in enumerate(zip(trajs, cuts, masks, sqs)):
        t = traj.times
        ahead = [(t > cut + 1e-12) & (t <= cut + h * (cut - t[0]) + 1e-12) for h in EVAL_HORIZONS]
        row: list = [j, "" if traj.label is None else traj.label, int(mask.sum())]
        rows.append(row + [float(sq[w].mean()) if w.any() else "" for w in [mask, *ahead]])
    columns = [[r[i] for r in rows if r[i] != ""] for i in range(3, 4 + len(EVAL_HORIZONS))]
    mean_row = ["mean", "", ""] + [sum(c) / len(c) if c else "" for c in columns]
    rows.append(mean_row)
    for row in rows:
        if not all(np.isfinite(v) for v in row[3:] if v != ""):
            who = "the mean row" if row[0] == "mean" else f"trajectory {row[0]}"
            raise NonFiniteValue(f"eval: the squared error of {who} overflows")
    write_text_atomic(args.out, _csv(rows, header))
    print(f"wrote {args.out}: interpolation MSE {mean_row[3]}")
    return 0


def _read_csv(path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """The header and the (line number, cells) of each row."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(no, ln.split(",")) for no, ln in enumerate(fh.read().splitlines(), start=1) if ln.strip()]
    if len(lines) < 2:
        raise ValidationError(f"{path}: need a header and at least one row")
    header = lines[0][1]
    for no, row in lines[1:]:
        if len(row) != len(header):
            raise ValidationError(f"{path}:{no}: {len(row)} fields, the header has {len(header)}")
    return header, lines[1:]


def _numbers(path, no: int, cells: list[str], kind=float) -> list:
    """The cells of line ``no`` as ``kind``; a cell that is not one is refused, naming ``path:no``."""
    try:
        return [kind(c) for c in cells]
    except ValueError as e:
        raise ValidationError(f"{path}:{no}: {e}") from e


def cmd_plot(args) -> int:
    header, rows = _read_csv(args.traj)
    if header[:2] != ["sample_id", "time"] or len(header) < 3:
        raise ValidationError(f"{args.traj}: expected sample_id,time,value_... columns")
    series: dict[str, list[tuple[float, float]]] = {}
    for no, r in rows:
        _numbers(args.traj, no, r[:1], int)
        series.setdefault(r[0], []).append(tuple(_numbers(args.traj, no, r[1:3])))
    series_list = [(f"sample {sid}", *np.array(series[sid]).T) for sid in sorted(series, key=int)]

    band = None
    if args.band:
        bheader, brows = _read_csv(args.band)
        if bheader[:4] != ["time", "lower_1", "mean_1", "upper_1"]:
            raise ValidationError(f"{args.band}: expected time,lower_1,mean_1,upper_1 columns")
        bt, bl, bm, bu = np.array([_numbers(args.band, no, r[:4]) for no, r in brows]).T
        if np.any(bl > bu):
            raise ValidationError(f"{args.band}: lower exceeds upper")
        band = (bt, bl, bm, bu)

    write_text_atomic(args.out, svg.render_line_plot(series_list, band=band, title=args.title))
    print(f"wrote {args.out}")
    return 0


# -- argument parsing ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fnode", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate-data", help="write a synthetic panel dataset")
    g.add_argument("--set", choices=("a", "b"), required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int)
    g.add_argument("--n-per-class", type=int)
    g.add_argument("--n-classes", type=int)
    g.add_argument("--n-points", type=int)
    g.add_argument("--t-max", type=float)
    g.add_argument("--noise", choices=("per_trajectory", "per_point", "none"))
    g.set_defaults(func=cmd_generate_data, **_defaults(generate_set_a))

    t = sub.add_parser("train", help="fit the model and its ex-post sampler")
    t.add_argument("--data", required=True)
    t.add_argument("--config", default=None, help="key=value file; defaults used if omitted")
    t.add_argument("--out", required=True)
    t.add_argument("--log", default=None, help="per-epoch CSV (default: <out>.log.csv)")
    t.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    t.add_argument("--gmm-only", action="store_true", help="fit the sampler even with epochs=0")
    t.set_defaults(func=cmd_train)

    s = sub.add_parser("sample", help="generate trajectories from a trained archive")
    s.add_argument("--model", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--index", type=int, default=0,
                   help="trajectory supplying the time grid and, except in neighborhood mode, the initial state")
    s.add_argument("--mode", choices=("gmm", "prior", "transfer", "neighborhood"), default="gmm")
    s.add_argument("--exemplar", type=int, default=None)
    s.add_argument("--delta", type=float, default=None)
    s.add_argument("--n", type=int, default=10)
    s.add_argument("--max-attempts", type=int)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--grid-points", type=int, default=None, help="uniform grid instead of source times")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_sample, max_attempts=_defaults(inference.neighborhood_sample)["max_attempts"])

    o = sub.add_parser("ood", help="likelihood-threshold outlier test")
    o.add_argument("--model", required=True)
    o.add_argument("--train-data", required=True)
    o.add_argument("--test-data", required=True)
    o.add_argument("--quantile", type=float)
    o.add_argument("--n-gamma", type=int)
    o.add_argument("--seed", type=int)
    o.add_argument("--out", required=True)
    o.set_defaults(func=cmd_ood, **_defaults(inference.ood_calibrate))

    e = sub.add_parser("eval", help="interpolation/extrapolation MSE table")
    e.add_argument("--model", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--observe-fraction", type=float, default=0.5)
    e.add_argument("--samples", type=int, default=1)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_eval)

    p = sub.add_parser("plot", help="render a trajectories CSV (and optional band) as SVG")
    p.add_argument("--traj", required=True)
    p.add_argument("--band", default=None)
    p.add_argument("--title", default="")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        # finite checks and IntegrationBlowUp catch every non-finite value; numpy's warnings repeat them
        with np.errstate(all="ignore"):
            return args.func(args)
    except ValueError as e:  # ValidationError, ArchiveError and DatasetFormatError among them
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (IntegrationBlowUp, NonFiniteValue, RuntimeError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
