"""Synthetic panel datasets and dataset file I/O.

Set A draws per-class amplitudes and observes ``A * sin(2*pi*t)`` at random
times; set B keeps unit amplitude and draws per-class frequencies instead,
``sin(2*pi*B*t)``.  Both share the initial value x(0) = 0, so any separation a
model finds must come from the dynamics, not the starting point.

Files are JSON lines: a header record with dataset-level facts followed by one
record per trajectory.  Floats are written with 17 significant digits, which
round-trips float64 exactly.  :func:`write_bytes_atomic` writes every file the
package produces: a temp file in the target directory, then a rename.
"""

from __future__ import annotations

import json
import os
import secrets
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

__all__ = [
    "Trajectory",
    "PanelDataset",
    "DatasetFormatError",
    "generate_set_a",
    "generate_set_b",
    "save_dataset",
    "load_dataset",
    "fmt_float",
    "write_bytes_atomic",
    "write_text_atomic",
]

NOISE_VARIANCE = 1e-3


class DatasetFormatError(ValueError):
    """Malformed dataset file; message carries the offending line number."""


@dataclass
class Trajectory:
    """Observed temporal sample: strictly increasing times, one value row each."""

    times: np.ndarray
    values: np.ndarray
    label: int | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim == 1:
            v = v[:, None]
        if t.ndim != 1 or v.ndim != 2 or t.shape[0] < 1 or v.shape[0] != t.shape[0]:
            raise ValueError("times/values must be non-empty and aligned: [T] times, [T] or [T, d] values")
        if not np.all(t[1:] > t[:-1]):
            raise ValueError("times must be strictly increasing")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("times/values must be finite")
        self.times = t
        self.values = v

    @property
    def obs_dim(self) -> int:
        return self.values.shape[1]

    def __len__(self) -> int:
        return self.times.shape[0]


@dataclass
class PanelDataset:
    trajectories: list[Trajectory]
    obs_dim: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.trajectories:
            raise ValueError("dataset must hold at least one trajectory")
        if any(t.obs_dim != self.obs_dim for t in self.trajectories):
            raise ValueError("all trajectories must share obs_dim")

    def __len__(self) -> int:
        return len(self.trajectories)

    def labels(self) -> list[int | None]:
        return [t.label for t in self.trajectories]


def _generate(
    kind: str,
    n_per_class: int,
    n_classes: int,
    n_points: int,
    t_max: float,
    seed: int,
    noise: str,
) -> PanelDataset:
    if min(n_per_class, n_classes, n_points) < 1:
        raise ValueError("counts must be positive")
    if not 0 < t_max < np.inf:
        raise ValueError(f"t_max must be finite and positive, got {t_max!r}")
    if noise not in ("per_trajectory", "per_point", "none"):
        raise ValueError(f"unknown noise mode {noise!r}")
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(0.0, 10.0, size=n_classes)
    noise_std = np.sqrt(NOISE_VARIANCE)

    trajs = []
    for cls in range(n_classes):
        c = coeffs[cls]
        for _ in range(n_per_class):
            times = np.sort(rng.uniform(0.0, t_max, size=n_points))
            if kind == "set_a":
                x = c * np.sin(2.0 * np.pi * times)
            else:
                x = np.sin(2.0 * np.pi * c * times)
            if noise == "per_trajectory":
                x = x + noise_std * rng.standard_normal()
            elif noise == "per_point":
                x = x + noise_std * rng.standard_normal(n_points)
            trajs.append(Trajectory(times, x[:, None], label=cls))

    meta = {
        "generator": kind,
        "seed": seed,
        "n_per_class": n_per_class,
        "n_classes": n_classes,
        "n_points": n_points,
        "t_max": t_max,
        "noise": noise,
        "noise_variance": 0.0 if noise == "none" else NOISE_VARIANCE,
        ("amplitudes" if kind == "set_a" else "frequencies"): coeffs.tolist(),
    }
    return PanelDataset(trajs, obs_dim=1, metadata=meta)


def generate_set_a(
    n_per_class: int = 100,
    n_classes: int = 10,
    n_points: int = 10,
    t_max: float = 1.5,
    seed: int = 0,
    noise: str = "per_trajectory",
) -> PanelDataset:
    """Amplitude panel: x(t) = A_c * sin(2*pi*t) + eps, A_c ~ Unif(0, 10)."""
    return _generate("set_a", n_per_class, n_classes, n_points, t_max, seed, noise)


def generate_set_b(
    n_per_class: int = 100,
    n_classes: int = 10,
    n_points: int = 10,
    t_max: float = 1.5,
    seed: int = 0,
    noise: str = "per_trajectory",
) -> PanelDataset:
    """Frequency panel: x(t) = sin(2*pi*B_c*t) + eps, B_c ~ Unif(0, 10)."""
    return _generate("set_b", n_per_class, n_classes, n_points, t_max, seed, noise)


# -- file format ------------------------------------------------------------------


def fmt_float(x: float) -> str:
    """Decimal encoding with 17 significant digits (exact for float64)."""
    return format(float(x), ".17g")


def _fmt_list(xs: Iterable[float]) -> str:
    # JSON reads "-0" as the integer 0, which would drop the sign of a negative zero
    return "[" + ", ".join("-0.0" if s == "-0" else s for s in map(fmt_float, xs)) + "]"


def write_bytes_atomic(path, chunks) -> None:
    """Write a sequence of bytes-like blocks via a temp file in the target directory, then rename.

    No joined copy is made: each block goes from its own buffer.  The temp
    file is created with mode 0o666 less the umask, as ``open`` would create
    the target, so the rename leaves the usual permissions.
    """
    path = os.fspath(path)
    d, base = os.path.split(path)
    tmp = os.path.join(d, f".tmp-{secrets.token_hex(8)}-{base}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path, text: str) -> None:
    """:func:`write_bytes_atomic` of the text's UTF-8 encoding."""
    write_bytes_atomic(path, [text.encode("utf-8")])


def save_dataset(data: PanelDataset, path) -> None:
    lines = []
    header = {
        "record": "header",
        "obs_dim": data.obs_dim,
        "generator": data.metadata.get("generator", "unknown"),
        "seed": data.metadata.get("seed"),
        "n_trajectories": len(data),
        "metadata": data.metadata,
    }
    lines.append(json.dumps(header, sort_keys=True))
    for i, traj in enumerate(data.trajectories):
        label = "null" if traj.label is None else str(int(traj.label))
        values = "[" + ", ".join(_fmt_list(rowv) for rowv in traj.values) + "]"
        lines.append(
            f'{{"id": {i}, "label": {label}, "times": {_fmt_list(traj.times)}, '
            f'"values": {values}, "meta": {{}}}}'
        )
    write_text_atomic(path, "\n".join(lines) + "\n")


def load_dataset(path) -> PanelDataset:
    with open(path, "r", encoding="utf-8") as fh:
        raw_lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not raw_lines:
        raise DatasetFormatError(f"{path}: empty dataset file")

    def parse(line_no: int, text: str) -> dict:
        try:
            rec = json.loads(text)
        except json.JSONDecodeError as e:
            raise DatasetFormatError(f"{path}:{line_no}: invalid JSON ({e.msg})") from e
        except RecursionError as e:
            raise DatasetFormatError(f"{path}:{line_no}: record nested too deeply") from e
        if not isinstance(rec, dict):
            raise DatasetFormatError(f"{path}:{line_no}: record is not an object")
        return rec

    header = parse(1, raw_lines[0])
    if header.get("record") != "header" or "obs_dim" not in header:
        raise DatasetFormatError(f"{path}:1: missing header record")
    obs_dim = header["obs_dim"]
    if type(obs_dim) is not int:  # a JSON integer: not 1.5, "1" or true, which int() would take as 1
        raise DatasetFormatError(f"{path}:1: obs_dim {obs_dim!r} is not an integer")

    trajs = []
    for line_no, text in enumerate(raw_lines[1:], start=2):
        rec = parse(line_no, text)
        try:
            times = np.asarray(rec["times"], dtype=np.float64)
            values = np.asarray(rec["values"], dtype=np.float64)
            label = rec.get("label")
            if label is not None and type(label) is not int:  # bool is an int subclass, and not a label
                raise ValueError(f"label {label!r} is not an integer or null")
            traj = Trajectory(times, values, label)
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise DatasetFormatError(f"{path}:{line_no}: bad trajectory record ({e})") from e
        if traj.obs_dim != obs_dim:
            raise DatasetFormatError(
                f"{path}:{line_no}: obs_dim {traj.obs_dim} != header obs_dim {obs_dim}"
            )
        trajs.append(traj)
    if not trajs:
        raise DatasetFormatError(f"{path}: no trajectory records")
    return PanelDataset(trajs, obs_dim=obs_dim, metadata=header.get("metadata", {}))
