"""Network building blocks.

Every network runs on a batch: inputs are [batch, in_width] matrices and
weights come from a named parameter set (:func:`mlp_forward`).  The
hypernetwork's output is the flat weight vector of the transition network, one
row per code; ``model.make_batch_field`` slices those rows into per-row layers,
so the transition network's weights are data that gradients flow through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensorgrad as tg
from .tensorgrad import ParamSet, Tensor

__all__ = [
    "MLPSpec",
    "MLP",
    "GaussianParams",
    "Hypernetwork",
    "weight_count",
    "init_mlp_params",
    "mlp_forward",
    "init_hypernetwork",
    "hypernet_map",
    "trajectory_features",
    "split_gaussian",
    "encode_batch",
]


@dataclass(frozen=True)
class MLPSpec:
    """Fully connected architecture: layer widths plus activation choices.

    ``layer_widths[0]`` is the input width; tanh is applied between layers and
    optionally after the last one.
    """

    layer_widths: tuple[int, ...]
    activation: str = "tanh"
    final_activation: str = "none"

    def __post_init__(self):
        widths = tuple(int(w) for w in self.layer_widths)
        object.__setattr__(self, "layer_widths", widths)
        if len(widths) < 2 or any(w <= 0 for w in widths):
            raise ValueError(f"bad layer widths {widths}")
        if self.activation != "tanh" or self.final_activation not in ("none", "tanh"):
            raise ValueError("unsupported activation")

    @property
    def n_layers(self) -> int:
        return len(self.layer_widths) - 1

    @property
    def in_width(self) -> int:
        return self.layer_widths[0]

    @property
    def out_width(self) -> int:
        return self.layer_widths[-1]


def weight_count(spec: MLPSpec) -> int:
    """Total parameter count: sum over layers of in*out + out."""
    ws = spec.layer_widths
    return sum(i * o + o for i, o in zip(ws[:-1], ws[1:]))


def init_mlp_params(spec: MLPSpec, rng: np.random.Generator) -> ParamSet:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per layer."""
    params = ParamSet()
    ws = spec.layer_widths
    for layer, (n_in, n_out) in enumerate(zip(ws[:-1], ws[1:])):
        bound = 1.0 / np.sqrt(n_in)
        params.add(f"w{layer}", Tensor(rng.uniform(-bound, bound, size=(n_out, n_in))))
        params.add(f"b{layer}", Tensor(rng.uniform(-bound, bound, size=n_out)))
    return params


def mlp_forward(spec: MLPSpec, params: ParamSet, x: Tensor) -> Tensor:
    """Forward pass of a [batch, in_width] input with named parameters w0, b0, w1, b1, ..."""
    if x.data.ndim != 2 or x.data.shape[1] != spec.in_width:
        raise tg.ShapeMismatch(f"input shape {x.shape} is not [batch, {spec.in_width}]")
    h = x
    for i in range(spec.n_layers):
        # weights are [out, in]
        h = tg.broadcast_add(tg.matmul(h, tg.transpose(params[f"w{i}"])), params[f"b{i}"])
        if i < spec.n_layers - 1 or spec.final_activation == "tanh":
            h = tg.tanh(h)
    return h


@dataclass
class MLP:
    """An architecture together with its (trainable) parameters."""

    spec: MLPSpec
    params: ParamSet

    @classmethod
    def init(cls, widths: Sequence[int], rng: np.random.Generator, final_activation="none") -> "MLP":
        spec = MLPSpec(tuple(widths), final_activation=final_activation)
        return cls(spec, init_mlp_params(spec, rng))

    def __call__(self, x: Tensor) -> Tensor:
        return mlp_forward(self.spec, self.params, x)


@dataclass
class GaussianParams:
    """Diagonal Gaussian in (mean, log-variance) form."""

    mean: Tensor
    log_var: Tensor

    @property
    def dim(self) -> int:
        return self.mean.data.shape[-1]


@dataclass
class Hypernetwork:
    """Maps a dynamics code to the flat weights of the transition network.

    The body ends in tanh and the result is scaled by a learned scalar, so
    every produced weight is bounded by ``|lambda|`` no matter how large the
    code is.
    """

    body: MLPSpec
    params: ParamSet  # body weights plus the scalar "lambda"

    @property
    def lam(self) -> Tensor:
        return self.params["lambda"]


def init_hypernetwork(
    code_dim: int,
    target: MLPSpec,
    hidden: Sequence[int],
    rng: np.random.Generator,
    lambda_init: float = 0.1,
) -> Hypernetwork:
    body = MLPSpec((code_dim, *hidden, weight_count(target)), final_activation="tanh")
    params = init_mlp_params(body, rng)
    # Small initial scale keeps early ODE solves well inside the stable regime.
    params.add("lambda", Tensor(np.float64(lambda_init)))
    return Hypernetwork(body, params)


def hypernet_map(h: Hypernetwork, gamma: Tensor) -> Tensor:
    """theta = lambda * tanh(body(gamma)) for a [batch, code_dim] block of codes."""
    out = mlp_forward(h.body, h.params, gamma)
    return tg.scalar_mul(out, h.lam)


# -- encoders / decoder -------------------------------------------------------


def trajectory_features(times: np.ndarray, values: np.ndarray, obs_scale: float = 1.0) -> np.ndarray:
    """Interleaved (timestamp, scaled values) blocks, one per observation."""
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    if times.shape[0] != values.shape[0] or times.shape[0] < 1:
        raise ValueError("trajectory needs matching, non-empty times and values")
    blocks = np.concatenate([times[:, None], values / obs_scale], axis=1)
    return blocks.reshape(-1)


def split_gaussian(out: Tensor, d: int) -> GaussianParams:
    return GaussianParams(tg.cols(out, 0, d), tg.cols(out, d, 2 * d))


def encode_batch(enc: MLP, trajs, obs_scale: float = 1.0) -> GaussianParams:
    """Posterior moments for equal-length trajectories, one row per trajectory.

    The one encoder of the package, for the initial state and the dynamics code
    alike; a single trajectory is a batch of one.
    """
    feats = Tensor(
        np.stack([trajectory_features(t.times, t.values, obs_scale) for t in trajs])
    )
    out = enc(feats)
    return split_gaussian(out, enc.spec.out_width // 2)
