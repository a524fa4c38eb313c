"""Network building blocks.

Every network runs on a batch: inputs are [batch, in_width] matrices, weights
come from a dict of named tensors and each layer is one ``tg.dense`` node
(:func:`mlp_forward`).  :func:`param_shapes` is the one naming rule for those
tensors: layer ``i`` holds ``w{i}`` [out, in] and ``b{i}`` [out], in layer
order, and the hypernetwork adds the scalar ``lambda``.  The hypernetwork's
output is the flat weight vector of the transition network, one row per code;
``model.make_batch_field`` slices those rows into per-row layers, so the
transition network's weights are data that gradients flow through.  Training
tapes :func:`encode_features`; ``inference.posterior`` is the one untaped
encoder, which gives the posterior of a latent row (z0 | code).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensorgrad as tg
from .tensorgrad import Tensor

__all__ = [
    "MLPSpec",
    "MLP",
    "GaussianParams",
    "Hypernetwork",
    "weight_count",
    "param_shapes",
    "init_mlp_params",
    "mlp_forward",
    "init_hypernetwork",
    "hypernet_map",
    "trajectory_features",
    "batch_features",
    "encode_features",
]


@dataclass(frozen=True)
class MLPSpec:
    """Fully connected architecture: layer widths and the final activation.

    ``layer_widths[0]`` is the input width; tanh is applied between layers and,
    with ``final_activation="tanh"``, after the last one.
    """

    layer_widths: tuple[int, ...]
    final_activation: str = "none"

    def __post_init__(self):
        widths = tuple(int(w) for w in self.layer_widths)
        object.__setattr__(self, "layer_widths", widths)
        if len(widths) < 2 or any(w <= 0 for w in widths):
            raise ValueError(f"bad layer widths {widths}")
        if self.final_activation not in ("none", "tanh"):
            raise ValueError(f"unsupported final activation {self.final_activation!r}")

    @property
    def n_layers(self) -> int:
        return len(self.layer_widths) - 1

    @property
    def in_width(self) -> int:
        return self.layer_widths[0]

    @property
    def out_width(self) -> int:
        return self.layer_widths[-1]


def param_shapes(spec: MLPSpec) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every layer parameter, in layer order: w0 [out, in], b0 [out], w1, b1, ..."""
    shapes = {}
    ws = spec.layer_widths
    for i, (n_in, n_out) in enumerate(zip(ws[:-1], ws[1:])):
        shapes[f"w{i}"] = (n_out, n_in)
        shapes[f"b{i}"] = (n_out,)
    return shapes


def weight_count(spec: MLPSpec) -> int:
    """Total parameter count: sum over layers of in*out + out."""
    return sum(math.prod(shape) for shape in param_shapes(spec).values())


def init_mlp_params(spec: MLPSpec, rng: np.random.Generator) -> dict[str, Tensor]:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per layer, drawn in :func:`param_shapes` order."""
    params = {}
    for name, shape in param_shapes(spec).items():
        if len(shape) == 2:  # a layer's weight comes before its bias and sets the bound of both
            bound = 1.0 / np.sqrt(shape[1])
        params[name] = Tensor(rng.uniform(-bound, bound, size=shape))
    return params


def mlp_forward(spec: MLPSpec, params: dict[str, Tensor], x: Tensor) -> Tensor:
    """Forward pass of a [batch, in_width] input with the parameters :func:`param_shapes` names,
    one ``tg.dense`` node per layer; a ``lambda`` entry scales the output layer."""
    if x.data.ndim != 2 or x.data.shape[1] != spec.in_width:
        raise tg.ShapeMismatch(f"input shape {x.shape} is not [batch, {spec.in_width}]")
    names = iter(param_shapes(spec))
    h, last = x, spec.n_layers - 1
    for i, (w, b) in enumerate(zip(names, names)):
        tanh_out = i < last or spec.final_activation == "tanh"
        h = tg.dense(h, params[w], params[b], tanh_out, params.get("lambda") if i == last else None)
    return h


@dataclass
class MLP:
    """An architecture together with its (trainable) parameters."""

    spec: MLPSpec
    params: dict[str, Tensor]

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


@dataclass
class Hypernetwork:
    """Maps a dynamics code to the flat weights of the transition network.

    The body ends in tanh and the ``lambda`` entry of ``params``, a learned
    scalar, scales its output layer, so every produced weight is bounded by
    ``|lambda|`` no matter how large the code is.
    """

    body: MLPSpec
    params: dict[str, Tensor]  # body weights plus the scalar "lambda"


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
    params["lambda"] = Tensor(np.float64(lambda_init))
    return Hypernetwork(body, params)


def hypernet_map(h: Hypernetwork, gamma: Tensor) -> Tensor:
    """theta = lambda * tanh(body(gamma)) for a [batch, code_dim] block of codes, in one ``mlp_forward`` call."""
    return mlp_forward(h.body, h.params, gamma)


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


def batch_features(trajs, obs_scale: float = 1.0) -> np.ndarray:
    """[B, n_points * (1 + obs_dim)] encoder input, one row per equal-length trajectory."""
    return np.stack([trajectory_features(t.times, t.values, obs_scale) for t in trajs])


def encode_features(enc: MLP, feats: np.ndarray) -> GaussianParams:
    """Posterior moments from a [B, F] block of encoder features, one row per trajectory.

    The one encoder of the package, for the initial state and the dynamics code
    alike; training and ``inference.posterior`` call it on feature rows they
    stacked once.
    """
    out, d = enc(Tensor(feats)), enc.spec.out_width // 2
    return GaussianParams(tg.cols(out, 0, d), tg.cols(out, d, 2 * d))

