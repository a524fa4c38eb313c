"""The trainable trajectory model and its evidence-bound objective.

A trajectory is represented by two latent draws: an initial state ``z0`` and a
low-dimensional dynamics code ``gamma``.  The code is mapped by the
hypernetwork to the flat weights of the transition network, which drives a
fixed-step RK4 rollout over the trajectory's own timestamps; a shared decoder
maps latent states back to observation space.  Training maximizes the usual
Gaussian-likelihood evidence lower bound with a linear KL warm-up.

:func:`decode_path` is the one decode from (z0, field weights) to decoder
output, over a [B, T] grid of per-row times that the solver runs forward or
backward as each row goes: the training objective calls it on the taped
batch, and ``inference.rollout`` calls it, untaped, for every readout of a
trained model, once per leg of a grid that reaches both sides of its anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import tensorgrad as tg
from .nets import (
    MLP,
    GaussianParams,
    Hypernetwork,
    MLPSpec,
    batch_features,
    encode_features,
    hypernet_map,
    init_hypernetwork,
    param_shapes,
    weight_count,
)

from .odeint import IntegrationBlowUp, SolverConfig, integrate_batch
from .tensorgrad import Tensor

# The benchmark's solver probe rebinds ``model.integrate`` as well as
# ``model.integrate_batch``, so the old name stays bound to the one solver.
integrate = integrate_batch

__all__ = [
    "FNODEModel",
    "TrainConfig",
    "ELBOBreakdown",
    "TrainingDiverged",
    "reparameterize",
    "kl_gaussian",
    "kl_schedule",
    "elbo_loss",
    "fit",
    "decode_path",
    "Adam",
]

LOG_2PI = math.log(2.0 * math.pi)


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int, batch: int, detail: str = "non-finite loss"):
        super().__init__(f"training diverged at epoch {epoch}, batch {batch}: {detail}")
        self.epoch = epoch
        self.batch = batch


@dataclass
class TrainConfig:
    epochs: int = 200
    batch_size: int = 32
    learning_rate: float = 1e-3
    kl_anneal_epochs: int = 50
    seed: int = 0
    mc_samples: int = 1

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if min(self.batch_size, self.kl_anneal_epochs, self.mc_samples) < 1:
            raise ValueError("batch_size, kl_anneal_epochs, mc_samples must be positive")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate!r}")
        if self.epochs > 0 and self.kl_anneal_epochs > self.epochs:
            raise ValueError("kl_anneal_epochs must not exceed epochs")


@dataclass
class ELBOBreakdown:
    """Evidence-bound terms: total = recon_loglik - kl_weight*(kl_z0 + kl_gamma)."""

    total: float
    recon_loglik: float
    kl_z0: float
    kl_gamma: float
    kl_weight: float


@dataclass
class FNODEModel:
    """All trainable pieces plus solver and likelihood configuration.

    The sizes are derived from the components' specs: ``p`` is the field's
    output width, ``d_gamma`` the hypernetwork's input width, ``obs_dim`` the
    decoder's output width and ``n_points`` the encoders' input width over
    ``1 + obs_dim``; ``__post_init__`` checks that the specs agree on them.
    ``params`` is the parameter registry, built and checked only here: each
    component holds exactly the tensors ``nets.param_shapes`` names for its
    spec, in those shapes, and the hypernetwork its scalar ``lambda`` too.  It
    lists them under a component prefix (``enc_z0.``, ``enc_gamma.``,
    ``hyper.``, ``dec.``), in that order and in layer order, ``hyper.lambda``
    after its layers; Adam and the archive follow that order.  The components
    share those tensors, so in-place optimizer updates are visible everywhere.
    """

    enc_z0: MLP
    enc_gamma: MLP
    hyper: Hypernetwork
    f_spec: MLPSpec
    dec: MLP
    solver: SolverConfig
    sigma_x: float
    obs_scale: float
    params: dict[str, Tensor] = field(init=False)

    @property
    def p(self) -> int:
        return self.f_spec.out_width

    @property
    def d_gamma(self) -> int:
        return self.hyper.body.in_width

    @property
    def obs_dim(self) -> int:
        return self.dec.spec.out_width

    @property
    def n_points(self) -> int:
        return self.enc_z0.spec.in_width // (1 + self.obs_dim)

    def __post_init__(self):
        if self.hyper.body.out_width != weight_count(self.f_spec):
            raise ValueError("hypernetwork output width != transition weight count")
        if self.f_spec.in_width != self.p + 1:
            raise ValueError("transition net must map [p+1] -> [p]")
        widths = {
            "enc_z0 output": (self.enc_z0.spec.out_width, 2 * self.p),
            "enc_gamma output": (self.enc_gamma.spec.out_width, 2 * self.d_gamma),
            "decoder input": (self.dec.spec.in_width, self.p),
            "enc_gamma input": (self.enc_gamma.spec.in_width, self.enc_z0.spec.in_width),
        }
        for what, (got, want) in widths.items():
            if got != want:
                raise ValueError(f"{what} width is {got}, the other specs need {want}")
        if self.enc_z0.spec.in_width % (1 + self.obs_dim):
            raise ValueError(
                f"encoder input width {self.enc_z0.spec.in_width} is not a multiple of 1 + obs_dim = {1 + self.obs_dim}"
            )
        # the likelihood divides by 2 sigma_x^2, which must neither overflow nor round to zero
        if not (math.isfinite(self.sigma_x) and 1e-150 <= self.sigma_x <= 1e150):
            raise ValueError(f"sigma_x must lie in [1e-150, 1e150], got {self.sigma_x!r}")
        if not (math.isfinite(self.obs_scale) and self.obs_scale > 0):
            raise ValueError(f"obs_scale must be finite and positive, got {self.obs_scale!r}")
        parts = (
            ("enc_z0", self.enc_z0.params, param_shapes(self.enc_z0.spec)),
            ("enc_gamma", self.enc_gamma.params, param_shapes(self.enc_gamma.spec)),
            ("hyper", self.hyper.params, {**param_shapes(self.hyper.body), "lambda": ()}),
            ("dec", self.dec.params, param_shapes(self.dec.spec)),
        )
        self.params = {}
        for prefix, params, shapes in parts:
            odd = sorted(params.keys() ^ shapes.keys())
            if odd:
                what = "is missing" if odd[0] in shapes else "is not one its spec names"
                raise ValueError(f"parameter {prefix}.{odd[0]} {what}")
            for name, shape in shapes.items():
                if params[name].data.shape != shape:
                    got = list(params[name].data.shape)
                    raise ValueError(f"parameter {prefix}.{name} has shape {got}, its spec needs {list(shape)}")
                self.params[f"{prefix}.{name}"] = params[name]

    @classmethod
    def build(
        cls,
        obs_dim: int,
        n_points: int,
        p: int = 8,
        d_gamma: int = 16,
        f_hidden: Sequence[int] = (100, 100),
        enc_hidden: Sequence[int] = (64, 64),
        dec_hidden: Sequence[int] = (64, 64),
        hyper_hidden: Sequence[int] = (128, 128),
        step_size: float = 0.1,
        sigma_x: float = 0.05,
        obs_scale: float = 1.0,
        lambda_init: float = 0.1,
        seed: int = 0,
    ) -> "FNODEModel":
        if not math.isfinite(lambda_init):
            raise ValueError(f"lambda_init must be finite, got {lambda_init!r}")
        rng = np.random.default_rng(seed)
        feat = n_points * (1 + obs_dim)
        enc_z0 = MLP.init((feat, *enc_hidden, 2 * p), rng)
        enc_gamma = MLP.init((feat, *enc_hidden, 2 * d_gamma), rng)
        f_spec = MLPSpec((p + 1, *f_hidden, p))
        hyper = init_hypernetwork(d_gamma, f_spec, hyper_hidden, rng, lambda_init)
        dec = MLP.init((p, *dec_hidden, obs_dim), rng)
        return cls(
            enc_z0=enc_z0,
            enc_gamma=enc_gamma,
            hyper=hyper,
            f_spec=f_spec,
            dec=dec,
            solver=SolverConfig(step_size=step_size),
            sigma_x=sigma_x,
            obs_scale=obs_scale,
        )


# -- elementary pieces ---------------------------------------------------------


def reparameterize(g: GaussianParams, noise: Tensor) -> Tensor:
    """mean + exp(log_var / 2) * noise, differentiable through both moments."""
    return tg.mul(tg.exp(tg.scale(g.log_var, 0.5)), noise) + g.mean


def _kl_term(mean: Tensor, log_var: Tensor) -> Tensor:
    # Closed-form KL(N(mu, diag(exp(lv))) || N(0, I)), summed over all entries.
    inner = tg.exp(log_var) + tg.square(mean) - log_var - 1.0
    return tg.scale(tg.tensor_sum(inner), 0.5)


def kl_gaussian(q: GaussianParams) -> float:
    """KL divergence of a diagonal Gaussian from the standard-normal prior."""
    return _kl_term(q.mean, q.log_var).item()


def kl_schedule(epoch: int, cfg: TrainConfig) -> float:
    """Linear ramp from 0 to 1 over the first ``kl_anneal_epochs`` epochs."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return min(1.0, (epoch + 1) / cfg.kl_anneal_epochs)


# -- forward / objective ---------------------------------------------------------


def make_batch_field(f_spec: MLPSpec, theta_all: Tensor):
    """Batched vector field with per-row weight vectors ([B, weight_count]).

    Each call is one fused ``rowwise_mlp`` node over [Z | t]; the per-layer
    slices of the weight block are taken once and reused by every call.
    """
    expected = weight_count(f_spec)
    if theta_all.data.ndim != 2 or theta_all.data.shape[1] != expected:
        raise tg.ShapeMismatch(f"weight block has shape {theta_all.shape}, spec needs [B, {expected}]")
    layers = []
    pos = 0
    ws = f_spec.layer_widths
    for i, (n_in, n_out) in enumerate(zip(ws[:-1], ws[1:])):
        wf = tg.cols(theta_all, pos, pos + n_in * n_out)
        pos += n_in * n_out
        bf = tg.cols(theta_all, pos, pos + n_out)
        pos += n_out
        layers.append((wf, bf, n_in, n_out, i < f_spec.n_layers - 1 or f_spec.final_activation == "tanh"))

    def fld(Z: Tensor, t_row: np.ndarray) -> Tensor:
        return tg.rowwise_mlp(Z, t_row, layers)

    return fld


def _pack_batch(m: FNODEModel, trajs):
    feats = batch_features(trajs, m.obs_scale)
    times = np.stack([np.asarray(t.times, dtype=np.float64) for t in trajs])
    targets = np.stack(
        [np.asarray(t.values, dtype=np.float64).reshape(-1, m.obs_dim) for t in trajs]
    )
    return feats, times, targets


def _elbo_core(m: FNODEModel, feats, times, targets, kl_weight: float, noises):
    """Scalar mean-ELBO tensor over a packed batch, plus its float breakdown.

    ``feats`` is [B, F] encoder input, ``times`` [B, T], ``targets``
    [B, T, obs_dim]; ``noises`` is one (noise_z0, noise_gamma) tensor pair per
    Monte-Carlo draw.
    """
    B, T = times.shape
    q_z0 = encode_features(m.enc_z0, feats)
    q_gamma = encode_features(m.enc_gamma, feats)

    # time-major targets to match the concatenated solver states
    targets_tm = Tensor(np.concatenate([targets[:, j, :] for j in range(T)]), _op="const")
    log_norm = -(math.log(m.sigma_x) + 0.5 * LOG_2PI) * targets_tm.data.size

    recon_draws = []
    for nz, ng in noises:
        z0_all = reparameterize(q_z0, nz)
        gamma_all = reparameterize(q_gamma, ng)
        theta_all = hypernet_map(m.hyper, gamma_all)
        recon = decode_path(m, z0_all, theta_all, times)
        sq = tg.tensor_sum(tg.square(recon - targets_tm))
        recon_draws.append(tg.scale(sq, -1.0 / (2.0 * m.sigma_x**2)) + log_norm)

    recon_ll = recon_draws[0]
    for extra in recon_draws[1:]:
        recon_ll = recon_ll + extra
    if len(recon_draws) > 1:
        recon_ll = tg.scale(recon_ll, 1.0 / len(recon_draws))

    kl_z0 = _kl_term(q_z0.mean, q_z0.log_var)
    kl_gamma = _kl_term(q_gamma.mean, q_gamma.log_var)
    kl_sum = kl_z0 + kl_gamma

    total = recon_ll - tg.scale(kl_sum, kl_weight)
    mean_total = tg.scale(total, 1.0 / B)
    breakdown = ELBOBreakdown(
        total=mean_total.item(),
        recon_loglik=recon_ll.item() / B,
        kl_z0=kl_z0.item() / B,
        kl_gamma=kl_gamma.item() / B,
        kl_weight=kl_weight,
    )
    return mean_total, breakdown


def elbo_loss(m: FNODEModel, x, cfg: TrainConfig, kl_weight: float) -> ELBOBreakdown:
    """Monte-Carlo ELBO estimate for one trajectory (loss to minimize is -total)."""
    if not 0.0 <= kl_weight <= 1.0:
        raise ValueError("kl_weight must lie in [0, 1]")
    rng = np.random.default_rng(cfg.seed)
    noises = [
        (
            Tensor(rng.standard_normal((1, m.p))),
            Tensor(rng.standard_normal((1, m.d_gamma))),
        )
        for _ in range(cfg.mc_samples)
    ]
    return _elbo_core(m, *_pack_batch(m, [x]), kl_weight, noises)[1]


# -- optimizer -------------------------------------------------------------------


class Adam:
    """Adaptive-moment estimation with bias correction; updates are in place.

    A step walks each parameter in flat blocks of ``BLOCK`` entries, so the
    block's slices of the parameter, gradient, moments and one reused scratch
    buffer (1.25 MB together) stay in a core's L2 cache.  The update is
    elementwise, so blocking changes no bit of the result.
    """

    BLOCK = 32768

    def __init__(self, params: dict[str, Tensor], lr: float, betas=(0.9, 0.999), eps: float = 1e-8):
        if not all(t.data.flags.c_contiguous for t in params.values()):
            raise ValueError("Adam updates parameters through flat views and needs C-contiguous arrays")
        self.params = params
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self._m = {name: np.zeros(t.data.size) for name, t in params.items()}
        self._v = {name: np.zeros(t.data.size) for name, t in params.items()}
        self._s = np.empty(self.BLOCK)

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - self.b1**self.t
        c2 = 1.0 - self.b2**self.t
        for name, t in self.params.items():
            if t.grad is None:
                continue
            data, grad = t.data.reshape(-1), t.grad.reshape(-1)
            for lo in range(0, data.size, self.BLOCK):
                blk = slice(lo, lo + self.BLOCK)
                m, v, g = self._m[name][blk], self._v[name][blk], grad[blk]
                s = self._s[: m.size]
                m *= self.b1
                np.multiply(g, 1.0 - self.b1, out=s)
                m += s
                v *= self.b2
                np.multiply(g, g, out=s)
                s *= 1.0 - self.b2
                v += s
                np.divide(v, c2, out=s)
                np.sqrt(s, out=s)
                s += self.eps
                np.divide(m, s, out=s)
                s *= self.lr / c1
                data[blk] -= s


# -- training ---------------------------------------------------------------------


def fit(m: FNODEModel, data, cfg: TrainConfig, on_epoch=None):
    """Mini-batch ELBO maximization; returns the model and per-epoch history.

    Deterministic given ``cfg.seed``: shuffling and every reparameterization
    draw come from one generator consumed in a fixed order.  ``on_epoch`` is
    called as ``on_epoch(epoch, breakdown)`` after each epoch, letting callers
    keep a partial log if training aborts.  A non-finite loss or gradient
    raises :class:`TrainingDiverged` before the optimizer touches the
    parameters.  One batch's graph is alive at a time: the parameter gradients
    are cleared before each batch's forward pass, and ``backward`` frees the
    graph as it walks it.
    """
    trajs = data.trajectories
    if not trajs:
        raise ValueError("dataset is empty")
    if any(t.values.shape[1] != m.obs_dim or len(t.times) != m.n_points for t in trajs):
        raise ValueError("every trajectory must match the model's obs_dim and point count")
    feats, times, targets = _pack_batch(m, trajs)

    rng = np.random.default_rng(cfg.seed)
    opt = Adam(m.params, cfg.learning_rate)
    history: list[ELBOBreakdown] = []
    n = len(trajs)

    with tg.finite_checks(False):
        for epoch in range(cfg.epochs):
            w = kl_schedule(epoch, cfg)
            order = rng.permutation(n)
            sums = np.zeros(4)
            for bi, lo in enumerate(range(0, n, cfg.batch_size)):
                idx = order[lo : lo + cfg.batch_size]
                B = len(idx)
                noises = [
                    (
                        Tensor(rng.standard_normal((B, m.p))),
                        Tensor(rng.standard_normal((B, m.d_gamma))),
                    )
                    for _ in range(cfg.mc_samples)
                ]
                tg.zero_grads(m.params.values())
                try:
                    loss_t, bd = _elbo_core(m, feats[idx], times[idx], targets[idx], w, noises)
                except IntegrationBlowUp as e:
                    raise TrainingDiverged(epoch, bi, str(e)) from e
                if not math.isfinite(bd.total):
                    raise TrainingDiverged(epoch, bi)
                tg.backward(tg.neg(loss_t))
                # one reduction per parameter: a NaN or Inf anywhere makes the sum non-finite
                for name, t in m.params.items():
                    if t.grad is not None and not math.isfinite(float(np.sum(t.grad))):
                        detail = f"non-finite gradient in {name.split('.')[0]}"
                        raise TrainingDiverged(epoch, bi, detail)
                opt.step()
                sums += np.array([bd.total, bd.recon_loglik, bd.kl_z0, bd.kl_gamma]) * B
            avg = sums / n
            epoch_bd = ELBOBreakdown(avg[0], avg[1], avg[2], avg[3], w)
            history.append(epoch_bd)
            if on_epoch is not None:
                on_epoch(epoch, epoch_bd)
    return m, history


# -- decoding ---------------------------------------------------------------------------


def decode_path(m: FNODEModel, z0: Tensor, theta: Tensor, times) -> Tensor:
    """Decode a batch of rollouts at every time of a [B, T] grid of per-row times.

    ``z0`` is [B, p] and ``theta`` the [B, weight_count] field weights; row b
    starts from ``z0[b]`` at its first time ``times[b, 0]`` and runs through
    its row of ``times``, forward or backward in time as the row increases or
    decreases (see :func:`odeint.integrate_batch`).  The result is the
    [T * B, obs_dim] decoder output in time-major order: row ``i * B + b`` is
    rollout b at its i-th time.
    """
    return m.dec(tg.concat(integrate_batch(make_batch_field(m.f_spec, theta), z0, times, m.solver)))
