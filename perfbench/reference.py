"""Plain-numpy reference of the forward model, for the train and infer checks.

Written from the model's definition, not from its code: it imports nothing
from ``fnode``.  Weights come in as a dict of arrays keyed like the model's
parameter set (``enc_z0.w0``, ``hyper.lambda``, ...), each weight matrix laid
out [out, in].

  features   (t_1, x_1 / s, t_2, x_2 / s, ...) for a trajectory
  encoders   MLPs with tanh between layers; output = (mean, log-variance)
  draws      mean + exp(log_var / 2) * noise
  hyper      theta = lambda * tanh(body(gamma)), body ending in tanh
  field      f([z, t]) with weights sliced from theta layer by layer:
             [out, in] matrix row-major, then bias
  RK4        full steps of size h over each gap, then one shortened step
  decoder    MLP applied to every state, initial state included
  loglik     sum of log N(x | decoded, sigma_x^2) with its normaliser
  KL         closed form of KL(N(mu, diag exp(lv)) || N(0, I))
"""

from __future__ import annotations

import math

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)


def layers(weights: dict, prefix: str) -> list[tuple[np.ndarray, np.ndarray]]:
    out = []
    i = 0
    while f"{prefix}w{i}" in weights:
        out.append((weights[f"{prefix}w{i}"], weights[f"{prefix}b{i}"]))
        i += 1
    return out


def mlp(net, x, final_tanh: bool = False) -> np.ndarray:
    h = x
    for i, (w, b) in enumerate(net):
        h = h @ w.T + b
        if i < len(net) - 1 or final_tanh:
            h = np.tanh(h)
    return h


def features(times, values, obs_scale: float) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64).reshape(len(times), -1)
    return np.concatenate([np.asarray(times, dtype=np.float64)[:, None], values / obs_scale], axis=1).reshape(-1)


def encode(weights, which: str, times, values, obs_scale: float):
    out = mlp(layers(weights, which + "."), features(times, values, obs_scale))
    d = out.shape[-1] // 2
    return out[:d], out[d:]


def hyper(weights, gamma) -> np.ndarray:
    body = mlp(layers(weights, "hyper."), gamma, final_tanh=True)
    return float(weights["hyper.lambda"]) * body


def field_layers(theta, widths) -> list[tuple[np.ndarray, np.ndarray]]:
    out = []
    pos = 0
    for n_in, n_out in zip(widths[:-1], widths[1:]):
        w = theta[pos : pos + n_in * n_out].reshape(n_out, n_in)
        pos += n_in * n_out
        out.append((w, theta[pos : pos + n_out]))
        pos += n_out
    if pos != theta.size:
        raise ValueError(f"theta has {theta.size} entries, the field needs {pos}")
    return out


def rk4_path(net, z0, times, h: float) -> np.ndarray:
    """States at every time of ``times`` (times[0] is the time of z0)."""

    def f(z, t):
        return mlp(net, np.concatenate([z, [t]]))

    def step(z, t, dt):
        k1 = f(z, t)
        k2 = f(z + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = f(z + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = f(z + dt * k3, t + dt)
        return z + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    states = [np.asarray(z0, dtype=np.float64)]
    z = states[0]
    for t_lo, t_hi in zip(times[:-1], times[1:]):
        gap = t_hi - t_lo
        n_full = math.floor(gap / h + 1e-12)
        for s in range(n_full):
            z = step(z, t_lo + s * h, h)
        rem = gap - n_full * h
        if rem > 1e-12:
            z = step(z, t_lo + n_full * h, rem)
        states.append(z)
    return np.stack(states)


def rollout(weights, f_widths, step_size: float, z0, gamma, times) -> np.ndarray:
    """Decoded path [T, obs_dim] of one (z0, gamma) pair from times[0] onwards."""
    net = field_layers(hyper(weights, gamma), f_widths)
    return mlp(layers(weights, "dec."), rk4_path(net, z0, np.asarray(times, dtype=np.float64), step_size))


def kl(mean, log_var) -> float:
    return 0.5 * float(np.sum(np.exp(log_var) + mean**2 - log_var - 1.0))


def elbo(weights, f_widths, step_size, sigma_x, obs_scale, times, values, noises, kl_weight):
    """(total, recon_loglik, kl_z0, kl_gamma) of one trajectory.

    ``noises`` holds one (z0 noise, gamma noise) pair per Monte-Carlo draw; the
    reconstruction term is their mean.
    """
    values = np.asarray(values, dtype=np.float64).reshape(len(times), -1)
    mu_z, lv_z = encode(weights, "enc_z0", times, values, obs_scale)
    mu_g, lv_g = encode(weights, "enc_gamma", times, values, obs_scale)
    log_norm = -(math.log(sigma_x) + 0.5 * LOG_2PI) * values.size
    recon = 0.0
    for nz, ng in noises:
        z0 = mu_z + np.exp(0.5 * lv_z) * nz
        gamma = mu_g + np.exp(0.5 * lv_g) * ng
        path = rollout(weights, f_widths, step_size, z0, gamma, times)
        recon += -float(np.sum((path - values) ** 2)) / (2.0 * sigma_x**2) + log_norm
    recon /= len(noises)
    kl_z, kl_g = kl(mu_z, lv_z), kl(mu_g, lv_g)
    return recon - kl_weight * (kl_z + kl_g), recon, kl_z, kl_g


def close(a, b, rel: float = 1e-9) -> bool:
    """|a - b| <= rel * max|b| elementwise, with both arrays finite."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        return False
    scale = max(float(np.max(np.abs(b))), 1e-300) if b.size else 1.0
    return bool(np.all(np.abs(a - b) <= rel * scale))
