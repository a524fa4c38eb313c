"""Versioned JSON archive for trained models and their mixture sampler.

The archive is one JSON document.  Since format version 2 each array is
stored as ``{"shape": [...], "f8": <base64 of its little-endian float64 bytes
in C order>}``, which is bit-exact and decodes without parsing text.  Scalars
and network specs stay plain JSON (scalars as 17-significant-digit strings).
Version 1 archives, whose arrays hold a space-separated decimal string under
``"data"``, still load.  Loading checks the document's schema and every
parameter's shape against its spec; a format_version gate refuses archives
written by an incompatible layout.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
from typing import Sequence

import numpy as np

from .gmm import GMMModel
from .model import ELBOBreakdown, FNODEModel
from .nets import MLP, Hypernetwork, MLPSpec
from .odeint import SolverConfig
from .syndata import fmt_float, write_text_atomic
from .tensorgrad import NonFiniteValue, ParamSet, Tensor

__all__ = [
    "FORMAT_VERSION",
    "ArchiveError",
    "save_archive",
    "load_archive",
]

FORMAT_VERSION = 2
READABLE_VERSIONS = (1, 2)


class ArchiveError(ValueError):
    """Unreadable, malformed or version-incompatible model archive."""


def _encode_array(arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype="<f8")
    return {"shape": list(arr.shape), "f8": base64.b64encode(arr.tobytes(order="C")).decode("ascii")}


def _decode_array(obj: dict, version: int) -> np.ndarray:
    shape = tuple(obj["shape"])
    if version == 1:
        flat = np.array([float(tok) for tok in obj["data"].split()], dtype=np.float64)
        return flat.reshape(shape)
    try:
        raw = base64.b64decode(obj["f8"], validate=True)
    except binascii.Error as e:
        raise ArchiveError(f"array payload is not valid base64 ({e})") from e
    n_bytes = 8 * math.prod(shape)
    if len(raw) != n_bytes:
        raise ArchiveError(f"array payload holds {len(raw)} bytes, shape {list(shape)} needs {n_bytes}")
    # astype copies, so the array is writable and in native byte order
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def _encode_spec(spec: MLPSpec) -> dict:
    return {"widths": list(spec.layer_widths), "final_activation": spec.final_activation}


def _decode_spec(obj: dict) -> MLPSpec:
    return MLPSpec(tuple(obj["widths"]), final_activation=obj["final_activation"])


def _encode_gmm(S: GMMModel | None) -> dict | None:
    if S is None:
        return None
    return {
        "cov_type": S.cov_type,
        "weights": _encode_array(S.weights),
        "means": _encode_array(S.means),
        "covariances": _encode_array(S.covariances),
    }


def _decode_gmm(obj: dict | None, version: int) -> GMMModel | None:
    if obj is None:
        return None
    return GMMModel(
        weights=_decode_array(obj["weights"], version),
        means=_decode_array(obj["means"], version),
        covariances=_decode_array(obj["covariances"], version),
        cov_type=obj["cov_type"],
    )


def _history_summary(history: Sequence[ELBOBreakdown] | None) -> dict | None:
    if not history:
        return None

    def rec(bd: ELBOBreakdown) -> dict:
        return {
            "total": bd.total,
            "recon_loglik": bd.recon_loglik,
            "kl_z0": bd.kl_z0,
            "kl_gamma": bd.kl_gamma,
            "kl_weight": bd.kl_weight,
        }

    return {"epochs": len(history), "first": rec(history[0]), "last": rec(history[-1])}


def save_archive(
    path,
    m: FNODEModel,
    S: GMMModel | None = None,
    history: Sequence[ELBOBreakdown] | None = None,
    seeds: dict | None = None,
) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "model": {
            "obs_dim": m.obs_dim,
            "n_points": m.n_points,
            "p": m.p,
            "d_gamma": m.d_gamma,
            "sigma_x": fmt_float(m.sigma_x),
            "obs_scale": fmt_float(m.obs_scale),
            "solver": {"method": m.solver.method, "step_size": fmt_float(m.solver.step_size)},
            "specs": {
                "enc_z0": _encode_spec(m.enc_z0.spec),
                "enc_gamma": _encode_spec(m.enc_gamma.spec),
                "hyper_body": _encode_spec(m.hyper.body),
                "f": _encode_spec(m.f_spec),
                "dec": _encode_spec(m.dec.spec),
            },
            "params": {name: _encode_array(t.data) for name, t in m.params.items()},
        },
        "gmm": _encode_gmm(S),
        "history": _history_summary(history),
        "seeds": seeds or {},
    }
    write_text_atomic(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _param(raw: dict, name: str, shape: tuple, version: int) -> Tensor:
    arr = _decode_array(raw[name], version)
    if arr.shape != shape:
        raise ArchiveError(f"parameter {name} has shape {list(arr.shape)}, its spec needs {list(shape)}")
    return Tensor(arr)


def _mlp_params_from(spec: MLPSpec, raw: dict, prefix: str, version: int) -> ParamSet:
    # rebuild in canonical layer order; files store keys sorted alphabetically
    ps = ParamSet()
    ws = spec.layer_widths
    for i, (n_in, n_out) in enumerate(zip(ws[:-1], ws[1:])):
        ps.add(f"w{i}", _param(raw, prefix + f"w{i}", (n_out, n_in), version))
        ps.add(f"b{i}", _param(raw, prefix + f"b{i}", (n_out,), version))
    return ps


def load_archive(path):
    """Rebuild (model, gmm_or_None, seeds) from a saved archive.

    Any archive this cannot rebuild, including one with missing keys, bad
    payloads or parameter shapes that disagree with the specs, raises
    :class:`ArchiveError`.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as e:
        raise ArchiveError(f"{path}: unreadable archive ({e})") from e
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version not in READABLE_VERSIONS:
        raise ArchiveError(
            f"{path}: format_version {version!r} is not supported (expected one of {READABLE_VERSIONS})"
        )
    try:
        return _rebuild(doc, version)
    except KeyError as e:
        raise ArchiveError(f"{path}: archive is missing key {e}") from e
    except (TypeError, ValueError, AttributeError, NonFiniteValue) as e:
        raise ArchiveError(f"{path}: malformed archive ({e})") from e


def _rebuild(doc: dict, version: int):
    md = doc["model"]
    specs = md["specs"]
    raw_params = md["params"]

    enc_z0_spec = _decode_spec(specs["enc_z0"])
    enc_gamma_spec = _decode_spec(specs["enc_gamma"])
    hyper_spec = _decode_spec(specs["hyper_body"])
    dec_spec = _decode_spec(specs["dec"])

    enc_z0 = MLP(enc_z0_spec, _mlp_params_from(enc_z0_spec, raw_params, "enc_z0.", version))
    enc_gamma = MLP(enc_gamma_spec, _mlp_params_from(enc_gamma_spec, raw_params, "enc_gamma.", version))
    hyper_params = _mlp_params_from(hyper_spec, raw_params, "hyper.", version)
    hyper_params.add("lambda", _param(raw_params, "hyper.lambda", (), version))
    hyper = Hypernetwork(hyper_spec, hyper_params)
    dec = MLP(dec_spec, _mlp_params_from(dec_spec, raw_params, "dec.", version))

    m = FNODEModel(
        enc_z0=enc_z0,
        enc_gamma=enc_gamma,
        hyper=hyper,
        f_spec=_decode_spec(specs["f"]),
        dec=dec,
        solver=SolverConfig(
            method=md["solver"]["method"], step_size=float(md["solver"]["step_size"])
        ),
        sigma_x=float(md["sigma_x"]),
        p=int(md["p"]),
        d_gamma=int(md["d_gamma"]),
        obs_dim=int(md["obs_dim"]),
        n_points=int(md["n_points"]),
        obs_scale=float(md["obs_scale"]),
    )
    S = _decode_gmm(doc.get("gmm"), version)
    if S is not None and S.d not in (m.d_gamma, m.p + m.d_gamma):
        raise ArchiveError(
            f"sampler has width {S.d}, the model needs {m.d_gamma} (code) or {m.p + m.d_gamma} (z0 and code)"
        )
    return m, S, doc.get("seeds", {})
