"""Versioned model archives: one JSON header line and a raw float64 payload.

Format 3 is the one format: :func:`save_archive` writes it and
:func:`load_archive` reads nothing else.  An archive is three parts::

    fnode-archive\n        the magic line
    {...}\n                the header: the archive document as one line of
                           compact JSON with sorted keys
    <payload>              the arrays' float64 blocks, end to end

The header holds the format version, the model's sizes, its scalars (as
17-significant-digit strings), the solver and network specs, a summary of the
training history, the seeds and the mixture sampler.  Each array in it is
``{"shape": [...], "offset": <byte offset>}``: its little-endian C-order block
of ``8 * prod(shape)`` bytes starts ``offset`` bytes into the payload.

:func:`load_archive` reads the magic and header lines, then the payload
straight into one float64 buffer.  Every array is a reshaped view of its own
block: writable, C-contiguous, aligned and in native byte order, and, as the
blocks tile the payload, sharing no entry with another array.  It checks the
header's schema and version; that the parameter set equals the registry the
specs give, with no name missing or extra and each shape as its spec needs
(``FNODEModel`` checks this, as it does for a model built in memory); the
header's sizes (``p``, ``d_gamma``, ``obs_dim``, ``n_points``) against the
ones the specs give; and the sampler's width and values.  The payload must
hold shape entries that are non-negative integers and offsets that are
non-negative multiples of 8, no block may run past the payload's end, and
the blocks must tile the payload exactly: no gap, no overlap, no trailing
byte.  A file without the magic line, an archive that fails any check, or
one whose header line is not JSON, raises :class:`ArchiveError`.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict
from typing import Sequence

import numpy as np

from .gmm import GMMModel
from .model import ELBOBreakdown, FNODEModel
from .nets import MLP, Hypernetwork, MLPSpec
from .odeint import SolverConfig
from .syndata import fmt_float, write_bytes_atomic
from .tensorgrad import Tensor

__all__ = [
    "FORMAT_VERSION",
    "ArchiveError",
    "save_archive",
    "load_archive",
]

FORMAT_VERSION = 3
MAGIC = b"fnode-archive\n"
SOLVER_METHOD = "rk4"  # the header names the one solver


class ArchiveError(ValueError):
    """Unreadable, malformed or version-incompatible model archive."""


def _shape(obj: dict) -> tuple:
    shape = obj["shape"]
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise ArchiveError(f"array shape {shape!r} is not a list of non-negative integers")
    return tuple(shape)


class _Payload:
    """The rest of an open file as float64 words: each block becomes a view, its span kept for checks."""

    def __init__(self, fh):
        # the checks count the file's bytes: ``fromfile`` drops a partial trailing word
        self.nbytes = os.fstat(fh.fileno()).st_size - fh.tell()
        # one read into one buffer; astype copies only on a big-endian host
        self.words = np.fromfile(fh, "<f8").astype(np.float64, copy=False)
        self.spans: list[tuple[int, int]] = []

    def array(self, obj: dict) -> np.ndarray:
        shape = _shape(obj)
        offset = obj["offset"]
        if type(offset) is not int or offset < 0 or offset % 8:
            raise ArchiveError(f"array offset {offset!r} is not a non-negative multiple of 8")
        count = math.prod(shape)
        if offset + 8 * count > self.nbytes:
            raise ArchiveError(
                f"array block of {8 * count} bytes at offset {offset} runs past the end of the "
                f"{self.nbytes}-byte payload"
            )
        self.spans.append((offset, 8 * count))
        return self.words[offset // 8 : offset // 8 + count].reshape(shape)

    def check_tiled(self) -> None:
        end = 0
        for offset, size in sorted(self.spans):
            if offset != end:
                kind = "overlap" if offset < end else "leave a gap"
                raise ArchiveError(f"array blocks {kind} at payload byte {min(offset, end)}")
            end += size
        if end != self.nbytes:
            raise ArchiveError(f"payload holds {self.nbytes - end} bytes after its last array block")


def _encode_spec(spec: MLPSpec) -> dict:
    return {"widths": list(spec.layer_widths), "final_activation": spec.final_activation}


def _decode_spec(obj: dict) -> MLPSpec:
    return MLPSpec(tuple(obj["widths"]), final_activation=obj["final_activation"])


_GMM_ARRAYS = ("weights", "means", "covariances")


def _encode_gmm(S: GMMModel | None, block) -> dict | None:
    if S is None:
        return None
    return {"cov_type": S.cov_type, **{key: block(getattr(S, key)) for key in _GMM_ARRAYS}}


def _history_summary(history: Sequence[ELBOBreakdown] | None) -> dict | None:
    if not history:
        return None
    return {"epochs": len(history), "first": asdict(history[0]), "last": asdict(history[-1])}


def save_archive(
    path,
    m: FNODEModel,
    S: GMMModel | None = None,
    history: Sequence[ELBOBreakdown] | None = None,
    seeds: dict | None = None,
) -> None:
    arrays: list[np.ndarray] = []

    def block(arr) -> dict:
        """Append ``arr`` to the payload; its header entry."""
        arrays.append(np.asarray(arr, dtype="<f8", order="C"))
        return {"shape": list(arrays[-1].shape), "offset": sum(a.nbytes for a in arrays[:-1])}

    doc = {
        "format_version": FORMAT_VERSION,
        "model": {
            "obs_dim": m.obs_dim,
            "n_points": m.n_points,
            "p": m.p,
            "d_gamma": m.d_gamma,
            "sigma_x": fmt_float(m.sigma_x),
            "obs_scale": fmt_float(m.obs_scale),
            "solver": {"method": SOLVER_METHOD, "step_size": fmt_float(m.solver.step_size)},
            "specs": {
                "enc_z0": _encode_spec(m.enc_z0.spec),
                "enc_gamma": _encode_spec(m.enc_gamma.spec),
                "hyper_body": _encode_spec(m.hyper.body),
                "f": _encode_spec(m.f_spec),
                "dec": _encode_spec(m.dec.spec),
            },
            "params": {name: block(t.data) for name, t in m.params.items()},
        },
        "gmm": _encode_gmm(S, block),
        "history": _history_summary(history),
        "seeds": seeds or {},
    }
    header = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")
    write_bytes_atomic(path, [MAGIC, header, b"\n", *arrays])


def _read_document(fh) -> tuple[object, _Payload]:
    """The archive header and its payload."""
    if fh.readline() != MAGIC:
        raise ValueError("not a format-3 archive: the file does not start with the magic line")
    header = fh.readline()
    if not header.endswith(b"\n"):
        raise ValueError("the header line has no end")
    return json.loads(header), _Payload(fh)


def load_archive(path):
    """Rebuild (model, gmm_or_None, seeds) from a saved archive.

    The archive's parameter set must equal the registry its specs give:
    ``FNODEModel`` refuses a missing, extra or misshapen parameter.  Any
    archive this cannot rebuild, including one with missing keys, bad
    payloads, such a parameter set or sizes that disagree with the ones the
    specs give, raises :class:`ArchiveError`.
    """
    try:
        with open(path, "rb") as fh:
            doc, payload = _read_document(fh)
    except (OSError, ValueError, RecursionError) as e:
        raise ArchiveError(f"{path}: unreadable archive ({e})") from e
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version != FORMAT_VERSION:
        raise ArchiveError(f"{path}: format_version {version!r} is not supported (expected {FORMAT_VERSION})")
    try:
        params = doc["model"]["params"]
        for name, obj in params.items():
            params[name] = payload.array(obj)
        gmm = doc.get("gmm")
        if gmm is not None:
            for key in _GMM_ARRAYS:
                gmm[key] = payload.array(gmm[key])
        payload.check_tiled()
        return _rebuild(doc)
    except KeyError as e:
        raise ArchiveError(f"{path}: archive is missing key {e}") from e
    except (TypeError, ValueError, AttributeError, ArithmeticError) as e:  # NonFiniteValue, OverflowError
        raise ArchiveError(f"{path}: malformed archive ({e})") from e


def _rebuild(doc: dict):
    md = doc["model"]
    specs = {key: _decode_spec(obj) for key, obj in md["specs"].items()}
    # the payload's arrays, as views, grouped by network; FNODEModel checks each group against its spec
    nets = {net: {} for net in ("enc_z0", "enc_gamma", "hyper", "dec")}
    for name, arr in md["params"].items():
        net, _, key = name.partition(".")
        if net not in nets:
            raise ArchiveError(f"parameter {name} belongs to none of the networks {', '.join(nets)}")
        nets[net][key] = Tensor(arr)
    m = FNODEModel(
        enc_z0=MLP(specs["enc_z0"], nets["enc_z0"]),
        enc_gamma=MLP(specs["enc_gamma"], nets["enc_gamma"]),
        hyper=Hypernetwork(specs["hyper_body"], nets["hyper"]),
        f_spec=specs["f"],
        dec=MLP(specs["dec"], nets["dec"]),
        solver=SolverConfig(step_size=float(md["solver"]["step_size"])),
        sigma_x=float(md["sigma_x"]),
        obs_scale=float(md["obs_scale"]),
    )
    # the header repeats what the code and the specs fix; a value that differs was edited
    if md["solver"]["method"] != SOLVER_METHOD:
        raise ArchiveError(f"model.solver.method is {md['solver']['method']!r}, the one solver is {SOLVER_METHOD!r}")
    for key in ("p", "d_gamma", "obs_dim", "n_points"):
        if md[key] != getattr(m, key):
            raise ArchiveError(f"model.{key} is {md[key]!r}, the specs give {getattr(m, key)}")
    gmm = doc.get("gmm")
    S = None if gmm is None else GMMModel(**{key: gmm[key] for key in _GMM_ARRAYS}, cov_type=gmm["cov_type"])
    if S is not None and S.d not in (m.d_gamma, m.p + m.d_gamma):
        raise ArchiveError(
            f"sampler has width {S.d}, the model needs {m.d_gamma} (code) or {m.p + m.d_gamma} (z0 and code)"
        )
    return m, S, doc.get("seeds", {})
