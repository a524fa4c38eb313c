"""Tests of the benchmark itself: every workload's checks at the smoke size,
the result line's shape, the refusal to run outside a checkout, and the
benchmark's own references against closed forms.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import mixture  # noqa: E402
import reference  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["train", "select", "infer"])
def test_smoke_run_passes_every_check(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace == "1" else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "train", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_reference_rk4_matches_a_linear_ode():
    # One affine layer: f([z, t]) = A z, so z(t) = exp(A (t - t0)) z0 for diagonal A.
    rates = np.array([-1.3, 0.4])
    weight = np.concatenate([np.diag(rates), np.zeros((2, 1))], axis=1)
    net = [(weight, np.zeros(2))]
    times = np.array([0.0, 0.05, 0.37, 1.0, 1.23])
    z0 = np.array([0.7, -1.1])
    path = reference.rk4_path(net, z0, times, h=0.1)
    exact = z0 * np.exp(np.outer(times, rates))
    assert np.max(np.abs(path - exact)) < 1e-6


def test_mixture_log_density_matches_direct_formula():
    rng = np.random.default_rng(0)
    d = 3
    A = rng.standard_normal((2, d, d))
    covs = A @ A.transpose(0, 2, 1) + np.eye(d)
    means = rng.standard_normal((2, d))
    weights = np.array([0.3, 0.7])
    X = rng.standard_normal((5, d))
    direct = np.zeros(5)
    for w, mu, c in zip(weights, means, covs):
        diff = X - mu
        maha = np.einsum("ij,jk,ik->i", diff, np.linalg.inv(c), diff)
        direct += w * np.exp(-0.5 * maha) / math.sqrt(np.linalg.det(2 * np.pi * c))
    got = mixture.log_density(weights, means, covs, "full", X)
    assert np.allclose(got, np.log(direct), rtol=1e-12, atol=0)
    assert mixture.n_params(3, 16, "diag") == 3 * 16 + 2 + 48
