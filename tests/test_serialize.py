import json
import tempfile
import tracemalloc
from pathlib import Path

import archive_file
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fnode.gmm import COV_FLOOR, COV_TYPES, GMMModel, em_fit
from fnode.inference import collect_gamma_samples
from fnode.model import Adam, FNODEModel, TrainConfig, fit
from fnode.serialize import FORMAT_VERSION, ArchiveError, load_archive, save_archive
from fnode.syndata import generate_set_a

SAMPLER_ARRAYS = ("weights", "means", "covariances")


@pytest.fixture(scope="module")
def small_trained(tmp_path_factory):
    data = generate_set_a(n_per_class=3, n_classes=3, n_points=5, seed=2)
    m = FNODEModel.build(
        obs_dim=1, n_points=5, p=3, d_gamma=4, f_hidden=(8,), enc_hidden=(12,),
        dec_hidden=(8,), hyper_hidden=(8,), sigma_x=0.1, obs_scale=2.0, seed=1,
    )
    _, history = fit(m, data, TrainConfig(epochs=3, batch_size=9, kl_anneal_epochs=2, seed=0))
    bank = collect_gamma_samples(m, data, 2, seed=3)
    S, _ = em_fit(bank, K=2, cov_type="diag", seed=0)
    return m, S, history, data


def _assert_loads_as(path, m, S):
    """The archive at ``path`` holds ``m``'s parameters and ``S``, byte for byte."""
    m2, S2, _ = load_archive(path)
    assert list(m2.params) == list(m.params)
    for name, t in m.params.items():
        got = m2.params[name].data
        assert got.shape == t.data.shape
        assert got.tobytes() == t.data.tobytes()
        assert got.flags.writeable and got.dtype == np.float64
    assert m2.params["hyper.lambda"].data.shape == ()
    if S is None:
        assert S2 is None
        return
    assert S2.cov_type == S.cov_type
    for key in SAMPLER_ARRAYS:
        got = getattr(S2, key)
        assert got.shape == getattr(S, key).shape
        assert got.tobytes() == getattr(S, key).tobytes()
        assert got.flags.writeable


class TestArchive:
    def test_round_trip_is_bit_exact(self, small_trained, tmp_path):
        m, S, history, _ = small_trained
        path = tmp_path / "m.fnode"
        save_archive(path, m, S, history, seeds={"train": 0})
        m2, S2, seeds = load_archive(path)
        assert seeds == {"train": 0}
        _assert_loads_as(path, m, S)
        assert (m2.p, m2.d_gamma, m2.obs_dim, m2.n_points) == (m.p, m.d_gamma, m.obs_dim, m.n_points)
        assert m2.sigma_x == m.sigma_x and m2.obs_scale == m.obs_scale
        assert m2.solver.step_size == m.solver.step_size

    def test_round_trip_preserves_outputs_bit_exactly(self, small_trained, tmp_path):
        from fnode.inference import sample_trajectories

        m, S, history, data = small_trained
        path = tmp_path / "m.fnode"
        save_archive(path, m, S, history)
        m2, S2, _ = load_archive(path)
        src = data.trajectories[0]
        a = sample_trajectories(m, S, src, src.times, n=3, seed=9)
        b = sample_trajectories(m2, S2, src, src.times, n=3, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_save_without_gmm(self, small_trained, tmp_path):
        m, _, _, _ = small_trained
        path = tmp_path / "nogmm.fnode"
        save_archive(path, m, None, None)
        _, S2, _ = load_archive(path)
        assert S2 is None

    def test_version_mismatch_is_explicit_error(self, small_trained, tmp_path):
        m, S, history, _ = small_trained
        path = tmp_path / "m.fnode"
        save_archive(path, m, S, history)
        doc = archive_file.read(path)
        doc["format_version"] = FORMAT_VERSION + 1
        archive_file.write(path, doc)
        with pytest.raises(ArchiveError, match="format_version"):
            load_archive(path)

    def test_unreadable_file_is_archive_error(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{broken")
        with pytest.raises(ArchiveError):
            load_archive(path)

    def test_history_summary_recorded(self, small_trained, tmp_path):
        m, S, history, _ = small_trained
        path = tmp_path / "m.fnode"
        save_archive(path, m, S, history)
        doc = archive_file.read(path)
        assert doc["history"]["epochs"] == len(history)
        assert doc["history"]["last"]["kl_weight"] == history[-1].kl_weight

    def test_layout_is_magic_header_line_and_tiled_payload(self, small_trained, tmp_path):
        m, S, history, _ = small_trained
        path = tmp_path / "m.fnode"
        save_archive(path, m, S, history)
        header, payload = archive_file.read_raw(path)
        assert path.read_bytes() == archive_file.MAGIC + archive_file.header_line(header) + b"\n" + payload
        assert header["format_version"] == FORMAT_VERSION == 3
        entries = [*header["model"]["params"].values(), *(header["gmm"][k] for k in SAMPLER_ARRAYS)]
        spans = sorted((e["offset"], 8 * int(np.prod(e["shape"]))) for e in entries)
        assert [offset for offset, _ in spans] == [0, *np.cumsum([size for _, size in spans])[:-1]]
        assert sum(size for _, size in spans) == len(payload)
        doc = archive_file.read(path)
        for name, t in m.params.items():
            assert doc["model"]["params"][name].tobytes() == t.data.tobytes()

    def test_blocks_in_another_order_load_bit_identically(self, small_trained, tmp_path):
        # the test writer lays blocks out in sorted-key order, sampler first
        m, S, history, _ = small_trained
        path = tmp_path / "m.fnode"
        save_archive(path, m, S, history)
        archive_file.write(path, archive_file.read(path))
        header, _ = archive_file.read_raw(path)
        assert header["gmm"]["covariances"]["offset"] == 0
        _assert_loads_as(path, m, S)

    def test_loaded_arrays_are_writable_contiguous_aligned_native(self, small_trained, tmp_path):
        m, S, history, _ = small_trained
        path = tmp_path / "m.fnode"
        save_archive(path, m, S, history)
        m2, S2, _ = load_archive(path)
        arrays = [t.data for t in m2.params.values()] + [getattr(S2, k) for k in SAMPLER_ARRAYS]
        for arr in arrays:
            assert arr.dtype == np.float64 and arr.dtype.isnative
            assert arr.flags.writeable and arr.flags.c_contiguous and arr.flags.aligned

    def test_adam_step_on_loaded_model_moves_only_its_parameter(self, small_trained, tmp_path):
        m, S, history, _ = small_trained
        path = tmp_path / "m.fnode"
        save_archive(path, m, S, history)
        m2, S2, _ = load_archive(path)
        names = list(m2.params)
        for name in names:
            before = {n: t.data.copy() for n, t in m2.params.items()}
            sampler = [getattr(S2, k).copy() for k in SAMPLER_ARRAYS]
            data = m2.params[name].data
            for n, t in m2.params.items():
                t.grad = np.ones_like(t.data) if n == name else None
            Adam(m2.params, lr=0.5).step()
            assert m2.params[name].data is data, name
            assert np.all(data != before[name]), name
            for other in names:
                if other != name:
                    assert m2.params[other].data.tobytes() == before[other].tobytes(), (name, other)
            for key, arr in zip(SAMPLER_ARRAYS, sampler):
                assert getattr(S2, key).tobytes() == arr.tobytes(), (name, key)


class TestStreamedWrite:
    def test_bytes_match_the_test_writer_in_write_order(self, small_trained, tmp_path):
        # The test writer lays blocks out in the order its document lists
        # them: model parameters in registry order, then the sampler.
        m, S, history, _ = small_trained
        path, twin = tmp_path / "m.fnode", tmp_path / "twin.fnode"
        save_archive(path, m, S, history, seeds={"train": 0})
        doc = archive_file.read(path)
        model = doc.pop("model")
        model["params"] = {name: model["params"][name] for name in m.params}
        gmm = doc.pop("gmm")
        doc = {"model": model, "gmm": {"cov_type": gmm.pop("cov_type"), **{k: gmm[k] for k in SAMPLER_ARRAYS}}, **doc}
        archive_file.write(twin, doc)
        assert path.read_bytes() == twin.read_bytes()

    def test_no_second_copy_of_the_payload(self, tmp_path):
        # the default architecture: a 12 MB payload, almost all of it the
        # hypernetwork's output layer
        m = FNODEModel.build(obs_dim=1, n_points=10, seed=0)
        payload = 8 * sum(t.data.size for t in m.params.values())
        path = tmp_path / "m.fnode"
        tracemalloc.start()
        try:
            save_archive(path, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * payload, peak / payload
        _assert_loads_as(path, m, None)


def _format3(edit):
    """A defect made on the decoded document, written as format 3 by the test writer."""

    def make(doc, path):
        edit(doc)
        archive_file.write(path, doc)

    return make


def _plain_json(doc, path):
    """The document's format-3 header alone, as a JSON file without the magic line."""
    archive_file.write(path, doc)
    header, _ = archive_file.read_raw(path)
    path.write_text(json.dumps(header))


def _raw(edit):
    """A defect made on the header and payload of a format-3 file: ``edit(header, payload) -> payload``."""

    def make(doc, path):
        archive_file.write(path, doc)
        header, payload = archive_file.read_raw(path)
        archive_file.write_raw(path, header, edit(header, payload))

    return make


def _drop(*keys):
    def edit(doc):
        node = doc
        for k in keys[:-1]:
            node = node[k]
        del node[keys[-1]]

    return edit


def _reshape_param(name, shape):
    def edit(doc):
        params = doc["model"]["params"]
        params[name] = params[name].reshape(shape)

    return edit


def _add_param(name, like):
    """Store a copy of parameter ``like`` under the extra name ``name``."""

    def edit(doc):
        params = doc["model"]["params"]
        params[name] = params[like].copy()

    return edit


def _transpose_dec_w0(doc):
    n_out, n_in = doc["model"]["params"]["dec.w0"].shape
    _reshape_param("dec.w0", (n_in, n_out))(doc)


def _flat_sampler_covariances(doc):
    # the fixture's sampler is diag with K = 2, so its covariances must be [2, d]
    doc["gmm"]["covariances"] = np.ones(2)


def _asymmetric_sampler_covariance(doc):
    # a tied sampler whose covariance differs from its transpose; Cholesky alone would read it as the identity
    d = doc["gmm"]["means"].shape[1]
    doc["gmm"]["cov_type"], doc["gmm"]["covariances"] = "tied", np.eye(d)
    doc["gmm"]["covariances"][0, 1] = 5.0


def _keep_only_version(doc):
    for key in [k for k in doc if k != "format_version"]:
        del doc[key]


def _set_version(version):
    def edit(doc):
        doc["format_version"] = version

    return edit


def _entries(header):
    """Every array entry of a format-3 header, in payload order."""
    entries = [*header["model"]["params"].values()]
    if header["gmm"] is not None:
        entries += [header["gmm"][k] for k in SAMPLER_ARRAYS]
    return sorted(entries, key=lambda e: e["offset"])


def _set_entry(name, **entry):
    def edit(header, payload):
        header["model"]["params"][name].update(entry)
        return payload

    return edit


def _misalign(header, payload):
    header["model"]["params"]["dec.b0"]["offset"] += 4
    return payload


def _last_block_past_end(header, payload):
    _entries(header)[-1]["offset"] = len(payload)
    return payload


def _gap_before_last_block(header, payload):
    last = _entries(header)[-1]
    at = last["offset"]
    last["offset"] += 8
    return payload[:at] + bytes(8) + payload[at:]


def _overlap_last_block(header, payload):
    # the last block moves 8 bytes into the one before it and leaves 8 trailing bytes
    _entries(header)[-1]["offset"] -= 8
    return payload


def _trailing_bytes(n):
    def edit(header, payload):
        return payload + bytes(n)

    return edit


def _truncated(n):
    def edit(header, payload):
        return payload[:-n]

    return edit


def _header_not_json(doc, path):
    archive_file.write(path, doc)
    _, payload = archive_file.read_raw(path)
    path.write_bytes(archive_file.MAGIC + b'{"format_version":3,"model":\n' + payload)


def _header_nested_too_deeply(doc, path):
    path.write_bytes(archive_file.MAGIC + b"[" * 100_000 + b"]" * 100_000 + b"\n")


# Payload checks of format 3: defect -> (maker, words the error names).
PAYLOAD_DEFECTS = {
    "negative shape entry": (_raw(_set_entry("dec.b0", shape=[-1])), "non-negative integers"),
    "fractional shape entry": (_raw(_set_entry("dec.b0", shape=[1.5])), "non-negative integers"),
    "negative offset": (_raw(_set_entry("dec.b0", offset=-8)), "non-negative multiple of 8"),
    "offset not a multiple of 8": (_raw(_misalign), "non-negative multiple of 8"),
    "block past payload end": (_raw(_last_block_past_end), "runs past the end"),
    "gap between blocks": (_raw(_gap_before_last_block), "leave a gap"),
    "overlapping blocks": (_raw(_overlap_last_block), "overlap"),
    "trailing payload bytes": (_raw(_trailing_bytes(8)), "bytes after its last array block"),
    **{
        f"{n} trailing payload bytes": (_raw(_trailing_bytes(n)), "bytes after its last array block")
        for n in range(1, 8)
    },
    "truncated payload": (_raw(_truncated(8)), "runs past the end"),
    "payload cut by 3 bytes": (_raw(_truncated(3)), "runs past the end"),
    "header not JSON": (_header_not_json, "unreadable archive"),
    "header nested too deeply": (_header_nested_too_deeply, "unreadable archive"),
    "format 2 behind the magic line": (_format3(_set_version(2)), "format_version 2 is not supported"),
    "format 3 without the magic line": (_plain_json, "not a format-3 archive"),
}

SCHEMA_DEFECTS = {
    "no model": _format3(_drop("model")),
    "no specs": _format3(_drop("model", "specs")),
    "no params": _format3(_drop("model", "params")),
    "no parameter": _format3(_drop("model", "params", "dec.w0")),
    "shape against spec": _format3(_transpose_dec_w0),
    "scalar lambda as vector": _format3(_reshape_param("hyper.lambda", (1,))),
    "parameter of no network": _format3(_add_param("junk.w0", "dec.w0")),
    "extra layer parameter": _format3(_add_param("dec.w7", "dec.w0")),
    "sampler covariances against means": _format3(_flat_sampler_covariances),
    "asymmetric sampler covariance": _format3(_asymmetric_sampler_covariance),
    "version only": _format3(_keep_only_version),
    **{name: make for name, (make, _) in PAYLOAD_DEFECTS.items()},
}


class TestArchiveSchema:
    @pytest.fixture
    def archive_doc(self, small_trained, tmp_path):
        m, S, history, _ = small_trained
        path = tmp_path / "m.fnode"
        save_archive(path, m, S, history)
        return archive_file.read(path)

    @pytest.mark.parametrize("defect", sorted(SCHEMA_DEFECTS))
    def test_defect_is_archive_error(self, archive_doc, tmp_path, defect):
        path = tmp_path / "bad.fnode"
        SCHEMA_DEFECTS[defect](archive_doc, path)
        with pytest.raises(ArchiveError):
            load_archive(path)

    @pytest.mark.parametrize("name", ["junk.w0", "dec.w7"])
    def test_extra_parameter_is_named(self, archive_doc, tmp_path, name):
        path = tmp_path / "bad.fnode"
        _format3(_add_param(name, "dec.w0"))(archive_doc, path)
        with pytest.raises(ArchiveError, match=f"parameter {name} "):
            load_archive(path)

    @pytest.mark.parametrize("defect", sorted(PAYLOAD_DEFECTS))
    def test_payload_defect_names_its_check(self, archive_doc, tmp_path, defect):
        make, words = PAYLOAD_DEFECTS[defect]
        path = tmp_path / "bad.fnode"
        make(archive_doc, path)
        with pytest.raises(ArchiveError, match=words):
            load_archive(path)

    @pytest.mark.parametrize("defect", sorted(SCHEMA_DEFECTS))
    def test_cli_exits_2_with_one_line(self, archive_doc, small_trained, tmp_path, capsys, defect):
        from fnode.cli import main
        from fnode.syndata import save_dataset

        path = tmp_path / "bad.fnode"
        SCHEMA_DEFECTS[defect](archive_doc, path)
        data = tmp_path / "d.jsonl"
        save_dataset(small_trained[3], data)
        capsys.readouterr()
        rc = main(["sample", "--model", str(path), "--data", str(data), "--out", str(tmp_path / "s.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1


# -- properties over random architectures and values -------------------------------------

# finite float64 values, with the edges of the range drawn often
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]
)
WIDTHS = st.lists(st.integers(1, 4), min_size=0, max_size=2).map(tuple)


@st.composite
def models(draw):
    """A small random model whose parameters hold arbitrary finite values, and maybe a sampler."""
    p, d_gamma = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    m = FNODEModel.build(
        obs_dim=draw(st.integers(1, 2)), n_points=draw(st.integers(1, 3)), p=p, d_gamma=d_gamma,
        f_hidden=draw(WIDTHS), enc_hidden=draw(WIDTHS), dec_hidden=draw(WIDTHS), hyper_hidden=draw(WIDTHS),
    )
    for _, t in m.params.items():
        t.data[...] = draw(hnp.arrays(np.float64, t.data.shape, elements=FINITE))
    cov_type = draw(st.sampled_from([None, *COV_TYPES]))
    if cov_type is None:
        return m, None
    K, d = draw(st.integers(1, 3)), draw(st.sampled_from([d_gamma, p + d_gamma]))
    w = draw(hnp.arrays(np.float64, K, elements=st.floats(0.01, 1.0)))
    means = draw(hnp.arrays(np.float64, (K, d), elements=FINITE))
    variances = st.floats(COV_FLOOR, 1e308)
    if cov_type in ("spherical", "diag"):
        cov = draw(hnp.arrays(np.float64, (K,) if cov_type == "spherical" else (K, d), elements=variances))
    else:
        A = draw(hnp.arrays(np.float64, (K, d, d), elements=st.floats(-10.0, 10.0)))
        cov = A @ A.transpose(0, 2, 1) + np.eye(d)
        cov = cov[0] if cov_type == "tied" else cov
    return m, GMMModel(w / w.sum(), means, cov, cov_type)


@settings(max_examples=40, deadline=None)
@given(models())
def test_round_trip_property(model_and_sampler):
    m, S = model_and_sampler
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.fnode"
        save_archive(path, m, S)
        _assert_loads_as(path, m, S)


def _assert_prefixes_fail(data: bytes, cuts) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cut.fnode"
        for n in cuts:
            assert 0 <= n < len(data)
            path.write_bytes(data[:n])
            with pytest.raises(ArchiveError):
                load_archive(path)


@settings(max_examples=25, deadline=None)
@given(models(), st.data())
def test_every_strict_prefix_is_archive_error(model_and_sampler, data):
    m, S = model_and_sampler
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.fnode"
        save_archive(path, m, S)
        raw = path.read_bytes()
    cuts = data.draw(st.lists(st.integers(0, len(raw) - 1), min_size=1, max_size=8))
    _assert_prefixes_fail(raw, cuts)


def test_strict_prefixes_at_every_boundary_are_archive_errors(small_trained, tmp_path):
    m, S, history, _ = small_trained
    path = tmp_path / "m.fnode"
    save_archive(path, m, S, history)
    raw = path.read_bytes()
    header, _ = archive_file.read_raw(path)
    start = len(archive_file.MAGIC) + len(archive_file.header_line(header)) + 1
    bounds = [0, len(archive_file.MAGIC), start - 1, start, len(raw)]
    bounds += [start + e["offset"] for e in _entries(header)]
    cuts = {n + k for n in bounds for k in (-1, 0, 1)} | set(range(len(archive_file.MAGIC) + 2))
    _assert_prefixes_fail(raw, sorted(n for n in cuts if 0 <= n < len(raw)))
