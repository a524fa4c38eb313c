import base64
import json

import numpy as np
import pytest

from fnode.gmm import collect_gamma_samples, em_fit
from fnode.model import FNODEModel, TrainConfig, fit
from fnode.serialize import FORMAT_VERSION, ArchiveError, load_archive, save_archive
from fnode.syndata import generate_set_a


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


class TestArchive:
    def test_round_trip_is_bit_exact(self, small_trained, tmp_path):
        m, S, history, _ = small_trained
        path = tmp_path / "m.json"
        save_archive(path, m, S, history, seeds={"train": 0})
        m2, S2, seeds = load_archive(path)
        assert seeds == {"train": 0}
        assert m2.params.names() == m.params.names()
        for name, t in m.params.items():
            np.testing.assert_array_equal(m2.params[name].data, t.data)
            assert m2.params[name].data.shape == t.data.shape
        np.testing.assert_array_equal(S2.weights, S.weights)
        np.testing.assert_array_equal(S2.means, S.means)
        np.testing.assert_array_equal(S2.covariances, S.covariances)
        assert S2.cov_type == S.cov_type
        assert (m2.p, m2.d_gamma, m2.obs_dim, m2.n_points) == (m.p, m.d_gamma, m.obs_dim, m.n_points)
        assert m2.sigma_x == m.sigma_x and m2.obs_scale == m.obs_scale
        assert m2.solver.step_size == m.solver.step_size

    def test_round_trip_preserves_outputs_bit_exactly(self, small_trained, tmp_path):
        from fnode.inference import sample_trajectories

        m, S, history, data = small_trained
        path = tmp_path / "m.json"
        save_archive(path, m, S, history)
        m2, S2, _ = load_archive(path)
        src = data.trajectories[0]
        a = sample_trajectories(m, S, src, src.times, n=3, seed=9)
        b = sample_trajectories(m2, S2, src, src.times, n=3, seed=9)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa, pb)

    def test_save_without_gmm(self, small_trained, tmp_path):
        m, _, _, _ = small_trained
        path = tmp_path / "nogmm.json"
        save_archive(path, m, None, None)
        _, S2, _ = load_archive(path)
        assert S2 is None

    def test_version_mismatch_is_explicit_error(self, small_trained, tmp_path):
        m, S, history, _ = small_trained
        path = tmp_path / "m.json"
        save_archive(path, m, S, history)
        doc = json.loads(path.read_text())
        doc["format_version"] = FORMAT_VERSION + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ArchiveError, match="format_version"):
            load_archive(path)

    def test_unreadable_file_is_archive_error(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{broken")
        with pytest.raises(ArchiveError):
            load_archive(path)

    def test_history_summary_recorded(self, small_trained, tmp_path):
        m, S, history, _ = small_trained
        path = tmp_path / "m.json"
        save_archive(path, m, S, history)
        doc = json.loads(path.read_text())
        assert doc["history"]["epochs"] == len(history)
        assert doc["history"]["last"]["kl_weight"] == history[-1].kl_weight


def _v1_document(doc: dict, m, S) -> dict:
    """The version-1 twin of a saved document, its decimal payloads written here."""

    def text(arr):
        arr = np.asarray(arr, dtype=np.float64)
        return {"shape": list(arr.shape), "data": " ".join(repr(float(x)) for x in arr.reshape(-1))}

    v1 = json.loads(json.dumps(doc))
    v1["format_version"] = 1
    v1["model"]["params"] = {name: text(t.data) for name, t in m.params.items()}
    for key in ("weights", "means", "covariances"):
        v1["gmm"][key] = text(getattr(S, key))
    return v1


class TestArchiveFormats:
    def test_v1_document_loads_bit_identically_to_v2(self, small_trained, tmp_path):
        m, S, history, _ = small_trained
        v2 = tmp_path / "v2.json"
        save_archive(v2, m, S, history, seeds={"train": 0})
        doc = json.loads(v2.read_text())
        assert doc["format_version"] == FORMAT_VERSION == 2
        v1 = tmp_path / "v1.json"
        v1.write_text(json.dumps(_v1_document(doc, m, S)))
        (m1, S1, _), (m2, S2, _) = load_archive(v1), load_archive(v2)
        assert m1.params.names() == m2.params.names() == m.params.names()
        for name, t in m.params.items():
            for got in (m1.params[name].data, m2.params[name].data):
                assert got.shape == t.data.shape
                assert got.tobytes() == t.data.tobytes()
                assert got.flags.writeable
        assert m1.params["hyper.lambda"].data.shape == m2.params["hyper.lambda"].data.shape == ()
        for key in ("weights", "means", "covariances"):
            assert getattr(S1, key).tobytes() == getattr(S2, key).tobytes() == getattr(S, key).tobytes()


def _b64(arr) -> str:
    return base64.b64encode(np.asarray(arr, dtype="<f8").tobytes()).decode("ascii")


def _drop(*keys):
    def edit(doc):
        node = doc
        for k in keys[:-1]:
            node = node[k]
        del node[keys[-1]]

    return edit


def _set_param(name, **entry):
    def edit(doc):
        doc["model"]["params"][name].update(entry)

    return edit


def _transpose_dec_w0(doc):
    w = doc["model"]["params"]["dec.w0"]
    n_out, n_in = w["shape"]
    w["shape"] = [n_in, n_out]


def _flat_sampler_covariances(doc):
    # the fixture's sampler is diag with K = 2, so its covariances must be [2, d]
    doc["gmm"]["covariances"] = {"shape": [2], "f8": _b64(np.ones(2))}


def _keep_only_version(doc):
    for key in [k for k in doc if k != "format_version"]:
        del doc[key]


SCHEMA_DEFECTS = {
    "no model": _drop("model"),
    "no specs": _drop("model", "specs"),
    "no params": _drop("model", "params"),
    "no parameter": _drop("model", "params", "dec.w0"),
    "invalid base64": _set_param("dec.b0", f8="@@not base64@@"),
    "short payload": _set_param("dec.b0", f8=_b64(np.zeros(1))),
    "shape against spec": _transpose_dec_w0,
    "scalar lambda as vector": _set_param("hyper.lambda", shape=[1]),
    "sampler covariances against means": _flat_sampler_covariances,
    "version only": _keep_only_version,
}


class TestArchiveSchema:
    @pytest.fixture
    def archive_doc(self, small_trained, tmp_path):
        m, S, history, _ = small_trained
        path = tmp_path / "m.json"
        save_archive(path, m, S, history)
        return json.loads(path.read_text())

    @pytest.mark.parametrize("defect", sorted(SCHEMA_DEFECTS))
    def test_defect_is_archive_error(self, archive_doc, tmp_path, defect):
        SCHEMA_DEFECTS[defect](archive_doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(archive_doc))
        with pytest.raises(ArchiveError):
            load_archive(path)

    @pytest.mark.parametrize("defect", sorted(SCHEMA_DEFECTS))
    def test_cli_exits_2_with_one_line(self, archive_doc, small_trained, tmp_path, capsys, defect):
        from fnode.cli import main
        from fnode.syndata import save_dataset

        SCHEMA_DEFECTS[defect](archive_doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(archive_doc))
        data = tmp_path / "d.jsonl"
        save_dataset(small_trained[3], data)
        capsys.readouterr()
        rc = main(["sample", "--model", str(path), "--data", str(data), "--out", str(tmp_path / "s.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
