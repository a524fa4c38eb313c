import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fnode.syndata import (
    DatasetFormatError,
    PanelDataset,
    Trajectory,
    generate_set_a,
    generate_set_b,
    load_dataset,
    save_dataset,
    write_bytes_atomic,
)


class TestTrajectory:
    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError):
            Trajectory([0.0, 0.5, 0.4], [1.0, 2.0, 3.0])

    def test_promotes_1d_values(self):
        t = Trajectory([0.0, 1.0], [1.0, 2.0])
        assert t.values.shape == (2, 1)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Trajectory([0.0, 1.0], [1.0, np.inf])


class TestGenerators:
    def test_set_a_formula_noiseless(self):
        data = generate_set_a(n_per_class=3, n_classes=4, seed=11, noise="none")
        amps = data.metadata["amplitudes"]
        for traj in data.trajectories:
            expected = amps[traj.label] * np.sin(2 * np.pi * traj.times)
            np.testing.assert_allclose(traj.values[:, 0], expected, rtol=0, atol=0)

    def test_set_a_per_trajectory_noise_is_constant_offset(self):
        data = generate_set_a(n_per_class=4, n_classes=3, seed=2)
        amps = data.metadata["amplitudes"]
        for traj in data.trajectories:
            resid = traj.values[:, 0] - amps[traj.label] * np.sin(2 * np.pi * traj.times)
            # one epsilon per trajectory (up to rounding of the recovery)
            assert np.ptp(resid) < 1e-12
            assert abs(resid[0]) < 5 * np.sqrt(1e-3)

    def test_set_a_per_point_noise_varies(self):
        data = generate_set_a(n_per_class=2, n_classes=2, seed=2, noise="per_point")
        amps = data.metadata["amplitudes"]
        traj = data.trajectories[0]
        resid = traj.values[:, 0] - amps[traj.label] * np.sin(2 * np.pi * traj.times)
        assert np.ptp(resid) > 0.0

    def test_set_b_formula_noiseless(self):
        data = generate_set_b(n_per_class=3, n_classes=4, seed=7, noise="none")
        freqs = data.metadata["frequencies"]
        for traj in data.trajectories:
            expected = np.sin(2 * np.pi * freqs[traj.label] * traj.times)
            np.testing.assert_allclose(traj.values[:, 0], expected, rtol=0, atol=0)

    def test_shared_initial_condition_is_zero(self):
        # x(0) = 0 for every amplitude class by construction
        data = generate_set_a(n_per_class=1, n_classes=5, seed=3, noise="none")
        for traj in data.trajectories:
            amp = data.metadata["amplitudes"][traj.label]
            assert amp * np.sin(0.0) == 0.0

    def test_determinism(self):
        a = generate_set_a(n_per_class=2, n_classes=3, seed=42)
        b = generate_set_a(n_per_class=2, n_classes=3, seed=42)
        for ta, tb in zip(a.trajectories, b.trajectories):
            np.testing.assert_array_equal(ta.times, tb.times)
            np.testing.assert_array_equal(ta.values, tb.values)
            assert ta.label == tb.label

    def test_labels_partition_and_bound(self):
        data = generate_set_a(n_per_class=5, n_classes=4, seed=1)
        labels = np.array(data.labels())
        assert sorted(set(labels.tolist())) == [0, 1, 2, 3]
        assert all((labels == c).sum() == 5 for c in range(4))
        amps = np.array(data.metadata["amplitudes"])
        bound = amps.max() + 5 * np.sqrt(1e-3)
        assert max(np.abs(t.values).max() for t in data.trajectories) <= bound

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            generate_set_a(n_per_class=0)


class TestRoundTrip:
    def test_save_load_is_bit_exact(self, tmp_path):
        data = generate_set_a(n_per_class=2, n_classes=3, seed=9)
        path = tmp_path / "d.jsonl"
        save_dataset(data, path)
        loaded = load_dataset(path)
        assert loaded.obs_dim == data.obs_dim
        assert loaded.metadata["amplitudes"] == data.metadata["amplitudes"]
        for ta, tb in zip(data.trajectories, loaded.trajectories):
            np.testing.assert_array_equal(ta.times, tb.times)
            np.testing.assert_array_equal(ta.values, tb.values)
            assert ta.label == tb.label

    def test_save_is_deterministic(self, tmp_path):
        data = generate_set_a(n_per_class=2, n_classes=2, seed=5)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(data, p1)
        save_dataset(data, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_save_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "d.jsonl"
        save_dataset(generate_set_a(n_per_class=2, n_classes=2, seed=5), path)
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            save_dataset(generate_set_a(n_per_class=3, n_classes=2, seed=6), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["d.jsonl"]

    @pytest.mark.parametrize("existing", [False, True])
    def test_block_failing_partway_leaves_no_file(self, tmp_path, existing):
        path = tmp_path / "d.bin"
        if existing:
            path.write_bytes(b"old contents")

        def blocks():
            yield b"first block"
            yield np.zeros(4)
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            write_bytes_atomic(path, blocks())
        assert [p.name for p in tmp_path.iterdir()] == (["d.bin"] if existing else [])
        if existing:
            assert path.read_bytes() == b"old contents"

    def test_blocks_are_written_in_order_as_raw_memory(self, tmp_path):
        path = tmp_path / "d.bin"
        arr = np.arange(6.0).reshape(2, 3)
        write_bytes_atomic(path, [b"head\n", arr, np.asarray(2.5), b""])
        assert path.read_bytes() == b"head\n" + arr.tobytes() + np.float64(2.5).tobytes()

    def test_saved_file_has_the_mode_open_gives(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("")
        path = tmp_path / "d.jsonl"
        save_dataset(generate_set_a(n_per_class=2, n_classes=2, seed=5), path)
        assert path.stat().st_mode == plain.stat().st_mode

    def test_empty_file_is_parse_error(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DatasetFormatError):
            load_dataset(path)

    def test_malformed_line_reports_locus(self, tmp_path):
        data = generate_set_a(n_per_class=1, n_classes=2, seed=5)
        path = tmp_path / "bad.jsonl"
        save_dataset(data, path)
        lines = path.read_text().splitlines()
        lines[2] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match=":3"):
            load_dataset(path)

    @pytest.mark.parametrize("line", [0, 2])
    def test_line_nested_too_deeply_reports_locus(self, tmp_path, line):
        data = generate_set_a(n_per_class=1, n_classes=2, seed=5)
        path = tmp_path / "deep.jsonl"
        save_dataset(data, path)
        lines = path.read_text().splitlines()
        lines[line] = "[" * 100_000 + "]" * 100_000
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match=f"deep.jsonl:{line + 1}: .*nested too deeply"):
            load_dataset(path)

    def test_mixed_obs_dim_rejected(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            '{"record": "header", "obs_dim": 1, "generator": "g", "seed": 0, "metadata": {}}\n'
            '{"id": 0, "label": null, "times": [0.0, 1.0], "values": [[1.0], [2.0]], "meta": {}}\n'
            '{"id": 1, "label": null, "times": [0.0, 1.0], "values": [[1.0, 2.0], [2.0, 3.0]], "meta": {}}\n'
        )
        with pytest.raises(DatasetFormatError, match="obs_dim"):
            load_dataset(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "nohdr.jsonl"
        path.write_text('{"id": 0, "times": [0.0], "values": [[1.0]]}\n')
        with pytest.raises(DatasetFormatError, match="header"):
            load_dataset(path)


class TestPanelDataset:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PanelDataset([], obs_dim=1)

    def test_rejects_mixed_dims(self):
        t1 = Trajectory([0.0], [[1.0]])
        t2 = Trajectory([0.0], [[1.0, 2.0]])
        with pytest.raises(ValueError):
            PanelDataset([t1, t2], obs_dim=1)


# finite float64 values, with the edges of the range drawn often
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]
)


@st.composite
def datasets(draw):
    """Trajectories of ragged lengths with arbitrary finite times and values, labelled or not."""
    obs_dim = draw(st.integers(1, 3))
    trajs = []
    for _ in range(draw(st.integers(1, 4))):
        times = np.sort(draw(st.lists(FINITE, min_size=1, max_size=6, unique=True)))
        values = draw(hnp.arrays(np.float64, (times.size, obs_dim), elements=FINITE))
        label = draw(st.none() | st.integers(-(2**40), 2**40))
        trajs.append(Trajectory(times, values, label))
    return PanelDataset(trajs, obs_dim=obs_dim)


@settings(max_examples=60, deadline=None)
@given(datasets())
def test_save_load_round_trip_property(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.jsonl"
        save_dataset(data, path)
        loaded = load_dataset(path)
    assert loaded.obs_dim == data.obs_dim
    assert len(loaded.trajectories) == len(data.trajectories)
    for ta, tb in zip(data.trajectories, loaded.trajectories):
        assert tb.times.tobytes() == ta.times.tobytes()
        assert tb.values.shape == ta.values.shape and tb.values.tobytes() == ta.values.tobytes()
        assert tb.label == ta.label and type(tb.label) is type(ta.label)
