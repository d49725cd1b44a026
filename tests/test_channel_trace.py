"""Tests for the ChannelTrace container."""

import numpy as np
import pytest

from repro.channel import ChannelTrace, rayleigh_channels


def make_trace(num_links=3, num_subcarriers=4, num_rx=4, num_tx=2, seed=0):
    matrices = rayleigh_channels(
        num_links * num_subcarriers, num_rx, num_tx, rng=seed
    ).reshape(num_links, num_subcarriers, num_rx, num_tx)
    return ChannelTrace(matrices=matrices, label="test", metadata={"seed": seed})


class TestShapeBookkeeping:
    def test_dimension_properties(self):
        trace = make_trace()
        assert trace.num_links == 3
        assert trace.num_subcarriers == 4
        assert trace.num_ap_antennas == 4
        assert trace.num_clients == 2

    def test_iter_channels_count(self):
        trace = make_trace()
        assert sum(1 for _ in trace.iter_channels()) == 12

    def test_link_accessor(self):
        trace = make_trace()
        assert trace.link(1).shape == (4, 4, 2)
        assert np.allclose(trace.link(1), trace.matrices[1])

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            ChannelTrace(matrices=np.zeros((2, 4, 2), dtype=complex))


class TestStatistics:
    def test_condition_numbers_shape(self):
        trace = make_trace()
        assert trace.condition_numbers_sq_db().shape == (12,)

    def test_degradations_all_non_negative(self):
        trace = make_trace()
        assert (trace.worst_degradations_db() >= 0.0).all()


class TestSubsetAndPersistence:
    def test_subset_clients(self):
        trace = make_trace(num_tx=4)
        subset = trace.subset_clients(2)
        assert subset.num_clients == 2
        assert np.allclose(subset.matrices, trace.matrices[:, :, :, :2])

    def test_subset_rejects_bad_count(self):
        with pytest.raises(ValueError):
            make_trace().subset_clients(5)

    def test_save_load_roundtrip(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = ChannelTrace.load(path)
        assert np.allclose(loaded.matrices, trace.matrices)
        assert loaded.label == "test"
        assert loaded.metadata == {"seed": "0"}

    @pytest.mark.parametrize("metadata", [{}, {"seed": 3, "site": "office",
                                               "snr_db": 21.5}])
    def test_saved_trace_loads_with_pickling_off(self, tmp_path, metadata):
        """Every array a saved trace holds is plain data: numpy reads the
        file with object loading refused, and the trace round-trips."""
        trace = ChannelTrace(matrices=make_trace().matrices, label="site A",
                             metadata=metadata)
        path = tmp_path / "trace.npz"
        trace.save(path)
        with np.load(path, allow_pickle=False) as data:
            assert all(data[name].dtype != object for name in data.files)
        loaded = ChannelTrace.load(path)
        assert np.array_equal(loaded.matrices, trace.matrices)
        assert loaded.label == "site A"
        assert loaded.metadata == {key: str(value)
                                   for key, value in metadata.items()}
