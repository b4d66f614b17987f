"""Unit tests for the Optane calibration constants."""

import dataclasses

import pytest

from repro.errors import CalibrationError
from repro.pmem.calibration import DEFAULT_CALIBRATION
from repro.units import GB, KiB, NANOSECOND


class TestDefaults:
    def test_default_validates(self):
        DEFAULT_CALIBRATION.validate()

    def test_paper_bandwidth_anchors(self):
        """§II-B: 39.4 GB/s local read, 13.9 GB/s local write peaks."""
        assert DEFAULT_CALIBRATION.local_read_peak == pytest.approx(39.4 * GB)
        assert DEFAULT_CALIBRATION.local_write_peak == pytest.approx(13.9 * GB)

    def test_paper_latency_anchors(self):
        """§II-B: 90 ns idle write, 169 ns idle read."""
        assert DEFAULT_CALIBRATION.write_latency_local == pytest.approx(90 * NANOSECOND)
        assert DEFAULT_CALIBRATION.read_latency_local == pytest.approx(169 * NANOSECOND)

    def test_interleave_geometry(self):
        """§II-B: 4 KB chunks across 6 DIMMs = 24 KB stripes."""
        assert DEFAULT_CALIBRATION.interleave_chunk == 4 * KiB
        assert DEFAULT_CALIBRATION.dimms_per_socket == 6
        assert DEFAULT_CALIBRATION.stripe_bytes == 24 * KiB

    def test_read_favoured_device(self):
        assert DEFAULT_CALIBRATION.local_read_peak > DEFAULT_CALIBRATION.local_write_peak

    def test_single_thread_rates_reasonable(self):
        """Single-thread rates in the 4-8 GB/s window reported by FAST20."""
        assert 4 * GB < DEFAULT_CALIBRATION.single_thread_read() < 9 * GB
        assert 4 * GB < DEFAULT_CALIBRATION.single_thread_write() < 9 * GB

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_CALIBRATION.local_read_peak = 0  # type: ignore[misc]


class TestValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("local_write_peak", -1.0),
            ("read_ramp_scale", 0.0),
            ("write_ramp_scale", -2.0),
            ("remote_write_collapse_n0", 0.0),
            ("remote_write_knee", -1.0),
            ("upi_bandwidth", 0.0),
            ("write_decay", -0.1),
            ("remote_read_slope", -0.1),
            ("mix_gamma_read", -0.5),
            ("mix_gamma_write", -0.5),
            ("dimm_contention_factor", 0.0),
            ("dimm_contention_factor", 1.5),
            ("remote_write_floor", 0.0),
            ("remote_write_floor", 1.5),
            ("interleave_chunk", 0),
            ("read_latency_local", -1e-9),
            ("poll_interference_weight", -0.1),
        ],
    )
    def test_invalid_field_rejected(self, field, value):
        with pytest.raises(CalibrationError):
            DEFAULT_CALIBRATION.replace(**{field: value})

    def test_write_peak_above_read_peak_rejected(self):
        with pytest.raises(CalibrationError):
            DEFAULT_CALIBRATION.replace(local_write_peak=50 * GB)

    def test_remote_latency_below_local_rejected(self):
        with pytest.raises(CalibrationError):
            DEFAULT_CALIBRATION.replace(read_latency_remote=10 * NANOSECOND)

    def test_replace_returns_new_validated_instance(self):
        variant = DEFAULT_CALIBRATION.replace(local_read_peak=40 * GB)
        assert variant.local_read_peak == 40 * GB
        assert DEFAULT_CALIBRATION.local_read_peak == pytest.approx(39.4 * GB)

    def test_ablation_toggles_validate(self):
        variant = DEFAULT_CALIBRATION.replace(
            enable_mix_interference=False,
            enable_remote_penalty=False,
            enable_size_effects=False,
        )
        variant.validate()
