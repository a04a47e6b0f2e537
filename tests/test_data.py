"""Loader, exclusion, windowing, and synthetic-generator behavior."""

import dataclasses
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_forecaster.data import (
    RawSeries,
    SplitSpec,
    SyntheticSpec,
    WindowStream,
    exclude_channels,
    load_csv,
    load_synthetic_spec,
    make_windows,
    stack_windows,
    synth_three_sine,
    window_count,
    write_series_csv,
)
from spectral_forecaster.errors import ConfigError, DataError
from spectral_forecaster.numeric.tensor import rfft_kernel

from reference import load_csv_per_cell

FIXTURES = Path(__file__).parent / "fixtures"


class TestLoadCsv:
    def test_tiny_fixture(self):
        rs = load_csv(FIXTURES / "tiny.csv")
        assert rs.channel_names == ("load", "temp")
        assert rs.values.shape == (3, 2)
        assert rs.values[0, 0] == 5.827
        assert rs.values[2, 1] == 1.741

    def test_ett_style_header(self):
        rs = load_csv(FIXTURES / "etth1_head.csv")
        assert rs.n_channels == 7
        assert rs.channel_names[-1] == "OT"

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv")

    def test_ragged_row_names_row(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("date,a,b\n1,1.0,2.0\n2,3.0\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(p)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("date,a,b\n1,1.0,2.0\n2,oops,4.0\n")
        with pytest.raises(DataError, match="row 3, column 2"):
            load_csv(p)

    def test_nan_cell_rejected(self, tmp_path):
        p = tmp_path / "gap.csv"
        p.write_text("date,a\n1,1.0\n2,nan\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(p)

    def test_header_only_rejected(self, tmp_path):
        p = tmp_path / "hdr.csv"
        p.write_text("date,a,b\n")
        with pytest.raises(DataError):
            load_csv(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(DataError):
            load_csv(p)

    def test_undecodable_text_is_a_data_error(self, tmp_path):
        # used to escape as UnicodeDecodeError, a ValueError: exit 2, not 3
        p = tmp_path / "latin1.csv"
        p.write_bytes("date,temp °C\n1,1.0\n2,2.0\n".encode("latin-1"))
        with pytest.raises(DataError, match="latin1.csv: not utf-8 text"):
            load_csv(p)

    @pytest.mark.parametrize("body, message", [
        # numpy's reader skips blank lines
        ("1,1.0,2.0\n\n2,3.0,4.0\n", "row 3 has 0 fields"),
        # with usecols numpy ignores fields past the last channel
        ("1,1.0,2.0,9.0\n2,3.0,4.0\n", "row 2 has 4 fields"),
        # the extra commas make up the blank line's missing ones
        ("1,1.0,2.0\n\n2,3.0,4.0,,\n", "row 3 has 0 fields"),
    ], ids=["blank", "extra", "blank-and-extra"])
    def test_rows_numpy_would_read_are_rejected(self, tmp_path, body, message):
        p = tmp_path / "rows.csv"
        p.write_text("date,a,b\n" + body)
        with pytest.raises(DataError, match=message):
            load_csv(p)

    @pytest.mark.parametrize("cell, value", [("1_000", 1000.0), (" -2.5\t", -2.5), ("١٢", 12.0)])
    def test_cells_only_float_reads_still_load(self, tmp_path, cell, value):
        p = tmp_path / "odd.csv"
        p.write_text(f"date,a\n1,1.0\n2,{cell}\n", encoding="utf-8")
        assert load_csv(p).values[1, 0] == value

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_line_ends_load_bit_identically(self, tmp_path, newline):
        rs = RawSeries(("a", "b"), np.random.default_rng(3).standard_normal((50, 2)) * 1e3)
        plain = tmp_path / "plain.csv"
        write_series_csv(plain, rs)
        p = tmp_path / "ends.csv"
        p.write_bytes(plain.read_bytes().replace(b"\n", newline.encode()))
        out = load_csv(p)
        assert out.values.tobytes() == rs.values.tobytes()
        assert out.values.tobytes() == load_csv_per_cell(p).values.tobytes()

    def test_wide_file_peak_memory_within_twice_the_result(self, tmp_path):
        rs = RawSeries(tuple(f"c{i}" for i in range(100)),
                       np.random.default_rng(0).standard_normal((2000, 100)))
        p = tmp_path / "wide.csv"
        write_series_csv(p, rs)
        tracemalloc.start()
        try:
            out = load_csv(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.values.tobytes() == rs.values.tobytes()
        assert peak <= 2 * out.values.nbytes


class TestRawSeries:
    def test_name_count_must_match(self):
        with pytest.raises(ValueError):
            RawSeries(("a",), np.zeros((4, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            RawSeries(("a",), np.array([[1.0], [np.nan]]))


class TestExcludeChannels:
    def series(self, d=7):
        vals = np.arange(5.0 * d).reshape(5, d)
        return RawSeries(tuple(f"ch{i}" for i in range(d)), vals)

    def test_remove_one_by_name(self):
        out = exclude_channels(self.series(), ["ch3"])
        assert out.n_channels == 6
        assert "ch3" not in out.channel_names
        np.testing.assert_array_equal(out.values, np.delete(self.series().values, 3, axis=1))

    def test_remove_one_by_index(self):
        out = exclude_channels(self.series(), [0])
        assert out.channel_names[0] == "ch1"

    def test_remove_none_is_identity(self):
        rs = self.series()
        out = exclude_channels(rs, [])
        assert out is rs

    def test_unknown_channel_rejected(self):
        with pytest.raises(ValueError, match="unknown channel"):
            exclude_channels(self.series(), ["watts"])
        with pytest.raises(ValueError, match="out of range"):
            exclude_channels(self.series(), [7])

    def test_channel_840_of_862(self):
        rs = RawSeries(
            tuple(str(i) for i in range(862)),
            np.random.default_rng(0).standard_normal((4, 862)),
        )
        out = exclude_channels(rs, [840])
        assert out.n_channels == 861
        assert "840" not in out.channel_names


class TestSplitSpec:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            SplitSpec(0.7, 0.2, 0.2)
        with pytest.raises(ConfigError):
            SplitSpec(0.7, -0.1, 0.4)

    @pytest.mark.parametrize("fracs", [(float("nan"), 0.1, 0.2), (0.7, float("nan"), 0.2),
                                       (0.7, 0.1, float("nan"))])
    def test_nan_fraction_rejected(self, fracs):
        # not at cut_points, where int(nan) would raise a ValueError
        with pytest.raises(ConfigError, match="positive"):
            SplitSpec(*fracs)

    def test_protocol_by_name(self):
        assert SplitSpec.for_name("ETTh1.csv") == SplitSpec.ett()
        assert SplitSpec.for_name("/data/ETTm2.csv").train_frac == 0.6
        assert SplitSpec.for_name("weather.csv") == SplitSpec()

    def test_explicit_boundaries(self):
        s = SplitSpec(boundaries=(100, 150))
        assert s.cut_points(200) == (100, 150)
        with pytest.raises(DataError, match="boundary 150 exceeds series length 120"):
            s.cut_points(120)
        with pytest.raises(ConfigError):
            SplitSpec(boundaries=(150, 100))


class TestWindowCount:
    def test_cited_values(self):
        assert window_count(300, 96, 96) == 109
        assert window_count(191, 96, 96) == 0
        assert window_count(192, 96, 96) == 1

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 2000), st.integers(1, 300), st.integers(1, 300))
    def test_formula(self, seg, lookback, horizon):
        n = window_count(seg, lookback, horizon)
        assert n == max(0, seg - (lookback + horizon) + 1)
        if n > 0:
            # last window must fit exactly inside the segment
            assert (n - 1) + lookback + horizon <= seg


class TestMakeWindows:
    def series(self, n=1000, d=3, seed=0):
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal((n, d)).cumsum(axis=0) + rng.uniform(-5, 5, d)
        return RawSeries(tuple(f"c{i}" for i in range(d)), vals)

    def test_counts_follow_protocol(self):
        rs = self.series(n=1000)
        ws = make_windows(rs, SplitSpec(), lookback=96, horizon=24)
        # train [0,700), val [700-96,800), test [800-96,1000)
        assert len(ws.train) == window_count(700, 96, 24)
        assert len(ws.val) == window_count(100 + 96, 96, 24)
        assert len(ws.test) == window_count(200 + 96, 96, 24)

    def test_train_segment_is_standardized(self):
        rs = self.series()
        ws = make_windows(rs, SplitSpec(), 96, 24)
        train_end, _ = SplitSpec().cut_points(rs.n_steps)
        norm = (rs.values[:train_end] - ws.mean) / ws.std
        assert np.abs(norm.mean(axis=0)).max() < 1e-9
        assert np.abs(norm.std(axis=0) - 1.0).max() < 1e-9

    def test_statistics_ignore_val_and_test(self):
        rs = self.series()
        tampered = rs.values.copy()
        train_end, _ = SplitSpec().cut_points(rs.n_steps)
        tampered[train_end:] += 1e6
        ws_a = make_windows(rs, SplitSpec(), 96, 24)
        ws_b = make_windows(RawSeries(rs.channel_names, tampered), SplitSpec(), 96, 24)
        np.testing.assert_array_equal(ws_a.mean, ws_b.mean)
        np.testing.assert_array_equal(ws_a.std, ws_b.std)
        for sa, sb in zip(ws_a.train, ws_b.train):
            np.testing.assert_array_equal(sa.input, sb.input)
            np.testing.assert_array_equal(sa.target, sb.target)

    def test_windows_are_contiguous_and_adjacent(self):
        rs = self.series(n=400)
        ws = make_windows(rs, SplitSpec(), 32, 8)
        norm = (rs.values - ws.mean) / ws.std
        for sample in [ws.train[0], ws.train[-1], ws.val[0], ws.test[-1]]:
            o = sample.origin
            np.testing.assert_array_equal(sample.input, norm[o:o + 32].T)
            np.testing.assert_array_equal(sample.target, norm[o + 32:o + 40].T)

    def test_val_extends_back_into_train_tail(self):
        rs = self.series(n=1000)
        ws = make_windows(rs, SplitSpec(), 96, 24)
        train_end, _ = SplitSpec().cut_points(rs.n_steps)
        assert ws.val[0].origin == train_end - 96

    def test_too_short_segment_names_itself(self):
        rs = self.series(n=191)
        with pytest.raises(DataError, match="train"):
            make_windows(rs, SplitSpec(), 96, 96)

    def test_train_segment_without_statistics_is_a_data_error(self):
        with pytest.raises(DataError, match="train segment of length 1 has no statistics"):
            make_windows(self.series(n=300), SplitSpec(boundaries=(1, 150)), 4, 4)

    def test_nonpositive_lookback_stays_a_contract_error(self):
        with pytest.raises(ValueError, match="lookback and horizon must be >= 1") as info:
            make_windows(self.series(), SplitSpec(), 0, 4)
        assert not isinstance(info.value, DataError)

    def test_constant_channel_rejected(self):
        vals = np.ones((500, 2))
        vals[:, 0] = np.arange(500.0)
        rs = RawSeries(("a", "b"), vals)
        with pytest.raises(DataError, match="b"):
            make_windows(rs, SplitSpec(), 32, 8)

    def test_deterministic(self):
        rs = self.series()
        a = make_windows(rs, SplitSpec(), 96, 24)
        b = make_windows(rs, SplitSpec(), 96, 24)
        np.testing.assert_array_equal(
            stack_windows(a.test)[0], stack_windows(b.test)[0]
        )

    def test_streams_index_like_lists(self):
        rs = self.series(n=400)
        ws = make_windows(rs, SplitSpec(), 32, 8)
        assert isinstance(ws.train, WindowStream)
        listed = list(ws.train)
        assert len(listed) == len(ws.train)
        for i in (np.int64(0), np.int32(5), -1, len(ws.train) - 1):
            assert ws.train[i].origin == listed[i].origin
            np.testing.assert_array_equal(ws.train[i].input, listed[i].input)
        head = ws.test[:5]
        assert isinstance(head, WindowStream) and len(head) == 5
        assert [s.origin for s in head] == [s.origin for s in list(ws.test)[:5]]
        with pytest.raises(IndexError):
            ws.val[len(ws.val)]

    def test_samples_are_views_of_one_series(self):
        ws = make_windows(self.series(n=400), SplitSpec(), 32, 8)
        # the last train target is the tail of the first val input
        assert np.shares_memory(ws.train[-1].target, ws.val[0].input)
        assert not ws.train[0].input.flags.owndata

    def test_windowing_holds_no_array_per_window(self):
        rs = self.series(n=20_000, d=7)
        tracemalloc.start()
        try:
            ws = make_windows(rs, SplitSpec(), 96, 96)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ws.train) + len(ws.val) + len(ws.test) > 19_000
        # the normalized series, its finiteness mask and a few small objects
        assert peak <= 2 * rs.values.nbytes

    def test_overflowing_statistics_rejected_without_warnings(self):
        vals = self.series(n=400).values.copy()
        vals[3, 1] = vals[4, 1] = 1e308  # finite, but their sum is not
        rs = RawSeries(("c0", "c1", "c2"), vals)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=r"too large to normalize.*'c1'"):
                make_windows(rs, SplitSpec(), 32, 8)

    def test_stack_shapes(self):
        ws = make_windows(self.series(n=400, d=3), SplitSpec(), 32, 8)
        x, y = stack_windows(ws.train)
        assert x.shape == (len(ws.train), 3, 32)
        assert y.shape == (len(ws.train), 3, 8)
        with pytest.raises(ValueError):
            stack_windows([])


class TestSyntheticSpec:
    def test_defaults(self):
        spec = SyntheticSpec()
        assert spec.length == 2000
        assert spec.noise == 0.0
        amps = [c[0] for c in spec.components]
        assert amps == [1.0, 0.6, 0.4]

    def test_frequency_ordering_enforced(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(components=((1, 0.3, 0), (0.6, 0.2, 0), (0.4, 0.4, 0)))

    def test_nyquist_enforced(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(components=((1, 0.1, 0), (0.6, 0.2, 0), (0.4, 0.5, 0)))

    def test_exactly_three_components(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(components=((1, 0.1, 0), (0.6, 0.2, 0)))

    def test_json_round_trip(self, tmp_path):
        spec = SyntheticSpec(length=512, noise=0.1)
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(dataclasses.asdict(spec)))
        assert load_synthetic_spec(p) == spec

    def test_bad_json_rejected(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            load_synthetic_spec(p)
        p.write_text('{"length": 512, "wavelength": 3}')
        with pytest.raises(ConfigError, match="wavelength"):
            load_synthetic_spec(p)


class TestSynthThreeSine:
    def test_zero_amplitudes_zero_signal(self):
        spec = SyntheticSpec(components=((0, 0.05, 0), (0, 0.1, 0), (0, 0.2, 0)))
        rs = synth_three_sine(spec)
        np.testing.assert_array_equal(rs.values, np.zeros((2000, 1)))

    def test_single_component_concentrates_in_one_bin(self):
        # amplitude 1 at 2 cycles per 96-step window; other components zeroed
        spec = SyntheticSpec(
            components=((1.0, 2 / 96, 0.0), (0.0, 10 / 96, 0.0), (0.0, 30 / 96, 0.0)),
            length=960,
        )
        rs = synth_three_sine(spec)
        amps = np.hypot(*rfft_kernel(rs.values[:96, 0]))
        assert amps.argmax() == 2
        others = np.delete(amps, 2)
        assert others.max() < 1e-9 * amps[2] + 1e-12

    def test_default_spec_has_exactly_three_peaks(self):
        rs = synth_three_sine(SyntheticSpec())
        amps = np.hypot(*rfft_kernel(rs.values[:96, 0]))
        dominant = np.flatnonzero(amps > 1e-6)
        assert sorted(dominant.tolist()) == [2, 10, 30]
        # and their ranking matches the amplitudes
        assert amps[2] > amps[10] > amps[30]

    def test_noise_requires_rng(self):
        spec = SyntheticSpec(noise=0.1)
        with pytest.raises(ValueError):
            synth_three_sine(spec)

    def test_deterministic_given_seed(self):
        spec = SyntheticSpec(noise=0.1)
        a = synth_three_sine(spec, np.random.default_rng(5))
        b = synth_three_sine(spec, np.random.default_rng(5))
        np.testing.assert_array_equal(a.values, b.values)

    def test_windows_from_synthetic(self):
        ws = make_windows(synth_three_sine(SyntheticSpec()), SplitSpec(), 96, 96)
        assert len(ws.train) == window_count(1400, 96, 96)
        x, y = stack_windows(ws.train)
        assert x.shape[1:] == (1, 96)
        assert y.shape[1:] == (1, 96)
