"""CSV ingestion, split windowing, channel exclusion, synthetic sine mixes.

The on-disk layout is the usual long-horizon benchmark CSV: a timestamp
column followed by one numeric column per channel. The timestamp is parsed
for validation but never fed to the model. Windowing follows the standard
protocol: contiguous train/val/test segments by index, z-normalization with
train-segment statistics only, and val/test segments extended backward by
one lookback so their first forecast origin sits at the segment boundary.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, config_section
from .fileio import write_csv


@dataclass(frozen=True, eq=False)
class RawSeries:
    """A fully loaded multichannel series: values is (T, D), no gaps allowed."""

    channel_names: tuple[str, ...]
    values: np.ndarray
    frequency: str = ""  # informational sampling label, e.g. "1h"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D (steps, channels), got shape {values.shape}")
        if values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError(f"series needs at least one step and one channel, got {values.shape}")
        names = tuple(self.channel_names)
        if len(names) != values.shape[1]:
            raise ValueError(
                f"{len(names)} channel names for {values.shape[1]} channels"
            )
        if not np.isfinite(values).all():
            raise DataError("series contains missing or non-finite values")
        object.__setattr__(self, "channel_names", names)
        object.__setattr__(self, "values", values)

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]


def load_csv(path) -> RawSeries:
    """Load a timestamp-plus-channels CSV into a RawSeries.

    Rejects ragged rows, non-numeric cells, and missing values, naming the
    offending row and column (1-based, header is row 1), and text that is
    not in the locale's encoding. A missing file raises the usual OSError
    from open().

    The file is read with no Python object per cell: a check pass over
    fixed-size chunks, then one pass of numpy's C text reader over the
    channel columns. Any file on which that reader and ``float`` could
    disagree, or that it cannot take whole, goes to the cell-by-cell scan,
    which decides every error, so each value is bit-identical to
    ``float(cell)``.
    """
    try:
        with open(path) as fh:
            header = fh.readline()
            values = _bulk_values(fh, header)
        if values is None:
            return _scan_csv(path)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not {exc.encoding} text: {exc.reason}") from None
    names = tuple(name.strip() for name in header.rstrip("\n").split(",")[1:])
    return RawSeries(names, values)


# quotes need csv's rules; numpy strips the separators \x1c-\x1f around a
# number as whitespace, float() does not. Agreement on every other character
# is tested for ASCII only, so other text goes to the scan too.
_BULK_DECLINES = '"\x1c\x1d\x1e\x1f'


def _bulk_values(fh, header: str) -> np.ndarray | None:
    """The (rows, channels) block below ``header``, or None to leave the file to the scan.

    ``fh`` is a text file in universal-newline mode, positioned after the
    header. A first pass over fixed-size chunks checks the characters and
    counts commas and lines. numpy's reader then fails on any line with too
    few fields, so one total of ``rows * (fields - 1)`` commas leaves no
    line with too many; a blank line, which numpy skips, shows as a missing
    row.
    """
    fields = header.count(",") + 1
    if fields < 2 or '"' in header:
        return None
    commas = lines = 0
    last = "\n"
    while chunk := fh.read(1 << 16):
        if not chunk.isascii() or any(ch in chunk for ch in _BULK_DECLINES):
            return None
        commas += chunk.count(",")
        lines += chunk.count("\n")
        last = chunk[-1]
    rows = lines + (last != "\n")
    if rows == 0 or commas != rows * (fields - 1):
        return None
    fh.seek(0)
    try:
        values = np.loadtxt(fh, delimiter=",", comments=None, skiprows=1,
                            usecols=range(1, fields), ndmin=2)
    except ValueError:
        return None
    if len(values) != rows or not np.isfinite(values).all():
        return None
    return values


def _scan_csv(path) -> RawSeries:
    """``load_csv`` one cell at a time with ``float``: the path that names every fault."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if len(header) < 2:
            raise DataError(f"{path}: need a timestamp column plus at least one channel")
        names = tuple(name.strip() for name in header[1:])
        rows = []
        for row_idx, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(
                    f"{path}: row {row_idx} has {len(row)} fields, expected {len(header)}"
                )
            parsed = []
            for col_idx, cell in enumerate(row[1:], start=2):
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: row {row_idx}, column {col_idx}: not a number: {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise DataError(
                        f"{path}: row {row_idx}, column {col_idx}: missing or non-finite value"
                    )
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return RawSeries(names, np.array(rows))


def exclude_channels(rs: RawSeries, channels) -> RawSeries:
    """Drop channels by name or integer index; order of the rest is preserved."""
    if not channels:
        return rs
    drop = set()
    for ch in channels:
        if isinstance(ch, (int, np.integer)) and not isinstance(ch, bool):
            if not 0 <= int(ch) < rs.n_channels:
                raise ValueError(
                    f"channel index {ch} out of range for {rs.n_channels} channels"
                )
            drop.add(int(ch))
        else:
            try:
                drop.add(rs.channel_names.index(ch))
            except ValueError:
                raise ValueError(f"unknown channel {ch!r}") from None
    if len(drop) == rs.n_channels:
        raise ValueError("cannot exclude every channel")
    keep = [i for i in range(rs.n_channels) if i not in drop]
    return RawSeries(
        tuple(rs.channel_names[i] for i in keep), rs.values[:, keep], rs.frequency
    )


@dataclass(frozen=True)
class SplitSpec:
    """Chronological train/val/test boundaries, by fraction or explicit index.

    When `boundaries` is set it gives (train_end, val_end) as absolute step
    indices and the fractions are ignored; test always runs to the end.
    """

    train_frac: float = 0.7
    val_frac: float = 0.1
    test_frac: float = 0.2
    boundaries: tuple[int, int] | None = None

    def __post_init__(self):
        if self.boundaries is not None:
            if not (len(self.boundaries) == 2 and all(isinstance(v, int) for v in self.boundaries)
                    and 0 < self.boundaries[0] < self.boundaries[1]):
                raise ConfigError(f"boundaries must be increasing positive ints, got {self.boundaries}")
            return
        fracs = (self.train_frac, self.val_frac, self.test_frac)
        if any(not f > 0 for f in fracs):  # also rejects NaN
            raise ConfigError(f"split fractions must be positive, got {fracs}")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ConfigError(f"split fractions must sum to 1, got {fracs}")

    @classmethod
    def ett(cls) -> "SplitSpec":
        return cls(train_frac=0.6, val_frac=0.2, test_frac=0.2)

    @classmethod
    def for_name(cls, name: str) -> "SplitSpec":
        """Pick the standard protocol for a dataset by file name."""
        stem = str(name).replace("\\", "/").rsplit("/", 1)[-1]
        if stem.lower().startswith("ett"):
            return cls.ett()
        return cls()

    def cut_points(self, n_steps: int) -> tuple[int, int]:
        if self.boundaries is not None:
            a, b = self.boundaries
            if b > n_steps:
                raise DataError(f"boundary {b} exceeds series length {n_steps}")
            return a, b
        a = int(n_steps * self.train_frac)
        return a, a + int(n_steps * self.val_frac)


@dataclass(frozen=True, eq=False)
class WindowSample:
    """One supervised pair: input (D, L) directly precedes target (D, H).

    `origin` is the absolute index of the input's first step in the full
    series. Arrays are views into the normalized series; copy before mutating.
    """

    input: np.ndarray
    target: np.ndarray
    origin: int


@dataclass(frozen=True, eq=False)
class WindowStream(Sequence):
    """The sliding windows of one segment, cut from the normalized series when read.

    Item ``i`` (a numpy integer works too) is the WindowSample whose input
    starts at ``origins[i]``; its arrays are views made on that read, so the
    stream holds no array per window. A slice is again a stream.
    """

    series: np.ndarray  # the whole normalized series, (T, D)
    origins: range
    lookback: int
    horizon: int

    def __len__(self) -> int:
        return len(self.origins)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return WindowStream(self.series, self.origins[i], self.lookback, self.horizon)
        start = self.origins[i]
        mid = start + self.lookback
        return WindowSample(self.series[start:mid].T, self.series[mid:mid + self.horizon].T, start)


@dataclass(eq=False)
class WindowSet:
    train: Sequence[WindowSample]
    val: Sequence[WindowSample]
    test: Sequence[WindowSample]
    mean: np.ndarray  # per-channel train-segment statistics, shape (D,)
    std: np.ndarray


def window_count(segment_length: int, lookback: int, horizon: int) -> int:
    """Sliding-origin count: segment_length - (lookback + horizon) + 1, floored at 0."""
    return max(0, segment_length - (lookback + horizon) + 1)


def make_windows(rs: RawSeries, split: SplitSpec, lookback: int, horizon: int) -> WindowSet:
    """Cut a series into normalized train/val/test window streams.

    All three splits are z-normalized with statistics from the train segment
    alone. Val and test segments are extended backward by `lookback` steps so
    every step after the boundary is forecast exactly once.
    """
    if lookback < 1 or horizon < 1:
        raise ValueError(f"lookback and horizon must be >= 1, got {lookback}, {horizon}")
    train_end, val_end = split.cut_points(rs.n_steps)
    train_vals = rs.values[:train_end]
    if train_end < 2:
        raise DataError(f"train segment of length {train_end} has no statistics")
    with np.errstate(all="ignore"):  # overflow is reported below, as a DataError
        mean = train_vals.mean(axis=0)
        std = train_vals.std(axis=0)  # population, matching the usual scaler
        norm = rs.values - mean
        norm /= std
    flat = std == 0.0
    if flat.any():
        names = [rs.channel_names[i] for i in np.flatnonzero(flat)]
        raise DataError(f"constant train-segment channels cannot be normalized: {names}")
    overflow = ~(np.isfinite(std) & np.isfinite(norm).all(axis=0))
    if overflow.any():
        names = [rs.channel_names[i] for i in np.flatnonzero(overflow)]
        raise DataError(f"channels too large to normalize in float64: {names}")

    segments = {
        "train": (0, train_end),
        "val": (max(0, train_end - lookback), val_end),
        "test": (max(0, val_end - lookback), rs.n_steps),
    }
    streams: dict[str, WindowStream] = {}
    for name, (a, b) in segments.items():
        count = window_count(b - a, lookback, horizon)
        if count < 1:
            raise DataError(
                f"{name} segment of length {b - a} is too short for "
                f"lookback {lookback} + horizon {horizon}"
            )
        streams[name] = WindowStream(norm, range(a, a + count), lookback, horizon)
    return WindowSet(
        train=streams["train"], val=streams["val"], test=streams["test"],
        mean=mean, std=std,
    )


def stack_windows(samples) -> tuple[np.ndarray, np.ndarray]:
    """Stack samples into contiguous (n, D, L) inputs and (n, D, H) targets."""
    samples = list(samples)
    if not samples:
        raise ValueError("no samples to stack")
    x = np.stack([s.input for s in samples])
    y = np.stack([s.target for s in samples])
    return x, y


def write_series_csv(path, rs: RawSeries) -> None:
    """Write a RawSeries in the load_csv layout; the timestamp is the step index."""
    write_csv(path, ("date", *rs.channel_names), ([t, *row] for t, row in enumerate(rs.values)))


DEFAULT_COMPONENTS = (
    (1.0, 2 / 96, 0.0),
    (0.6, 10 / 96, 0.0),
    (0.4, 30 / 96, 0.0),
)


@dataclass(frozen=True)
class SyntheticSpec:
    """Three-sine mixture: (amplitude, cycles-per-step frequency, phase) each.

    Frequencies must be strictly increasing and below Nyquist (0.5). The
    defaults sit at bins 2, 10 and 30 of a 96-step window's 49 bins: two in
    the lower third, one in the middle third, none in the upper. Their sum
    repeats every 48 steps, so without noise a 96-step horizon repeats the
    96-step window.
    """

    components: tuple[tuple[float, float, float], ...] = DEFAULT_COMPONENTS
    length: int = 2000
    noise: float = 0.0

    def __post_init__(self):
        comps = tuple(tuple(float(v) for v in c) for c in self.components)
        if len(comps) != 3 or any(len(c) != 3 for c in comps):
            raise ConfigError(
                f"expected exactly three (amplitude, frequency, phase) components, got {self.components!r}"
            )
        freqs = [c[1] for c in comps]
        if not (0.0 < freqs[0] < freqs[1] < freqs[2]):
            raise ConfigError(f"frequencies must be strictly increasing and positive, got {freqs}")
        if freqs[2] >= 0.5:
            raise ConfigError(f"frequency {freqs[2]} is at or above Nyquist (0.5 cycles/step)")
        if any(c[0] < 0 for c in comps):
            raise ConfigError("amplitudes must be nonnegative")
        if self.length < 2:
            raise ConfigError(f"length must be >= 2, got {self.length}")
        if not self.noise >= 0:  # also rejects NaN
            raise ConfigError(f"noise must be >= 0, got {self.noise}")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "length", int(self.length))
        object.__setattr__(self, "noise", float(self.noise))


def synth_three_sine(spec: SyntheticSpec, rng: np.random.Generator | None = None) -> RawSeries:
    """Evaluate x_t = sum_j A_j sin(2 pi f_j t + phi_j) (+ noise) as one channel."""
    t = np.arange(spec.length, dtype=np.float64)
    x = np.zeros(spec.length)
    with np.errstate(over="ignore", invalid="ignore"):  # RawSeries rejects what overflows
        for amp, freq, phase in spec.components:
            x = x + amp * np.sin(2.0 * np.pi * freq * t + phase)
        if spec.noise > 0:
            if rng is None:
                raise ValueError("noise > 0 requires an rng")
            x = x + spec.noise * rng.standard_normal(spec.length)
    return RawSeries(("synthetic",), x[:, None], frequency="synthetic")


def load_synthetic_spec(path) -> SyntheticSpec:
    """Read a SyntheticSpec from a JSON file with keys components/length/noise."""
    try:
        with open(path) as fh:
            return config_section(SyntheticSpec, json.load(fh), "synthetic")
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"{path}: invalid synthetic spec JSON: {exc}") from exc
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
