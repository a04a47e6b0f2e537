"""Config-file experiments: full runs, ablation sweeps, spectrum exports.

An experiment is one YAML file naming the data source (CSV path or synthetic
spec), the model and training settings, and an output directory. Everything
downstream is seeded from TrainConfig.seed through fixed substreams (0 model
init, 1 batch shuffling, 2 dropout, 3 synthetic noise), so rerunning a config
reproduces every output file byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from .data import (
    RawSeries,
    SplitSpec,
    SyntheticSpec,
    WindowSet,
    exclude_channels,
    load_csv,
    make_windows,
    stack_windows,
    synth_three_sine,
)
from .errors import ConfigError, config_int, config_section
from .fileio import atomic_write, write_csv
from .model import FilterFormer, ModelConfig, count_parameters, save_checkpoint
from .numeric.tensor import rfft_kernel
from .spectral import amplitude_spectrum
from .training import Metrics, TrainConfig, evaluate, fit


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """One run: data source, model, optimizer, split, and output destination.

    Exactly one of `dataset` (CSV path) and `synthetic` must be set. The
    model is retrained once per entry in `horizons`, which defaults to the
    model's own horizon; `model.horizon` is set to the first, the horizon
    every single-model command uses. A YAML file names `exclude` as
    `exclude_channels`.
    """

    model: ModelConfig
    train: TrainConfig = TrainConfig()
    split: SplitSpec = SplitSpec()
    dataset: str | None = None
    synthetic: SyntheticSpec | None = None
    exclude: tuple[int | str, ...] = dataclasses.field(
        default=(), metadata={"key": "exclude_channels"})
    horizons: tuple[int, ...] = ()
    out_dir: str = "runs"
    tag: str = "run"

    def __post_init__(self):
        if (self.dataset is None) == (self.synthetic is None):
            raise ConfigError("exactly one of dataset and synthetic must be set")
        if not self.horizons:
            object.__setattr__(self, "horizons", (self.model.horizon,))
        horizons = tuple(config_int(f"horizons.{i}", h) for i, h in enumerate(self.horizons))
        if any(h < 1 for h in horizons):
            raise ConfigError(f"horizons must be >= 1, got {horizons}")
        if len(set(horizons)) != len(horizons):
            # each horizon names its own files and metrics row, so a repeat would train twice
            raise ConfigError(f"horizons must be distinct, got {horizons}")
        object.__setattr__(self, "horizons", horizons)
        object.__setattr__(self, "model", dataclasses.replace(self.model, horizon=horizons[0]))
        object.__setattr__(self, "exclude", tuple(self.exclude))
        if not self.tag or any(c in self.tag for c in "/\\"):
            raise ConfigError(f"tag must be a nonempty path-free name, got {self.tag!r}")


@dataclasses.dataclass
class RunReport:
    """What a finished run produced; every listed artifact exists on disk."""

    tag: str
    metrics: list[tuple[int, Metrics]]
    param_counts: dict[int, int]
    epochs_run: dict[int, int]
    best_epochs: dict[int, int]
    artifacts: list[str]

    def to_dict(self, relative_to=None) -> dict:
        paths = self.artifacts
        if relative_to is not None:
            # keep the report portable: a moved run directory stays valid
            paths = [os.path.relpath(p, relative_to) for p in paths]
        return {
            "tag": self.tag,
            "metrics": {
                str(h): {"mse": m.mse, "mae": m.mae} for h, m in self.metrics
            },
            "param_counts": {str(h): c for h, c in self.param_counts.items()},
            "epochs_run": {str(h): e for h, e in self.epochs_run.items()},
            "best_epochs": {str(h): e for h, e in self.best_epochs.items()},
            "artifacts": list(paths),
        }


def tiny_experiment_config(out_dir: str = "runs/tiny") -> ExperimentConfig:
    """Smoke-test preset: 2-layer, width-8 model on a short synthetic series."""
    return ExperimentConfig(
        model=ModelConfig(lookback=16, horizon=8, patch_len=4, d_model=8,
                          n_heads=2, total_layers=2, alpha=1, dropout=0.0),
        train=TrainConfig(learning_rate=1e-3, batch_size=32, max_epochs=5, patience=5),
        synthetic=SyntheticSpec(length=400),
        horizons=(8,),
        out_dir=out_dir,
        tag="tiny",
    )


def load_experiment_config(path) -> ExperimentConfig:
    """Parse a YAML experiment file; every schema problem raises ConfigError."""
    import yaml  # here, so that a start that reads no YAML never loads it

    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except (yaml.YAMLError, RecursionError) as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: experiment config must be a mapping")
    try:
        model = raw.get("model")
        if isinstance(model, dict) and "horizon" not in model:
            horizons = raw.get("horizons")
            if not (isinstance(horizons, list) and horizons):
                raise ConfigError("set model.horizon or a horizons list")
            model["horizon"] = config_int("horizons.0", horizons[0])
        if raw.get("split") is None:  # absent or null: the dataset's standard protocol
            raw["split"] = dataclasses.asdict(SplitSpec.for_name(raw.get("dataset") or ""))
        return config_section(ExperimentConfig, raw, "")
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def synth_series(spec: SyntheticSpec, seed: int) -> RawSeries:
    """The synthetic series ``spec`` describes, its noise drawn from substream 3."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng([seed, 3]) if spec.noise > 0 else None
    return synth_three_sine(spec, rng)


def load_series(config: ExperimentConfig) -> RawSeries:
    """Materialize the configured data source and apply channel exclusions."""
    if config.dataset is not None:
        series = load_csv(config.dataset)
    else:
        series = synth_series(config.synthetic, config.train.seed)
    return exclude_channels(series, config.exclude)


def init_model(model_cfg: ModelConfig, seed: int) -> FilterFormer:
    """A fresh model, its random init drawn from substream 0."""
    return FilterFormer(model_cfg, np.random.default_rng([seed, 0]))


PROBE_SAMPLES = 64  # test samples the probe spectrum is taken over


def probe_rows(samples) -> np.ndarray:
    """The first PROBE_SAMPLES samples as (rows, lookback), one row per channel."""
    x, _ = stack_windows(samples[:PROBE_SAMPLES])
    return x.reshape(-1, x.shape[-1])


def _train_once(config: ExperimentConfig, model_cfg: ModelConfig,
                series: RawSeries) -> tuple[FilterFormer, object, Metrics, WindowSet]:
    windows = make_windows(series, config.split, model_cfg.lookback, model_cfg.horizon)
    model = init_model(model_cfg, config.train.seed)
    result = fit(model, windows, config.train)
    return model, result, evaluate(model, windows.test), windows


def run(config: ExperimentConfig) -> RunReport:
    """Train and evaluate at each configured horizon; write all artifacts."""
    series = load_series(config)
    os.makedirs(config.out_dir, exist_ok=True)
    artifacts: list[str] = []
    metrics_rows: list[tuple[int, Metrics]] = []
    param_counts: dict[int, int] = {}
    epochs_run: dict[int, int] = {}
    best_epochs: dict[int, int] = {}

    for horizon in config.horizons:
        model_cfg = dataclasses.replace(config.model, horizon=horizon)
        model, result, metrics, windows = _train_once(config, model_cfg, series)
        metrics_rows.append((horizon, metrics))
        param_counts[horizon] = count_parameters(model)[0]
        epochs_run[horizon] = result.stopped_epoch
        best_epochs[horizon] = result.best_epoch

        base = os.path.join(config.out_dir, f"{config.tag}_h{horizon}")
        write_csv(base + "_loss.csv", ("epoch", "train_mse", "val_mse"), result.history)
        artifacts.append(base + "_loss.csv")
        save_checkpoint(model, base + ".ckpt")
        artifacts.append(base + ".ckpt")
        if model.spectral_filters():
            probe = probe_rows(windows.test)
            artifacts.extend(
                export_spectra(model, probe, config.out_dir, f"{config.tag}_h{horizon}")
            )

    metrics_path = os.path.join(config.out_dir, f"{config.tag}_metrics.csv")
    _write_metrics_table(metrics_path, "horizon", metrics_rows)
    artifacts.append(metrics_path)

    report = RunReport(
        tag=config.tag, metrics=metrics_rows, param_counts=param_counts,
        epochs_run=epochs_run, best_epochs=best_epochs, artifacts=artifacts,
    )
    report_path = os.path.join(config.out_dir, f"{config.tag}_report.json")
    report.artifacts.append(report_path)
    with atomic_write(report_path) as fh:
        json.dump(report.to_dict(relative_to=config.out_dir), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def _write_metrics_table(path, column: str, rows) -> None:
    """CSV of ``column,mse,mae``: one row per (setting, Metrics) pair."""
    write_csv(path, (column, "mse", "mae"), [(s, m.mse, m.mae) for s, m in rows])


def _sweep(config: ExperimentConfig, column: str, settings) -> tuple[list, str]:
    """Train one model per (label, ModelConfig) pair, all sharing the seed."""
    labels = tuple(label for label, _ in settings)
    if len(set(labels)) != len(labels):
        # each label names one table row, so a repeat would train the same model twice
        raise ConfigError(f"{column} values must be distinct, got {labels}")
    series = load_series(config)
    os.makedirs(config.out_dir, exist_ok=True)
    rows = []
    for label, model_cfg in settings:
        _, _, metrics, _ = _train_once(config, model_cfg, series)
        rows.append((label, metrics))
    path = os.path.join(config.out_dir, f"{config.tag}_ablate_{column}.csv")
    _write_metrics_table(path, column, rows)
    return rows, path


def ablate_layers(config: ExperimentConfig, attention_counts) -> tuple[list, str]:
    """Sweep attention-block count with the spectral count fixed at model.alpha."""
    counts = [config_int(f"attention_counts.{i}", n) for i, n in enumerate(attention_counts)]
    if not counts:
        raise ConfigError("attention-count list is empty")
    if any(n < 0 for n in counts):
        raise ConfigError(f"attention counts must be >= 0, got {counts}")
    base = config.model
    settings = [
        (n, dataclasses.replace(base, total_layers=base.alpha + n))
        for n in counts
    ]
    return _sweep(config, "attention_blocks", settings)


def ablate_alpha(config: ExperimentConfig, alphas) -> tuple[list, str]:
    """Sweep the spectral-block count with total depth fixed at model.total_layers."""
    values = [config_int(f"alphas.{i}", a) for i, a in enumerate(alphas)]
    if not values:
        raise ConfigError("alpha list is empty")
    settings = [(a, dataclasses.replace(config.model, alpha=a)) for a in values]
    return _sweep(config, "alpha", settings)


def ablate_filter_placement(config: ExperimentConfig) -> tuple[list, str]:
    """Train both filter placements plus the filterless baseline, same seed.

    All three rows hold the same ``total_layers - alpha`` attention blocks;
    they differ only in the filters and where those sit.
    """
    base = config.model
    if base.alpha < 1:
        raise ConfigError("placement ablation needs alpha >= 1 in the base model")
    if base.alpha == base.total_layers:
        raise ConfigError(
            f"placement ablation needs at least one attention block: "
            f"alpha={base.alpha} equals total_layers={base.total_layers}"
        )
    settings = [
        ("post-embedding", dataclasses.replace(base, filter_placement="post-embedding")),
        ("pre-embedding", dataclasses.replace(base, filter_placement="pre-embedding")),
        ("none", dataclasses.replace(base, alpha=0, total_layers=base.total_layers - base.alpha,
                                     filter_placement="post-embedding")),
    ]
    return _sweep(config, "placement", settings)


def _mean_amplitude(rows: np.ndarray) -> np.ndarray:
    """Mean rfft magnitude over all leading axes; rows transform along axis -1."""
    re, im = rfft_kernel(rows)
    return np.hypot(re, im).reshape(-1, re.shape[-1]).mean(axis=0)


def export_spectra(model: FilterFormer, probe: np.ndarray, out_dir, tag: str) -> list[str]:
    """Write per-filter amplitude spectra and the pre/post-filter probe spectrum.

    Produces {tag}_filter{i}.csv (bin_index,amplitude) for each filter and
    {tag}_embedding_spectrum.csv (bin_index,pre_amplitude,post_amplitude)
    from the first filter's input/output on the probe rows.
    """
    filters = model.spectral_filters()
    if not filters:
        raise ConfigError("model has no spectral filters (alpha is 0); nothing to export")
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i, f in enumerate(filters):
        path = os.path.join(out_dir, f"{tag}_filter{i}.csv")
        write_csv(path, ("bin_index", "amplitude"), enumerate(amplitude_spectrum(f)))
        paths.append(path)

    fin, fout = model.filter_probe(probe)
    pre = _mean_amplitude(fin)
    post = _mean_amplitude(fout)
    path = os.path.join(out_dir, f"{tag}_embedding_spectrum.csv")
    write_csv(path, ("bin_index", "pre_amplitude", "post_amplitude"),
              zip(range(len(pre)), pre, post))
    paths.append(path)
    return paths
