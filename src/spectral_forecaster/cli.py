"""Command-line front end: runs, ablations, spectrum export, utilities.

Exit codes: 0 success, 2 configuration problems (including a size too large
to allocate), 3 data problems (missing or malformed files), 4 numeric failures
(divergence, non-finite values). Each error, and each warning, is one stderr
line.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings

from .errors import ConfigError, DataError, NumericError
from .experiments import (
    ExperimentConfig,
    ablate_alpha,
    ablate_filter_placement,
    ablate_layers,
    export_spectra,
    init_model,
    load_experiment_config,
    load_series,
    probe_rows,
    run,
    synth_series,
    tiny_experiment_config,
)
from .data import SyntheticSpec, load_synthetic_spec, make_windows, write_series_csv
from .model import count_parameters, load_checkpoint


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        values = ()
    if not values:
        raise ConfigError(f"{flag} expects a comma-separated integer list, got {text!r}")
    return values


def _parse_channel_list(text: str) -> tuple[int | str, ...]:
    tokens = (tok.strip() for tok in text.split(","))
    values = tuple(int(tok) if tok.isdigit() else tok for tok in tokens if tok)
    if not values:
        raise ConfigError(
            f"--exclude-channels expects a comma-separated list of channel names or indices, "
            f"got {text!r}"
        )
    return values


def _load_config(args) -> ExperimentConfig:
    if args.tiny and args.config:
        raise ConfigError("--tiny and --config are mutually exclusive")
    if args.tiny:
        config = tiny_experiment_config()
    elif args.config:
        config = load_experiment_config(args.config)
    else:
        raise ConfigError("pass --config <file> or --tiny")

    if args.seed is not None:
        config = dataclasses.replace(
            config, train=dataclasses.replace(config.train, seed=args.seed)
        )
    if args.out is not None:
        if not args.out:
            raise ConfigError("--out expects a directory path, got ''")
        config = dataclasses.replace(config, out_dir=args.out)
    if args.horizon is not None:
        config = dataclasses.replace(
            config, horizons=_parse_int_list(args.horizon, "--horizon")
        )
    if args.exclude_channels is not None:
        config = dataclasses.replace(
            config, exclude_channels=_parse_channel_list(args.exclude_channels)
        )
    return config


def _print_metric_rows(rows, label: str) -> None:
    for setting, metrics in rows:
        print(f"{label}={setting}: mse={metrics.mse:.6g} mae={metrics.mae:.6g}")


def cmd_run(args) -> int:
    config = _load_config(args)
    report = run(config)
    _print_metric_rows(report.metrics, "horizon")
    for horizon, count in report.param_counts.items():
        print(f"parameters (h={horizon}): {count}")
    print(f"wrote {len(report.artifacts)} files to {config.out_dir}")
    return 0


def cmd_ablate_layers(args) -> int:
    config = _load_config(args)
    counts = _parse_int_list(args.attention_blocks, "--attention-blocks")
    rows, path = ablate_layers(config, counts)
    _print_metric_rows(rows, "attention_blocks")
    print(f"wrote {path}")
    return 0


def cmd_ablate_alpha(args) -> int:
    config = _load_config(args)
    if args.alphas is not None:
        alphas = _parse_int_list(args.alphas, "--alphas")
    else:
        alphas = tuple(range(config.model.total_layers + 1))
    rows, path = ablate_alpha(config, alphas)
    _print_metric_rows(rows, "alpha")
    print(f"wrote {path}")
    return 0


def cmd_ablate_placement(args) -> int:
    config = _load_config(args)
    rows, path = ablate_filter_placement(config)
    _print_metric_rows(rows, "placement")
    print(f"wrote {path}")
    return 0


def cmd_export_spectra(args) -> int:
    config = _load_config(args)
    if args.checkpoint:
        model = load_checkpoint(args.checkpoint)
    else:
        model = init_model(config.model, config.train.seed)
    series = load_series(config)
    windows = make_windows(series, config.split, model.config.lookback, model.config.horizon)
    paths = export_spectra(model, probe_rows(windows.test), config.out_dir, config.tag)
    for path in paths:
        print(f"wrote {path}")
    return 0


def cmd_param_count(args) -> int:
    config = _load_config(args)
    total, breakdown = count_parameters(config.model)
    print(json.dumps({"total": total, "breakdown": breakdown}, indent=2, sort_keys=True))
    return 0


def cmd_synth(args) -> int:
    if not args.out:
        raise ConfigError("synth needs --out <csv path>")
    spec = load_synthetic_spec(args.spec) if args.spec else SyntheticSpec()
    series = synth_series(spec, args.seed if args.seed is not None else 0)
    write_series_csv(args.out, series)
    print(f"wrote {series.n_steps} steps to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectral-forecaster",
        description="Train and analyze frequency-filter transformer forecasters.",
        epilog="Set SPECTRAL_FORECASTER_THREADS to cap BLAS worker threads.",
    )
    sub = parser.add_subparsers(dest="command")

    def add_common(p):
        p.add_argument("--config", help="experiment YAML file")
        p.add_argument("--seed", type=int, help="override the training seed")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--horizon", help="comma-separated horizon list, e.g. 96,192")
        p.add_argument("--exclude-channels",
                       help="comma-separated channel names or indices to drop")
        p.add_argument("--tiny", action="store_true",
                       help="built-in smoke-test preset (width-8 model, synthetic data)")

    p = sub.add_parser("run", help="train and evaluate one configuration")
    add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("ablate-layers", help="sweep attention depth at fixed filter count")
    add_common(p)
    p.add_argument("--attention-blocks", default="0,1,2,4",
                   help="comma-separated attention-block counts")
    p.set_defaults(func=cmd_ablate_layers)

    p = sub.add_parser("ablate-alpha", help="sweep spectral-block count at fixed depth")
    add_common(p)
    p.add_argument("--alphas", help="comma-separated spectral-block counts (default 0..total)")
    p.set_defaults(func=cmd_ablate_alpha)

    p = sub.add_parser("ablate-placement", help="compare filter placements and no-filter baseline")
    add_common(p)
    p.set_defaults(func=cmd_ablate_placement)

    p = sub.add_parser("export-spectra", help="write filter and probe amplitude spectra")
    add_common(p)
    p.add_argument("--checkpoint", help="trained checkpoint; omitted means untrained weights")
    p.set_defaults(func=cmd_export_spectra)

    p = sub.add_parser("param-count", help="print the parameter count and its breakdown")
    add_common(p)
    p.set_defaults(func=cmd_param_count)

    p = sub.add_parser("synth", help="generate a synthetic three-sine CSV")
    p.add_argument("--spec", help="JSON synthetic spec (defaults built in)")
    p.add_argument("--seed", type=int, help="noise seed")
    p.add_argument("--out", help="destination CSV path")
    p.set_defaults(func=cmd_synth)

    return parser


def _warn_in_one_line(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) is None:
        parser.print_help()
        return 2
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _warn_in_one_line
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # library-level precondition failures on user-supplied values
        print(f"invalid value: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # sizes come from the config, so a refused allocation is a config problem;
        # Python's own allocator raises it without text, so the line names the run
        where = args.command
        if getattr(args, "tiny", False):
            where += " --tiny"
        elif getattr(args, "config", None):
            where += f" --config {args.config}"
        print(f"out of memory: {str(exc) or where}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
