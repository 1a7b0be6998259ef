"""Batch command line: design synthesis, sweep simulation, curve validation
and design-space sweeps. Deterministic machine-readable output; exit codes
0 = success, 2 = input error, 3 = model domain error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import geometry
from ._numeric import check_positive_finite
from .actuation import ActuationState, PressureSweep, simulate_cells, simulate_sweep
from .config import ConfigError, builtin_material, load_config, parse_ratio
from .errors import DomainError
from .geometry import MyofibrilSpec
from .validation import Curve, compare_curves, write_qq_csv

# (output column, ActuationState attribute) of every simulate column, in
# output order, which is also ActuationState's field order; the CSV header,
# CSV rows and JSON states all derive from it.
STATE_COLUMNS = (
    ("pressure_mpa", "pressure"),
    ("lambda_jz", "lambda_jz"),
    ("c_m", "c_m"),
    ("f_e_n", "f_e"),
    ("f_r_n", "f_r"),
    ("f_spa_n", "f_spa"),
    ("theta_rad", "theta"),
    ("f_contr_n", "f_contr"),
    ("r1_mm", "r1"),
    ("l_mf_mm", "l_mf"),
    ("length_ratio", "length_ratio"),
    ("ratio_flag", "ratio_flag"),
)
_STATE_KEYS = tuple(column for column, _ in STATE_COLUMNS)
# One CSV row per state, `_STATE_ROW % state`: numbers to six decimals, the
# flag as is. A JSON state is `dict(zip(_STATE_KEYS, state))`.
_STATE_ROW = ",".join("%s" if attr == "ratio_flag" else "%.6f" for _, attr in STATE_COLUMNS)


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_design(args: argparse.Namespace) -> int:
    for label, value in (("a-band", args.a_band), ("t-w", args.t_w), ("h-ch", args.h_ch)):
        check_positive_finite(f"--{label}", value)
    sarc = geometry.design_from_a_band(args.a_band)
    low, high = geometry.myosin_height_bounds(args.a_band, args.t_w, args.h_ch)
    lines = [
        f"a_band_mm={_fmt(sarc.a_band)}",
        f"i_band_mm={_fmt(sarc.i_band)}",
        f"actin_arc_mm={_fmt(sarc.actin_arc)}",
        f"rest_radius_mm={_fmt(sarc.rest_radius)}",
        f"myosin_height_min_mm={_fmt(low)}",
        f"myosin_height_max_mm={_fmt(high)}",
    ]
    print("\n".join(lines))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    spec = config.build_spec()
    sweep = config.sweep_for_material(config.material.name)
    states = simulate_sweep(spec, sweep)

    out_path = args.out or config.out_path
    fmt = args.format or config.out_format
    if fmt == "json":
        payload = {
            "metadata": {
                "material": config.material.name,
                "n": spec.n,
                "sweep": {"start": sweep.start, "end": sweep.end, "step": sweep.step},
            },
            "states": [dict(zip(_STATE_KEYS, s)) for s in states],
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out_path)
    else:
        lines = [",".join(_STATE_KEYS)]
        lines.extend(_STATE_ROW % s for s in states)
        _emit("\n".join(lines) + "\n", out_path)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    model = Curve.from_csv(args.model_csv, "model")
    reference = Curve.from_csv(args.reference_csv, "reference")
    report = compare_curves(model, reference, qq=args.qq, resample=args.resample)
    print(f"frechet_normalized_pct={_fmt(100.0 * report.frechet_normalized)}")
    print(f"frechet_raw={_fmt(report.frechet_raw)}")
    print(f"r_squared={_fmt(report.r_squared)}")
    if args.out:
        fmt = args.format or "json"
        if fmt == "json":
            Path(args.out).write_text(report.to_json(), encoding="utf-8")
        else:
            Path(args.out).write_text(report.to_csv_row(), encoding="utf-8")
            if report.qq_pairs is not None:
                write_qq_csv(report.qq_pairs, Path(args.out).with_suffix(".qq.csv"))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    names = [m.strip() for m in args.materials.split(",") if m.strip()]
    ratios = [parse_ratio(r) for r in args.ratios.split(",") if r.strip()]
    if not names or not ratios:
        raise ConfigError("sweep needs non-empty material and ratio lists")
    # A repeated ratio would print a second identical cell that the
    # per-material mean of maxima, keyed by ratio, weighs only once.
    seen: set[float] = set()
    for ratio in ratios:
        if ratio in seen:
            raise ConfigError(f"duplicate wall ratio {ratio} in --ratios")
        seen.add(ratio)
    materials = [builtin_material(name) for name in names]

    # Cells in material-then-ratio order, all evaluated in one pass. A cell
    # that fails to build is reported only when every cell before it
    # simulates, so an earlier cell's model error takes precedence.
    cells: list[tuple[MyofibrilSpec, PressureSweep]] = []
    try:
        for material in materials:
            sweep = config.sweep_for_material(material.name)
            for ratio in ratios:
                cells.append((config.spec_with_spa(config.spa_for_ratio(ratio), material), sweep))
    except ConfigError:
        simulate_cells(cells)
        raise
    results = iter(simulate_cells(cells))

    rows: list[tuple[str, float, list[ActuationState], float, float]] = []
    for name in names:
        cell_states = [(ratio, next(results)) for ratio in ratios]
        maxima = {ratio: max(s.f_spa for s in states) for ratio, states in cell_states}
        mean_max = math.fsum(maxima.values()) / len(maxima)
        rows.extend(
            (name, ratio, states, maxima[ratio], mean_max) for ratio, states in cell_states
        )

    out_path = args.out or config.out_path
    fmt = args.format or config.out_format
    h_ch = config.assumed_h_ch
    if fmt == "json":
        json_cells = [
            {
                "material": name,
                "tw_hch_ratio": ratio,
                "assumed_h_ch_mm": h_ch,
                "max_f_spa_n": top,
                "mean_max_f_spa_n": mean_max,
                "states": [dict(zip(_STATE_KEYS, s)) for s in states],
            }
            for name, ratio, states, top, mean_max in rows
        ]
        _emit(json.dumps({"cells": json_cells}, indent=2, sort_keys=True) + "\n", out_path)
    else:
        header = (
            "material",
            "tw_hch_ratio",
            "assumed_h_ch_mm",
            *_STATE_KEYS,
            "max_f_spa_n",
            "mean_max_f_spa_n",
        )
        lines = [",".join(header)]
        for name, ratio, states, top, mean_max in rows:
            head = f"{name},{ratio:.6f},{h_ch:.6f},"
            tail = f",{top:.6f},{mean_max:.6f}"
            lines.extend(head + _STATE_ROW % s + tail for s in states)
        _emit("\n".join(lines) + "\n", out_path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apmsim",
        description="Design and simulate pneumatic myofibrils built from "
        "sarcomere-like contraction units.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="derive sarcomere geometry from the A-band")
    p_design.add_argument("--a-band", type=float, required=True, help="A-band length, mm")
    p_design.add_argument("--t-w", type=float, required=True, help="wall thickness, mm")
    p_design.add_argument("--h-ch", type=float, required=True, help="channel height, mm")
    p_design.set_defaults(func=cmd_design)

    p_sim = sub.add_parser("simulate", help="run a pressure sweep for one design")
    p_sim.add_argument("--config", required=True, help="run configuration file")
    p_sim.add_argument("--out", help="output file (default: [output] path or stdout)")
    p_sim.add_argument("--format", choices=("csv", "json"), help="output format")
    p_sim.set_defaults(func=cmd_simulate)

    p_val = sub.add_parser("validate", help="compare a model curve against a reference curve")
    p_val.add_argument("model_csv", help="model curve CSV (header x,y)")
    p_val.add_argument("reference_csv", help="reference curve CSV (header x,y)")
    p_val.add_argument("--qq", type=int, help="also compute K paired quantiles, 2 <= K <= 100000")
    p_val.add_argument(
        "--resample",
        action="store_true",
        help="resample the model onto the reference x grid for R^2",
    )
    p_val.add_argument("--out", help="write the agreement report here")
    p_val.add_argument("--format", choices=("csv", "json"), help="report format (default json)")
    p_val.set_defaults(func=cmd_validate)

    p_sweep = sub.add_parser("sweep", help="design-space sweep over materials and wall ratios")
    p_sweep.add_argument("--config", required=True, help="run configuration file")
    p_sweep.add_argument("--materials", required=True, help="comma-separated material names")
    p_sweep.add_argument("--ratios", required=True, help="comma-separated distinct t_w/h_ch ratios (e.g. 1/5,1/4)")
    p_sweep.add_argument("--out", help="output file (default: [output] path or stdout)")
    p_sweep.add_argument("--format", choices=("csv", "json"), help="output format")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


# Built on the first main call, not at import, and reused by later calls in
# the same process; parse_args leaves the parser unchanged.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # numpy's floating-point warnings never change a value, and every
    # non-finite result meets a DomainError check, so they are not printed.
    try:
        with np.errstate(all="ignore"):
            return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except DomainError as err:
        if args.command == "validate" or args.command == "design":
            print(f"error: {err}", file=sys.stderr)
            return 2
        print(f"model error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
