"""Batch command line: design synthesis, sweep simulation, curve validation
and design-space sweeps. Deterministic machine-readable output; exit codes
0 = success, 2 = input error, 3 = model domain error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import warnings
from collections.abc import Iterable
from itertools import accumulate
from pathlib import Path

import numpy as np

from . import geometry
from ._csvtext import csv_text
from ._jsontext import report_json, simulate_json, sweep_json
from ._numeric import check_positive_finite
from .actuation import MAX_GRID_POINTS, ActuationState, PressureSweep, simulate_cells
from .actuation import simulate_sweep  # noqa: F401  (perfbench traces cli.simulate_sweep)
from .config import ConfigError, builtin_material, load_config, parse_ratio
from .errors import DomainError
from .geometry import MyofibrilSpec
from .validation import MAX_QUANTILES, Curve, check_quantile_count, compare_curves, quantile_grid

# The simulate output columns: each ActuationState field's name, with its
# unit appended where it has one, in field order, which is also the order of
# simulate_cells' columns. Every column holds floats but the last, the
# length-ratio flag, which holds text. The CSV header, CSV rows and JSON
# states all derive from it.
STATE_COLUMNS = (
    "pressure_mpa",
    "lambda_jz",
    "c_m",
    "f_e_n",
    "f_r_n",
    "f_spa_n",
    "theta_rad",
    "f_contr_n",
    "r1_mm",
    "l_mf_mm",
    "length_ratio",
    "ratio_flag",
)
# The names of a sweep cell besides its states: in CSV the columns before
# and after the state columns, in JSON the cell's other keys.
_CELL_HEAD = (
    "material",
    "tw_hch_ratio",
    "assumed_h_ch_mm",
)
_CELL_TAIL = (
    "max_f_spa_n",
    "mean_max_f_spa_n",
)
# One sweep cell: material, wall ratio, its count of rows of the sweep's
# columns, their largest f_spa and the material's mean of those maxima.
_SweepRow = tuple[str, float, int, float, float]
_F_SPA = ActuationState._fields.index("f_spa")

def _emit(texts: Iterable[str], out_path: str | Path | None) -> None:
    # Writes the texts, in order, to the output file, or to stdout without one.
    if out_path:
        with open(out_path, "w", encoding="utf-8") as out:
            out.writelines(texts)
    else:
        sys.stdout.writelines(texts)


def cmd_design(args: argparse.Namespace) -> int:
    for label, value in (("a-band", args.a_band), ("t-w", args.t_w), ("h-ch", args.h_ch)):
        check_positive_finite(f"--{label}", value)
    sarc = geometry.design_from_a_band(args.a_band)
    low, high = geometry.myosin_height_bounds(args.a_band, args.t_w, args.h_ch)
    lines = [
        f"a_band_mm={sarc.a_band:.6f}",
        f"i_band_mm={sarc.i_band:.6f}",
        f"actin_arc_mm={sarc.actin_arc:.6f}",
        f"rest_radius_mm={sarc.rest_radius:.6f}",
        f"myosin_height_min_mm={low:.6f}",
        f"myosin_height_max_mm={high:.6f}",
    ]
    print("\n".join(lines))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    spec = config.build_spec()
    sweep = config.sweep_for_material(config.material.name)
    columns, counts = simulate_cells([(spec, sweep)])

    out_path = args.out or config.out_path
    fmt = args.format or config.out_format
    if fmt == "json":
        _emit(simulate_json(STATE_COLUMNS, config.material.name, spec.n, sweep, columns), out_path)
    else:
        _emit(csv_text(STATE_COLUMNS, columns, [("", counts[0], "")]), out_path)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    model = Curve.from_csv(args.model_csv, "model")
    reference = Curve.from_csv(args.reference_csv, "reference")
    # K is checked with or without --out, before any Frechet DP; the
    # quantiles are computed only when --out writes them.
    if args.qq is not None:
        check_quantile_count(args.qq)
    qq = args.qq if args.out else None
    report = compare_curves(model, reference, qq=qq, resample=args.resample)
    numbers, pairs = report.numbers(), report.qq_pairs
    # The report is written before anything is printed, so that a failing
    # write leaves stdout empty as every other error does.
    if args.out and args.format == "csv":
        row = ",".join(["%.6f"] * len(numbers)) % tuple(numbers.values())
        _emit([f"{','.join(numbers)}\n{row}\n"], args.out)
        if pairs is not None:
            rows = ["%.6f,%.6f,%.6f" % (p, *q) for p, q in zip(quantile_grid(len(pairs)), pairs)]
            qq_csv = "\n".join(["p,reference,model", *rows, ""])
            _emit([qq_csv], Path(args.out).with_suffix(".qq.csv"))
    elif args.out:
        _emit([report_json(numbers, report.resampled, pairs)], args.out)
    # Every number but the first, the plain normalized distance, which its
    # percentage restates.
    for name, value in list(numbers.items())[1:]:
        print(f"{name}={value:.6f}")
    return 0


def _check_distinct(values: list, what: str, flag: str) -> None:
    # A repeated material or ratio would print a second identical cell, which
    # the per-material mean of maxima, keyed by ratio, weighs only once.
    seen = set()
    for value in values:
        if value in seen:
            raise ConfigError(f"duplicate {what} {value!r} in {flag}")
        seen.add(value)


def cmd_sweep(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    names = [m.strip() for m in args.materials.split(",") if m.strip()]
    ratios = [parse_ratio(r) for r in args.ratios.split(",") if r.strip()]
    if not names or not ratios:
        raise ConfigError("sweep needs non-empty material and ratio lists")
    _check_distinct(names, "material", "--materials")
    _check_distinct(ratios, "wall ratio", "--ratios")
    materials = [builtin_material(name) for name in names]
    # All cells run as one pass, so their points together obey one grid's cap.
    total = len(ratios) * sum(config.sweep_for_material(m.name)._count() for m in materials)
    if total > MAX_GRID_POINTS:
        raise ConfigError(f"sweep has {total} points in all, more than {MAX_GRID_POINTS}")

    # Cells in material-then-ratio order, all evaluated in one pass. A cell
    # that fails to build is reported only when every cell before it
    # simulates, so an earlier cell's model error takes precedence. Each
    # ratio's SPA geometry is built once, when its first cell is.
    spa_for_ratio = functools.cache(config.spa_for_ratio)
    cells: list[tuple[MyofibrilSpec, PressureSweep]] = []
    try:
        for material in materials:
            sweep = config.sweep_for_material(material.name)
            for ratio in ratios:
                cells.append((config.spec_with_spa(spa_for_ratio(ratio), material), sweep))
    except ConfigError:
        simulate_cells(cells)
        raise
    columns, counts = simulate_cells(cells)
    # Every cell's largest f_spa, in cell order, taken in one call.
    tops = np.maximum.reduceat(columns[_F_SPA], list(accumulate(counts[:-1], initial=0))).tolist()

    rows: list[_SweepRow] = []
    for at, name in zip(range(0, len(cells), len(ratios)), names):
        maxima = tops[at:at + len(ratios)]
        try:
            mean_max = math.fsum(maxima) / len(maxima)
        except OverflowError:
            # fsum raises where finite maxima sum beyond the float range.
            raise DomainError(
                f"material {name!r}: the mean of its f_spa maxima overflows a float"
            ) from None
        rows.extend(
            (name, ratio, count, top, mean_max) for ratio, count, top in zip(ratios, counts[at:], maxima)
        )

    out_path = args.out or config.out_path
    fmt = args.format or config.out_format
    h_ch = config.assumed_h_ch
    if fmt == "json":
        _emit(sweep_json(_CELL_HEAD + _CELL_TAIL, STATE_COLUMNS, rows, columns, h_ch), out_path)
    else:
        csv_cells = [
            (f"{name},{ratio:.6f},{h_ch:.6f},", count, f",{top:.6f},{mean_max:.6f}")
            for name, ratio, count, top, mean_max in rows
        ]
        _emit(csv_text(_CELL_HEAD + STATE_COLUMNS + _CELL_TAIL, columns, csv_cells), out_path)
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
    qq_help = f"also compute K paired quantiles, 2 <= K <= {MAX_QUANTILES}"
    p_val.add_argument("--qq", type=int, help=qq_help)
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
    # Other warnings, the design-rule ones, print as one warning: line each,
    # without the place that warnings would name: the line that built the
    # design. catch_warnings runs the command on a copy of the caller's
    # filters and forgets the warnings that earlier calls showed, so each
    # call prints each distinct warning once.
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            return args.func(args)
    except (ConfigError, DomainError, OSError) as err:
        # Only simulate and sweep run the model, so only there is a
        # DomainError a model error; every other fault is the input's.
        if isinstance(err, DomainError) and args.command in ("simulate", "sweep"):
            print(f"model error: {err}", file=sys.stderr)
            return 3
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
