"""Correctness gate: output checks for each operation, the golden comparison
and a plain-Python reference for the discrete Frechet distance.

Each check returns a list of error strings; an empty list means the
operation passed.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

from inputs import MATERIAL_NAMES, Op

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Relative tolerance for full-precision JSON floats (the docstring contracts).
JSON_REL_TOL = 1e-9

SIMULATE_COLUMNS = (
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
SWEEP_COLUMNS = (
    ("material", "tw_hch_ratio", "assumed_h_ch_mm")
    + SIMULATE_COLUMNS
    + ("max_f_spa_n", "mean_max_f_spa_n")
)
# Points of each built-in study grid, as measured at the seed commit.
STUDY_GRID_POINTS = {
    "ecoflex-00-30": 11,
    "elastosil-m4601": 16,
    "smooth-sil-950": 11,
    "dragonskin-30": 10,
}
REPORT_KEYS = ["frechet_normalized", "frechet_normalized_pct", "frechet_raw", "qq_pairs", "r_squared", "resampled"]
VALIDATE_STDOUT_KEYS = ("frechet_normalized_pct", "frechet_raw", "r_squared")
QQ_PAIRS = 9


def _increasing(values: list[float]) -> bool:
    return all(b > a for a, b in zip(values, values[1:]))


def _check_grid(rows: list[dict], points: int, where: str) -> list[str]:
    errors = []
    if len(rows) != points:
        errors.append(f"{where}: {len(rows)} rows, expected {points}")
    if not _increasing([float(r["lambda_jz"]) for r in rows]):
        errors.append(f"{where}: lambda_jz is not strictly increasing")
    for r in rows:
        if float(r["pressure_mpa"]) == 0.0 and float(r["length_ratio"]) != 1.0:
            errors.append(f"{where}: length_ratio {r['length_ratio']} at P = 0")
    return errors


def _csv_rows(text: str, columns: tuple[str, ...]) -> tuple[list[dict], list[str]]:
    table = list(csv.reader(text.splitlines()))
    if not table or tuple(table[0]) != columns:
        return [], [f"header {table[0] if table else None} != {list(columns)}"]
    return [dict(zip(columns, row)) for row in table[1:]], []


def _check_simulate(op: Op, text: str, fmt: str) -> list[str]:
    if fmt == "csv":
        rows, errors = _csv_rows(text, SIMULATE_COLUMNS)
        if errors:
            return errors
    else:
        payload = json.loads(text)
        rows = payload["states"]
        if any(list(r) != sorted(SIMULATE_COLUMNS) for r in rows):
            return ["state keys differ from the simulate columns"]
    return _check_grid(rows, op.expect["points"], op.key)


def _check_sweep(op: Op, text: str, fmt: str) -> list[str]:
    ratios = [float(Fraction(r)) for r in op.expect["ratios"]]
    expected_cells = [(m, r) for m in MATERIAL_NAMES for r in ratios]
    cells: dict[tuple[str, float], list[dict]] = {}
    if fmt == "csv":
        rows, errors = _csv_rows(text, SWEEP_COLUMNS)
        if errors:
            return errors
        for row in rows:
            cells.setdefault((row["material"], float(row["tw_hch_ratio"])), []).append(row)
        expected_cells = [(m, float(f"{r:.6f}")) for m, r in expected_cells]
    else:
        for cell in json.loads(text)["cells"]:
            cells[(cell["material"], cell["tw_hch_ratio"])] = cell["states"]
    if list(cells) != expected_cells:
        return [f"{op.key}: cells {list(cells)} != {expected_cells}"]
    errors = []
    for (material, ratio), rows in cells.items():
        errors += _check_grid(rows, STUDY_GRID_POINTS[material], f"{op.key} {material} {ratio}")
    return errors


def _check_validate(op: Op, stdout: str, report_text: str | None) -> list[str]:
    lines = stdout.splitlines()
    if [line.split("=", 1)[0] for line in lines] != list(VALIDATE_STDOUT_KEYS):
        return [f"{op.key}: unexpected stdout {stdout!r}"]
    values = {k: float(line.split("=", 1)[1]) for k, line in zip(VALIDATE_STDOUT_KEYS, lines)}
    errors = []
    if values["frechet_raw"] < 0.0 or values["frechet_normalized_pct"] < 0.0:
        errors.append(f"{op.key}: negative Frechet distance")
    if values["r_squared"] > 1.0:
        errors.append(f"{op.key}: r_squared above 1")
    if report_text is None:
        return errors
    report = json.loads(report_text)
    if sorted(report) != REPORT_KEYS:
        return errors + [f"{op.key}: report keys {sorted(report)}"]
    qq = report["qq_pairs"]
    if len(qq) != QQ_PAIRS or not all(
        b[0] >= a[0] and b[1] >= a[1] for a, b in zip(qq, qq[1:])
    ):
        errors.append(f"{op.key}: qq_pairs are not {QQ_PAIRS} monotone pairs")
    if op.expect.get("short"):
        model = read_curve(op.expect["model"])
        reference = read_curve(op.expect["reference"])
        for key, want in (
            ("frechet_raw", reference_frechet(model, reference)),
            (
                "frechet_normalized",
                reference_frechet(rescale(model, reference), rescale(reference, reference)),
            ),
        ):
            if not math.isclose(report[key], want, rel_tol=JSON_REL_TOL, abs_tol=0.0):
                errors.append(f"{op.key}: {key} {report[key]!r} != reference DP {want!r}")
    return errors


def check_op(op: Op, rc: int, stdout: str, out_text: str | None) -> list[str]:
    """Errors of one finished operation: exit code and output invariants."""
    if rc != 0:
        return [f"{op.key}: exit code {rc}"]
    if op.out is not None and out_text is None:
        return [f"{op.key}: no output file {op.out}"]
    if op.kind == "validate":
        return _check_validate(op, stdout, out_text)
    if stdout:
        return [f"{op.key}: unexpected stdout"]
    command, fmt = op.kind.split("_")
    if command == "simulate":
        return _check_simulate(op, out_text, fmt)
    return _check_sweep(op, out_text, fmt)


# -- golden comparison ------------------------------------------------------


def golden_paths(op: Op) -> tuple[Path, Path]:
    """Expected output file and expected stdout of a gate operation."""
    return GOLDEN_DIR / f"{op.key}{op.out.suffix}", GOLDEN_DIR / f"{op.key}.stdout"


def json_differences(got, want, where: str = "$") -> list[str]:
    """Differences in keys, key order, strings or types, or floats further
    apart than JSON_REL_TOL relative."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or list(got) != list(want):
            return [f"{where}: keys {list(got) if isinstance(got, dict) else got!r} != {list(want)}"]
        return [d for k in want for d in json_differences(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: list length differs"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in json_differences(g, w, f"{where}[{i}]")]
    if isinstance(want, float) and type(got) in (int, float):
        if math.isclose(got, want, rel_tol=JSON_REL_TOL, abs_tol=0.0):
            return []
        return [f"{where}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{where}: {got!r} != {want!r}"]
    return []


def check_golden(op: Op, stdout: str, out_text: str) -> list[str]:
    """Compare a gate operation's output file and stdout with the stored
    expected ones: bytes for CSV and text; keys, order, strings and floats
    for JSON."""
    out_path, stdout_path = golden_paths(op)
    errors = []
    want_stdout = stdout_path.read_text(encoding="utf-8") if stdout_path.is_file() else ""
    if stdout != want_stdout:
        errors.append(f"gate {op.key}: stdout differs from {stdout_path.name}")
    want = out_path.read_text(encoding="utf-8")
    if out_path.suffix == ".json":
        differences = json_differences(json.loads(out_text), json.loads(want))
        errors += [f"gate {op.key}: {d}" for d in differences[:5]]
    elif out_text != want:
        errors.append(f"gate {op.key}: bytes differ from {out_path.name}")
    return errors


# -- plain-Python reference for short curves --------------------------------


def read_curve(path: Path) -> list[tuple[float, float]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return [(float(x), float(y)) for x, y in rows[1:]]


def rescale(curve, reference):
    xs = [p[0] for p in reference]
    ys = [p[1] for p in reference]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    return [((x - x0) / (x1 - x0), (y - y0) / (y1 - y0)) for x, y in curve]


def reference_frechet(a, b) -> float:
    """Discrete Frechet distance by the textbook recurrence, row by row."""
    prev: list[float] = []
    for i, (ax, ay) in enumerate(a):
        row: list[float] = []
        for j, (bx, by) in enumerate(b):
            d = math.hypot(ax - bx, ay - by)
            if i == 0:
                row.append(d if j == 0 else max(row[-1], d))
            elif j == 0:
                row.append(max(prev[0], d))
            else:
                row.append(max(min(prev[j], row[-1], prev[j - 1]), d))
        prev = row
    return prev[-1]
