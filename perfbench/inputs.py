"""Seeded inputs for the four workloads and for the golden gate.

Every input is a file written into a work directory; the program under test
sees only those files. The same (workload, seed) always writes the same
bytes. Input sizes are fixed per pool slot and only the values are drawn
from the seed, so the work per operation barely changes from seed to seed.

The value ranges stay inside the region where every operation succeeds at
the seed commit: the prototype design is simulated up to at most 0.4 MPa
(it succeeds up to 0.5 MPa and fails at 0.8 MPa), and study wall ratios lie
in [0.125, 1.5] (smooth-sil-950 fails at ratios <= 0.1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 0

WORKLOADS = ("fine_sweep", "design_study", "validate_long", "validate_batch")

MATERIAL_NAMES = ("ecoflex-00-30", "elastosil-m4601", "smooth-sil-950", "dragonskin-30")

# Points per simulated grid, and designs in the fine_sweep pool.
FINE_POINTS = 3001
FINE_POOL = 8
# Wall ratios per sweep invocation, and invocations in the design_study pool.
STUDY_RATIOS = 6
STUDY_POOL = 8
# (model, reference) point counts of the validate_long pool; m*n stays within
# 20% across slots so the slots cost about the same.
LONG_SIZES = ((300, 260), (260, 310), (320, 270), (280, 300))
# validate_batch pairs have equal lengths 10..21 (R^2 pairs index-wise).
BATCH_POOL = 48
BATCH_MIN_POINTS = 10
BATCH_MAX_POINTS = 21

# Gate sizes: small enough that the stored expected outputs stay small.
GATE_FINE_POINTS = 51
GATE_STUDY_RATIOS = 3
GATE_LONG_SIZE = (60, 50)

STUDY_CONFIG = """\
# Wall-ratio design study (the shipped configs/wall_ratio_study.ini).
[material]
name = ecoflex-00-30

[spa]
a_ch = 14
b_ch = 14
h_jz = 3
a_hz = 6
b_hz = 20
assumed_h_ch = 10

[sarcomere]
a_band = 60
n = 1

[output]
format = csv
"""


@dataclass
class Op:
    """One CLI invocation and what its output must satisfy.

    kind selects the output check in checks.py; expect holds the facts the
    check needs (grid size, ratios, curve files). out is the file the
    invocation writes, if any.
    """

    key: str
    kind: str
    argv: list[str]
    out: Path | None = None
    expect: dict = field(default_factory=dict)


def _rng(workload: str, seed: int) -> random.Random:
    # String seeds are hashed with SHA-512, so draws are stable across Python
    # versions and independent between workloads.
    return random.Random(f"perfbench:{workload}:{seed}")


def _prototype_config(rng: random.Random, points: int) -> str:
    """A design near configs/prototype.ini with a seeded material lot and a
    grid of `points` pressures from 0 MPa."""

    def near(value: float, spread: float) -> str:
        return f"{value + rng.uniform(-spread, spread):.4f}"

    p_end = rng.uniform(0.3, 0.4)
    step = p_end / (points - 1)
    return f"""\
[material]
name = dragonskin-30-lot
c1 = {0.096 * rng.uniform(0.95, 1.05):.6f}
c2 = {0.0095 * rng.uniform(0.95, 1.05):.6f}
density = 1080

[spa]
t_w = {near(1.5, 0.1)}
a_ch = {near(9.5, 0.3)}
b_ch = {near(10.0, 0.3)}
h_ch = {near(5.0, 0.2)}
h_jz = {near(2.0, 0.1)}
a_hz = {near(6.0, 0.2)}
b_hz = {near(15.0, 0.5)}

[sarcomere]
a_band = 30
actin_arc = {near(32.0, 0.15)}
myosin_height = {near(28.1, 0.1)}
junctions_per_myosin = 2
n = 1

[sweep]
start = 0
end = {p_end!r}
step = {step!r}

[output]
format = csv
"""


def _ratios(rng: random.Random, count: int) -> list[str]:
    # Distinct, so every (material, ratio) cell of a sweep is its own cell.
    return [f"{k / 1000:.3f}" for k in rng.sample(range(125, 1501), count)]


def _curve_pair(rng: random.Random, m: int, n: int) -> tuple[str, str]:
    """A model curve of m points and a reference curve of n points, both
    force-like (rising, slightly curved) over a seeded pressure range."""
    p_max = rng.uniform(0.3, 0.5)
    a, b = rng.uniform(20.0, 40.0), rng.uniform(-15.0, 15.0)

    def curve(count: int, x_end: float, gain: float, bend: float, noise: float) -> str:
        lines = ["x,y"]
        for i in range(count):
            x = x_end * i / (count - 1)
            y = gain * x + bend * x * x + rng.gauss(0.0, noise)
            lines.append(f"{x!r},{y!r}")
        return "\n".join(lines) + "\n"

    reference = curve(n, p_max, a, b, 0.05)
    model = curve(
        m,
        p_max * rng.uniform(0.97, 1.03),
        a * rng.uniform(0.9, 1.1),
        b + rng.uniform(-2.0, 2.0),
        0.02,
    )
    return model, reference


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def _simulate_op(key: str, config: Path, out: Path, points: int, fmt: str) -> Op:
    return Op(
        key,
        f"simulate_{fmt}",
        ["simulate", "--config", str(config), "--format", fmt, "--out", str(out)],
        out,
        {"points": points},
    )


def _sweep_op(key: str, config: Path, out: Path, ratios: list[str], fmt: str) -> Op:
    return Op(
        key,
        f"sweep_{fmt}",
        [
            "sweep",
            "--config",
            str(config),
            "--materials",
            ",".join(MATERIAL_NAMES),
            "--ratios",
            ",".join(ratios),
            "--format",
            fmt,
            "--out",
            str(out),
        ],
        out,
        {"ratios": ratios},
    )


def _validate_op(key: str, model: Path, reference: Path, out: Path | None, short: bool) -> Op:
    """validate with --qq 9; long pairs differ in length and so use --resample,
    short pairs write the report checked against the reference DP."""
    argv = ["validate", str(model), str(reference), "--qq", "9"]
    if not short:
        argv.append("--resample")
    if out is not None:
        argv += ["--out", str(out)]
    return Op(key, "validate", argv, out, {"model": model, "reference": reference, "short": short})


def workload_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Write the pool of inputs for one workload and return one Op per slot."""
    rng = _rng(workload, seed)
    ops: list[Op] = []
    if workload == "fine_sweep":
        for i in range(FINE_POOL):
            config = _write(workdir / f"design{i}.ini", _prototype_config(rng, FINE_POINTS))
            ops.append(_simulate_op(f"fine_sweep/{i}", config, workdir / f"design{i}.csv", FINE_POINTS, "csv"))
    elif workload == "design_study":
        config = _write(workdir / "study.ini", STUDY_CONFIG)
        for i in range(STUDY_POOL):
            ratios = _ratios(rng, STUDY_RATIOS)
            ops.append(_sweep_op(f"design_study/{i}", config, workdir / f"study{i}.json", ratios, "json"))
    elif workload == "validate_long":
        for i, (m, n) in enumerate(LONG_SIZES):
            model, reference = _curve_pair(rng, m, n)
            ops.append(
                _validate_op(
                    f"validate_long/{i}",
                    _write(workdir / f"long{i}_model.csv", model),
                    _write(workdir / f"long{i}_reference.csv", reference),
                    None,
                    short=False,
                )
            )
    elif workload == "validate_batch":
        span = BATCH_MAX_POINTS - BATCH_MIN_POINTS + 1
        for i in range(BATCH_POOL):
            size = BATCH_MIN_POINTS + i % span
            model, reference = _curve_pair(rng, size, size)
            ops.append(
                _validate_op(
                    f"validate_batch/{i}",
                    _write(workdir / f"batch{i}_model.csv", model),
                    _write(workdir / f"batch{i}_reference.csv", reference),
                    workdir / f"batch{i}_report.json",
                    short=True,
                )
            )
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return ops


def first_input(workload: str, ops: list[Op]) -> list[str]:
    """Arguments for setup_probe.py: the workload's first input and its kind."""
    op = ops[0]
    if workload == "fine_sweep":
        return ["design", op.argv[op.argv.index("--config") + 1]]
    if workload == "design_study":
        return ["study", op.argv[op.argv.index("--config") + 1], op.expect["ratios"][0]]
    return ["curve", str(op.expect["reference"])]


def gate_ops(workdir: Path) -> list[Op]:
    """Small default-seed inputs for every CLI command, whose outputs must
    match the expected files under golden/ (see make_golden.py)."""
    gate = workdir / "gate"
    gate.mkdir(exist_ok=True)
    design = _write(
        gate / "design.ini", _prototype_config(_rng("fine_sweep", DEFAULT_SEED), GATE_FINE_POINTS)
    )
    study = _write(gate / "study.ini", STUDY_CONFIG)
    ratios = _ratios(_rng("design_study", DEFAULT_SEED), GATE_STUDY_RATIOS)
    m, n = GATE_LONG_SIZE
    long_model, long_reference = _curve_pair(_rng("validate_long", DEFAULT_SEED), m, n)
    batch_model, batch_reference = _curve_pair(
        _rng("validate_batch", DEFAULT_SEED), BATCH_MIN_POINTS, BATCH_MIN_POINTS
    )
    return [
        _simulate_op("simulate_csv", design, gate / "simulate.csv", GATE_FINE_POINTS, "csv"),
        _simulate_op("simulate_json", design, gate / "simulate.json", GATE_FINE_POINTS, "json"),
        _sweep_op("sweep_csv", study, gate / "sweep.csv", ratios, "csv"),
        _sweep_op("sweep_json", study, gate / "sweep.json", ratios, "json"),
        _validate_op(
            "validate_long",
            _write(gate / "long_model.csv", long_model),
            _write(gate / "long_reference.csv", long_reference),
            gate / "long_report.json",
            short=False,
        ),
        _validate_op(
            "validate_batch",
            _write(gate / "batch_model.csv", batch_model),
            _write(gate / "batch_reference.csv", batch_reference),
            gate / "batch_report.json",
            short=True,
        ),
    ]
