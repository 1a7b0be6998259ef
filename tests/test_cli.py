import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import apmsim
from apmsim import actuation, cli, validation
from apmsim.actuation import ActuationState
from apmsim.cli import main
from apmsim.validation import MAX_QUANTILES

PROTOTYPE_CONFIG = """\
[material]
name = dragonskin-30

[spa]
t_w = 1.5
a_ch = 9.5
b_ch = 10
h_ch = 5
h_jz = 2
a_hz = 6
b_hz = 15

[sarcomere]
a_band = 30
actin_arc = 32
myosin_height = 28
junctions_per_myosin = 2
n = 1

[sweep]
start = 0.01
end = 0.1
step = 0.01
"""

STUDY_CONFIG = """\
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
"""


@pytest.fixture
def proto_config(tmp_path):
    path = tmp_path / "prototype.ini"
    path.write_text(PROTOTYPE_CONFIG, encoding="utf-8")
    return path


@pytest.fixture
def study_config(tmp_path):
    path = tmp_path / "study.ini"
    path.write_text(STUDY_CONFIG, encoding="utf-8")
    return path


# -------------------------------------------------------------------- design

def test_design_output(capsys):
    assert main(["design", "--a-band", "30", "--t-w", "1.5", "--h-ch", "5"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "a_band_mm=30.000000\n"
        "i_band_mm=20.000000\n"
        "actin_arc_mm=31.415927\n"
        "rest_radius_mm=10.000000\n"
        "myosin_height_min_mm=28.000000\n"
        "myosin_height_max_mm=39.415927\n"
    )


def test_design_deterministic(capsys):
    main(["design", "--a-band", "12.5", "--t-w", "1", "--h-ch", "4"])
    first = capsys.readouterr().out
    main(["design", "--a-band", "12.5", "--t-w", "1", "--h-ch", "4"])
    assert capsys.readouterr().out == first


def test_design_rejects_nonpositive(capsys):
    assert main(["design", "--a-band", "0", "--t-w", "1.5", "--h-ch", "5"]) == 2
    assert "a-band" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--a-band", "--t-w", "--h-ch"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_design_rejects_non_finite(flag, value, capsys):
    values = {"--a-band": "30", "--t-w": "1.5", "--h-ch": "5", flag: value}
    assert main(["design", *(f"{name}={v}" for name, v in values.items())]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag[2:] in captured.err


def test_design_rejects_overflowing_lengths(capsys):
    # Finite flags whose derived lengths overflow to inf.
    for argv in (["--a-band", "1e308", "--t-w", "1", "--h-ch", "1"],
                 ["--a-band", "30", "--t-w", "1e308", "--h-ch", "1"]):
        assert main(["design", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be positive and finite, got inf" in captured.err


# ------------------------------------------------------------------ simulate

def test_state_columns_follow_actuation_state_fields():
    # Rows are formatted straight from the tuple, so the column table must
    # list the fields in their declared order.
    assert tuple(attr for _, attr in cli.STATE_COLUMNS) == ActuationState._fields


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("a_band", "nan", "a_band must be positive and finite, got nan"),
        ("a_band", "inf", "a_band must be positive and finite, got inf"),
        # 2 * 1e308 overflows, so the derived i_band is inf.
        ("a_band", "1e308", "i_band must be positive and finite, got inf"),
        ("actin_arc", "nan", "actin_arc must be positive and finite, got nan"),
        ("myosin_height", "inf", "myosin_height must be positive and finite, got inf"),
        ("t_w", "nan", "t_w must be positive and finite, got nan"),
        ("h_ch", "inf", "h_ch must be positive and finite, got inf"),
        ("c1", "nan", "c1 must be positive and finite, got nan"),
        ("c2", "inf", "c2 must be finite, got inf"),
    ],
)
def test_simulate_rejects_non_finite_design_exit_2(tmp_path, capsys, key, value, message):
    config = tmp_path / "design.ini"
    text = PROTOTYPE_CONFIG.replace("name = dragonskin-30", "name = lot\nc1 = 0.096\nc2 = 0.0095")
    lines = [
        f"{key} = {value}" if line.startswith(f"{key} = ") else line
        for line in text.splitlines()
    ]
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["simulate", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_main_reuses_one_parser_across_calls(proto_config, tmp_path, capsys):
    # One process: a rejected argv, then simulate, then validate, all through
    # the parser built on the first call; each must print what a fresh
    # interpreter prints for the same argv.
    curve = tmp_path / "curve.csv"
    write_curve(curve, [0.0, 0.5, 1.0], [0.0, 0.3, 1.0])
    runs = [
        ["simulate", "--format", "xml", "--config", str(proto_config)],
        ["simulate", "--config", str(proto_config)],
        ["validate", str(curve), str(curve), "--qq", "3"],
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(apmsim.__file__).parents[1])}
    codes = []
    for argv in runs:
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-W", "ignore", "-m", "apmsim", *argv],
            capture_output=True, text=True, env=env, check=False,
        )
        assert (codes[-1], captured.out, captured.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr
        )
    assert codes == [2, 0, 0]


def test_simulate_prototype_rows(proto_config, tmp_path):
    out = tmp_path / "run.csv"
    assert main(["simulate", "--config", str(proto_config), "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == (
        "pressure_mpa,lambda_jz,c_m,f_e_n,f_r_n,f_spa_n,theta_rad,"
        "f_contr_n,r1_mm,l_mf_mm,length_ratio,ratio_flag"
    )
    assert len(lines) == 11  # header + 10 pressures
    pressures = [row.split(",")[0] for row in lines[1:]]
    assert pressures == [f"{0.01 * k:.6f}" for k in range(1, 11)]


def test_simulate_byte_identical_reruns(proto_config, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["simulate", "--config", str(proto_config), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(proto_config), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_zero_pressure_row(tmp_path):
    config = tmp_path / "zero.ini"
    config.write_text(
        PROTOTYPE_CONFIG.replace("start = 0.01", "start = 0.0").replace(
            "end = 0.1", "end = 0.02"
        ),
        encoding="utf-8",
    )
    out = tmp_path / "zero.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    first = out.read_text(encoding="utf-8").splitlines()[1].split(",")
    assert first[0] == "0.000000"
    assert first[1] == "1.000000"  # lambda_jz
    assert first[5] == "0.000000"  # f_spa
    assert first[10] == "1.000000"  # length_ratio
    assert first[11] == "valid"


def test_simulate_json_output(proto_config, tmp_path):
    out = tmp_path / "run.json"
    assert main(["simulate", "--config", str(proto_config), "--out", str(out),
                 "--format", "json"]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["metadata"]["material"] == "dragonskin-30"
    assert len(payload["states"]) == 10
    state = payload["states"][0]
    # JSON carries full float precision, not the 6-decimal text rendering
    assert state["pressure_mpa"] == 0.01
    assert state["f_spa_n"] == state["f_e_n"] - state["f_r_n"]


def test_simulate_missing_config(capsys):
    assert main(["simulate", "--config", "/nonexistent.ini"]) == 2
    assert "error" in capsys.readouterr().err


def test_simulate_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[material]\nname = dragonskin-30\n", encoding="utf-8")
    assert main(["simulate", "--config", str(bad)]) == 2
    assert "spa" in capsys.readouterr().err


def test_simulate_unknown_material(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(PROTOTYPE_CONFIG.replace("dragonskin-30", "vantablack"), encoding="utf-8")
    assert main(["simulate", "--config", str(bad)]) == 2
    assert "vantablack" in capsys.readouterr().err


def test_config_percent_in_material_name_is_literal(tmp_path, capsys):
    bad = tmp_path / "percent.ini"
    bad.write_text(PROTOTYPE_CONFIG.replace("dragonskin-30", "eco%flex"), encoding="utf-8")
    assert main(["simulate", "--config", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: unknown material 'eco%flex'")


def test_config_percent_in_output_path_is_literal(tmp_path):
    out = tmp_path / "run%(missing)s%.csv"
    config = tmp_path / "percent.ini"
    config.write_text(PROTOTYPE_CONFIG + f"\n[output]\npath = {out}\n", encoding="utf-8")
    assert main(["simulate", "--config", str(config)]) == 0
    assert out.read_text(encoding="utf-8").startswith("pressure_mpa,")


def test_simulate_model_domain_error_exit_3(tmp_path, capsys):
    config = tmp_path / "hot.ini"
    config.write_text(
        PROTOTYPE_CONFIG.replace("start = 0.01", "start = 2.0").replace(
            "end = 0.1", "end = 2.0"
        ).replace("step = 0.01", "step = 0.1"),
        encoding="utf-8",
    )
    assert main(["simulate", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert "2.000000" in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("step", "nan"),
        ("start", "nan"),
        ("end", "nan"),
        ("end", "inf"),
        ("step", "inf"),
        ("step", "1e-12"),
    ],
)
def test_simulate_rejects_bad_sweep_grid_exit_2(tmp_path, capsys, key, value):
    config = tmp_path / "grid.ini"
    lines = [
        f"{key} = {value}" if line.startswith(f"{key} = ") else line
        for line in PROTOTYPE_CONFIG.splitlines()
    ]
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["simulate", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid [sweep]" in captured.err


# ------------------------------------------------------------------ validate

def write_curve(path, x, y):
    lines = ["x,y"] + [f"{a},{b}" for a, b in zip(x, y)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_validate_self_agreement(tmp_path, capsys):
    x = np.linspace(0.0, 1.0, 9)
    y = np.cos(x)
    model = tmp_path / "m.csv"
    ref = tmp_path / "r.csv"
    write_curve(model, x, y)
    write_curve(ref, x, y)
    assert main(["validate", str(model), str(ref)]) == 0
    out = capsys.readouterr().out
    assert "frechet_normalized_pct=0.000000" in out
    assert "r_squared=1.000000" in out


def test_validate_ten_percent_shift(tmp_path, capsys):
    x = np.linspace(0.0, 1.0, 9)
    y = np.sin(3 * x)
    shift = 0.10 * (y.max() - y.min())
    model = tmp_path / "m.csv"
    ref = tmp_path / "r.csv"
    write_curve(model, x, y + shift)
    write_curve(ref, x, y)
    assert main(["validate", str(model), str(ref)]) == 0
    assert "frechet_normalized_pct=10.000000" in capsys.readouterr().out


def test_validate_report_files(tmp_path, capsys):
    x = np.linspace(0.0, 1.0, 7)
    y = x**2
    model = tmp_path / "m.csv"
    ref = tmp_path / "r.csv"
    write_curve(model, x, y * 1.01)
    write_curve(ref, x, y)
    report_json = tmp_path / "report.json"
    assert main(["validate", str(model), str(ref), "--qq", "5",
                 "--out", str(report_json)]) == 0
    payload = json.loads(report_json.read_text(encoding="utf-8"))
    assert len(payload["qq_pairs"]) == 5
    report_csv = tmp_path / "report.csv"
    assert main(["validate", str(model), str(ref), "--qq", "5",
                 "--out", str(report_csv), "--format", "csv"]) == 0
    assert report_csv.read_text(encoding="utf-8").startswith("frechet_normalized,")
    qq_file = tmp_path / "report.qq.csv"
    assert qq_file.exists()
    assert qq_file.read_text(encoding="utf-8").splitlines()[0] == "p,reference,model"
    capsys.readouterr()


def test_validate_missing_header_exit_2(tmp_path, capsys):
    model = tmp_path / "m.csv"
    ref = tmp_path / "r.csv"
    model.write_text("0,1\n1,2\n", encoding="utf-8")
    write_curve(ref, [0.0, 1.0], [1.0, 2.0])
    assert main(["validate", str(model), str(ref)]) == 2
    assert "header" in capsys.readouterr().err


def test_validate_qq_zero_exit_2(tmp_path, capsys):
    model = tmp_path / "m.csv"
    write_curve(model, [0.0, 1.0, 2.0], [1.0, 2.0, 0.0])
    assert main(["validate", str(model), str(model), "--qq", "0"]) == 2
    assert "quantile count must be >= 2" in capsys.readouterr().err


def test_validate_three_field_row_exit_2(tmp_path, capsys):
    model = tmp_path / "m.csv"
    ref = tmp_path / "r.csv"
    model.write_text("x,y\n0,0,7\n1,1\n", encoding="utf-8")
    write_curve(ref, [0.0, 1.0], [0.0, 1.0])
    assert main(["validate", str(model), str(ref)]) == 2
    assert "expected 2 fields" in capsys.readouterr().err


def test_validate_header_only_exit_2(tmp_path, capsys):
    model = tmp_path / "m.csv"
    ref = tmp_path / "r.csv"
    model.write_text("x,y\n", encoding="utf-8")
    write_curve(ref, [0.0, 1.0], [0.0, 1.0])
    assert main(["validate", str(model), str(ref)]) == 2
    assert "at least 2 points" in capsys.readouterr().err


# --------------------------------------------------------------------- sweep

def test_sweep_single_cell_matches_simulate(study_config, tmp_path):
    # Explicit-geometry simulate run of the same cell: ratio 1/2 of the
    # assumed 10 mm chamber height.
    sim_config = tmp_path / "cell.ini"
    sim_config.write_text(
        STUDY_CONFIG.replace("assumed_h_ch = 10", "h_ch = 10\nt_w = 5"), encoding="utf-8"
    )
    sim_out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", str(sim_config), "--out", str(sim_out)]) == 0

    sweep_out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(study_config), "--materials", "ecoflex-00-30",
                 "--ratios", "1/2", "--out", str(sweep_out)]) == 0

    sim_lines = sim_out.read_text(encoding="utf-8").splitlines()
    sweep_lines = sweep_out.read_text(encoding="utf-8").splitlines()
    assert len(sweep_lines) == len(sim_lines)
    header = sweep_lines[0].split(",")
    assert header[:3] == ["material", "tw_hch_ratio", "assumed_h_ch_mm"]
    assert header[3:15] == sim_lines[0].split(",")
    for sim_row, sweep_row in zip(sim_lines[1:], sweep_lines[1:]):
        cells = sweep_row.split(",")
        assert cells[0] == "ecoflex-00-30"
        assert cells[1] == "0.500000"
        assert cells[2] == "10.000000"
        assert cells[3:15] == sim_row.split(",")


def test_sweep_full_study_row_count(study_config, tmp_path):
    out = tmp_path / "study.csv"
    assert main([
        "sweep", "--config", str(study_config),
        "--materials", "ecoflex-00-30,elastosil-m4601,smooth-sil-950",
        "--ratios", "1/5,1/4,1/3,1/2,1,3/2",
        "--out", str(out),
    ]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 6 * (11 + 16 + 11)


def test_sweep_mean_max_ordering(study_config, tmp_path):
    out = tmp_path / "study.csv"
    main([
        "sweep", "--config", str(study_config),
        "--materials", "ecoflex-00-30,elastosil-m4601,smooth-sil-950",
        "--ratios", "1/5,1/4,1/3,1/2,1,3/2",
        "--out", str(out),
    ])
    mean_max = {}
    for line in out.read_text(encoding="utf-8").splitlines()[1:]:
        cells = line.split(",")
        mean_max[cells[0]] = float(cells[-1])
    assert (
        mean_max["ecoflex-00-30"]
        < mean_max["elastosil-m4601"]
        < mean_max["smooth-sil-950"]
    )


def test_sweep_unknown_material_exit_2(study_config, capsys):
    assert main(["sweep", "--config", str(study_config), "--materials", "unobtainium",
                 "--ratios", "1/2"]) == 2
    err = capsys.readouterr().err
    assert "unobtainium" in err
    assert "ecoflex-00-30" in err  # the known names are listed


def test_sweep_bad_ratio_exit_2(study_config, capsys):
    assert main(["sweep", "--config", str(study_config),
                 "--materials", "ecoflex-00-30", "--ratios", "1/0"]) == 2
    capsys.readouterr()


def test_simulate_custom_inline_material(tmp_path, capsys):
    config = tmp_path / "custom.ini"
    config.write_text(
        PROTOTYPE_CONFIG.replace(
            "name = dragonskin-30",
            "name = lab-batch-7\nc1 = 0.12\nc2 = 0.011\ndensity = 1100",
        ),
        encoding="utf-8",
    )
    assert main(["simulate", "--config", str(config)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 11
    assert lines[1].split(",")[1] != "1.000000"  # stretch responds to pressure


def test_simulate_custom_material_rejects_bad_coefficients(tmp_path, capsys):
    config = tmp_path / "custom.ini"
    config.write_text(
        PROTOTYPE_CONFIG.replace(
            "name = dragonskin-30", "name = broken\nc1 = -0.5"
        ),
        encoding="utf-8",
    )
    assert main(["simulate", "--config", str(config)]) == 2
    assert "c1" in capsys.readouterr().err


def test_sweep_max_column_consistency(study_config, tmp_path):
    out = tmp_path / "one.csv"
    main(["sweep", "--config", str(study_config), "--materials", "ecoflex-00-30",
          "--ratios", "1/5", "--out", str(out)])
    lines = out.read_text(encoding="utf-8").splitlines()[1:]
    f_spa = [float(l.split(",")[8]) for l in lines]
    max_col = {l.split(",")[-2] for l in lines}
    assert max_col == {f"{max(f_spa):.6f}"}


def test_validate_qq_above_cap_exit_2(tmp_path, capsys):
    model = tmp_path / "m.csv"
    write_curve(model, [0.0, 1.0, 2.0], [1.0, 2.0, 0.0])
    assert main(["validate", str(model), str(model), "--qq", str(MAX_QUANTILES + 1)]) == 2
    assert f"quantile count must be at most {MAX_QUANTILES}" in capsys.readouterr().err


SHIPPED_STUDY = Path(__file__).resolve().parents[1] / "configs" / "wall_ratio_study.ini"


@pytest.mark.parametrize(
    "materials, ratios, code, message",
    [
        # The model error of the first cell beats the invalid ratio of the second.
        ("smooth-sil-950", "0.05,0", 3,
         "model error: at pressure 0.100000 MPa: arc length 62.8319 must exceed the vertical chord 62.8773"),
        # Cell 2 (smooth-sil-950 at 0.5) passes; cell 1 fails at its own lowest pressure.
        ("smooth-sil-950,ecoflex-00-30", "0.1,0.5", 3,
         "model error: at pressure 0.200000 MPa: arc length 62.8319 must exceed the vertical chord 62.8773"),
        # The invalid ratio of the first cell is reported before the second cell is simulated.
        ("dragonskin-30", "0,0.05", 2, "error: wall ratio must be positive, got 0.0"),
    ],
)
def test_sweep_first_failing_cell_decides(materials, ratios, code, message, capsys):
    argv = ["sweep", "--config", str(SHIPPED_STUDY), "--materials", materials, "--ratios", ratios]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [message]
    assert captured.out == ""


def test_sweep_evaluates_the_model_once(study_config, tmp_path, monkeypatch):
    passes = []
    simulate = actuation.simulate_pressure

    def counting(spec, pressure):
        passes.append(len(pressure))
        return simulate(spec, pressure)

    monkeypatch.setattr(actuation, "simulate_pressure", counting)
    out = tmp_path / "study.json"
    assert main(["sweep", "--config", str(study_config), "--materials",
                 "ecoflex-00-30,smooth-sil-950", "--ratios", "1/4,1/2,1", "--out", str(out),
                 "--format", "json"]) == 0
    assert passes == [6]
    assert len(json.loads(out.read_text(encoding="utf-8"))["cells"]) == 6


@pytest.mark.parametrize("ratios, repeated", [("0.5,0.5,1", "0.5"), ("1/2,1,0.5", "0.5"),
                                              ("1/5,1,0.2", "0.2")])
def test_sweep_rejects_duplicate_ratios(ratios, repeated, capsys):
    # Each cell is printed, but the per-material mean of maxima would count a
    # repeated ratio once; ratios compare after parsing, so 1/2 equals 0.5.
    argv = ["sweep", "--config", str(SHIPPED_STUDY), "--materials", "ecoflex-00-30",
            "--ratios", ratios]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: duplicate wall ratio {repeated} in --ratios"]
    assert captured.out == ""


@pytest.mark.parametrize("qq", ["1", str(MAX_QUANTILES + 1)])
def test_validate_checks_qq_before_any_frechet_dp(qq, tmp_path, monkeypatch, capsys):
    calls = []

    def no_dp(a, b):
        calls.append((len(a), len(b)))
        raise AssertionError("Frechet DP ran before the quantile count was checked")

    monkeypatch.setattr(validation, "discrete_frechet", no_dp)
    model = tmp_path / "m.csv"
    write_curve(model, [0.0, 1.0, 2.0], [1.0, 2.0, 0.0])
    assert main(["validate", str(model), str(model), "--qq", qq]) == 2
    assert "quantile count must be" in capsys.readouterr().err
    assert calls == []


def test_cli_import_does_not_load_scipy():
    # scipy is a test-only dependency; a fresh interpreter that imports the
    # command line must not pull it in.
    env = {**os.environ, "PYTHONPATH": str(Path(apmsim.__file__).parents[1])}
    probe = "import sys, apmsim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    fresh = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                           env=env, check=True)
    assert fresh.stdout == "[]\n"


@pytest.mark.parametrize(
    "argv, code, prefix",
    [
        # The wall stress factor and c_m overflow, or the factor divides by a subnormal.
        (["sweep", "--config", str(SHIPPED_STUDY), "--materials", "dragonskin-30",
          "--ratios", "1e160"], 3, "model error: "),
        (["sweep", "--config", str(SHIPPED_STUDY), "--materials", "dragonskin-30",
          "--ratios", "1e-320"], 3, "model error: "),
        # The x steps and the bounding-box rescale overflow.
        (["validate", "{curve}", "{curve}"], 2, "error: "),
    ],
    ids=["sweep-1e160", "sweep-1e-320", "validate-1e308"],
)
def test_numpy_warnings_do_not_leak(argv, code, prefix, tmp_path, capsys):
    curve = tmp_path / "wide.csv"
    write_curve(curve, [-1e308, 1e308], [1e308, -1e308])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([arg.format(curve=curve) for arg in argv]) == code
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(prefix)


def test_public_surface():
    assert sorted(apmsim.__all__) == [
        "ActuationState", "AgreementReport", "ConfigError", "Curve", "DataError",
        "DomainError", "LoadedTrial", "MATERIALS", "MyofibrilSpec", "PressureSweep",
        "SarcomereGeometry", "SpaGeometry", "UnbracketedRootError", "YeohMaterial",
        "actuation_strain", "adjustment_coefficient", "cauchy_stress", "check_length_ratio",
        "compare_curves", "contraction_angle", "contraction_force", "design_from_a_band",
        "discrete_frechet", "expansion_force", "inverse_cauchy_stress", "junction_stretch",
        "myofibril_length", "myosin_height_bounds", "normalized_frechet", "qq_pairs",
        "r_squared", "resting_length", "restoring_force", "semi_ellipse_arc_length",
        "simulate_pressure", "simulate_sweep", "solve_major_axis", "strain_energy",
        "wall_stress_factor",
    ]
    for name in apmsim.__all__:
        assert getattr(apmsim, name) is not None
