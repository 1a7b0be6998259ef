import configparser
import contextlib
import io
import json
import math
import os
import re
import string
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

import apmsim
from apmsim import _jsontext, actuation, cli, validation
from apmsim.actuation import MAX_GRID_POINTS, ActuationState, simulate_sweep
from apmsim.cli import main
from apmsim.config import GRAMMAR, RunConfig, builtin_material, load_config, parse_ratio
from apmsim.errors import ConfigError, DomainError
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
    # Rows are formatted straight from the tuple, so the columns must name
    # the fields in their declared order: each column is its field's name,
    # or that name with a unit appended.
    assert len(cli.STATE_COLUMNS) == len(ActuationState._fields)
    for column, field in zip(cli.STATE_COLUMNS, ActuationState._fields):
        assert column == field or column.startswith(field + "_")


# The start of each key's error line: the ConfigError's "invalid <what>: ",
# then the model layer's name for the value.
NON_FINITE_PREFIX = {
    "a_band": "invalid sarcomere: sarcomere dimension ",
    "actin_arc": "invalid sarcomere: sarcomere dimension ",
    "myosin_height": "invalid sarcomere: ",
    "t_w": "invalid [spa] geometry: SPA dimension ",
    "h_ch": "invalid [spa] geometry: SPA dimension ",
    "c1": "invalid custom material: lot: ",
    "c2": "invalid custom material: lot: ",
    "end": "invalid [sweep]: ",
    "step": "invalid [sweep]: ",
}


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
        ("end", "nan", "start and end must be finite, got start=0.01, end=nan"),
        ("step", "inf", "step must be positive and finite, got inf"),
    ],
)
def test_simulate_rejects_non_finite_design_exit_2(tmp_path, capsys, key, value, message):
    # The whole stderr line, so that each row pins the prefix naming what
    # failed to build as well as the model layer's message.
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
    assert captured.err == f"error: {NON_FINITE_PREFIX[key]}{message}\n"


@pytest.mark.parametrize(
    "edit, what",
    [
        (("t_w = 1.5", "t_w = -1"), "[spa] geometry"),
        (("\nn = 1\n", "\nn = 0\n"), "design"),
        (("name = dragonskin-30", "name = lot\nc1 = -1"), "custom material"),
        (("a_band = 30", "a_band = nan"), "sarcomere"),
        (("step = 0.01", "step = 0"), "[sweep]"),
    ],
    ids=["spa", "design", "material", "sarcomere", "sweep"],
)
def test_config_error_is_chained_to_the_domain_error(tmp_path, edit, what):
    # Each of the five builds from config text turns the model layer's
    # DomainError into a ConfigError naming what failed, chained to it.
    config = tmp_path / "faulty.ini"
    config.write_text(PROTOTYPE_CONFIG.replace(*edit), encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        load_config(config).build_spec()
    cause = info.value.__cause__
    assert type(cause) is DomainError
    assert str(info.value) == f"invalid {what}: {cause}"


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
        # As the fresh interpreter's -W ignore does, whatever filters the
        # test runner has set.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
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


# A prototype with an inline material, so that every [material] key is read.
CUSTOM_CONFIG = PROTOTYPE_CONFIG.replace(
    "name = dragonskin-30", "name = lot\nc1 = 0.096\nc2 = 0.0095"
)

# Every key of the config grammar, and every numeric one, as (section, key).
GRAMMAR_KEYS = [(section, key) for section, (_, keys) in GRAMMAR.items() for key in keys]
NUMERIC_KEYS = [
    (section, key) for section, key in GRAMMAR_KEYS if GRAMMAR[section][1][key][0] in (float, int)
]


def test_numeric_keys_come_from_the_grammar():
    assert len(set(NUMERIC_KEYS)) == len(NUMERIC_KEYS) == 21
    assert [key for section, key in NUMERIC_KEYS if section == "sweep"] == ["start", "end", "step"]


def test_readme_names_every_grammar_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \|", readme, flags=re.MULTILINE)
    assert sorted(rows) == sorted(GRAMMAR_KEYS)


def test_readme_names_every_output_column():
    # The README restates the declared column and key names in order; it
    # must not drift from them.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

    def listed(pattern):
        match = re.search(pattern, readme)
        assert match, pattern
        return tuple(name.strip(" `\n") for name in re.split(r",|\band\b", match.group(1)))

    assert listed(r"`simulate` emits one row per grid pressure with columns\s+`([^`]+)`") == (
        cli.STATE_COLUMNS
    )
    assert listed(r"one object per cell\s+with ([^.]+?),?\s+and its `states`") == (
        cli._CELL_HEAD + cli._CELL_TAIL
    )
    assert listed(r"prefixes each row with\s+`([^`]+)`") == cli._CELL_HEAD
    assert listed(r"appends\s+`([^`]+)`") == cli._CELL_TAIL


def write_config(path, values):
    """Write CUSTOM_CONFIG with each (section, key) of values set to its text;
    a section it does not have is added."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(CUSTOM_CONFIG)
    for (section, key), text in values.items():
        if section not in parser:
            parser.add_section(section)
        parser[section][key] = text
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


@pytest.mark.parametrize("old, new, message", [
    # A misspelt key used to simulate another design, a misspelt section the
    # built-in grid, and keys next to a built-in name were ignored or made
    # another material under that name; each exited 0.
    ("actin_arc = 32", "actn_arc = 32", "unknown key 'actn_arc' in [sarcomere]"),
    ("[sweep]", "[swep]", "unknown section [swep]"),
    ("name = dragonskin-30", "name = dragonskin-30\nc2 = abc\ndensity = nan",
     "key 'c2' in [material] is not a number"),
    ("name = dragonskin-30", "name = dragonskin-30\nc1 = 0.2",
     "[material] sets c1 next to the built-in name 'dragonskin-30'"),
    ("name = dragonskin-30", "name = dragonskin-30\nc3 = 0\ndensity = nan",
     "[material] sets c3, density next to the built-in name 'dragonskin-30'"),
    ("name = dragonskin-30", "name = lot\nc2 = 0.01\ndensity = 1000",
     "[material] sets c2, density without c1"),
    # The retired key, and [DEFAULT], whose keys configparser copies into
    # every section.
    ("n = 1", "n = 1\nsarcomere_height = 20", "unknown key 'sarcomere_height' in [sarcomere]"),
    ("[material]", "[DEFAULT]\nn = 2\n\n[material]", "unknown section [DEFAULT]"),
    # Faults in names are reported before faults in values.
    ("[sweep]\nstart = 0.01", "[sweep]\nstart = abc\nbegin = 0", "unknown key 'begin' in [sweep]"),
    ("n = 1", "n = abc\n\n[chamber]\nx = 1", "unknown section [chamber]"),
])
def test_config_outside_the_grammar_exit_2(old, new, message, tmp_path, capsys):
    config = tmp_path / "typo.ini"
    text = PROTOTYPE_CONFIG.replace("step = 0.01", "step = 0.005")
    assert old in text
    config.write_text(text.replace(old, new), encoding="utf-8")
    assert main(["simulate", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("edits, message", [
    # A fault in building [material] before a parse fault in [sweep].
    ({"dragonskin-30": "vantablack", "step = 0.01": "step = abc"}, "unknown material 'vantablack'"),
    # A fault in building [sarcomere] before one in building [sweep].
    ({"a_band = 30": "a_band = -1", "start = 0.01": "start = 0.5"}, "invalid sarcomere: "),
], ids=["material-then-sweep", "sarcomere-then-sweep"])
def test_config_earlier_section_fault_is_reported(edits, message, tmp_path, capsys):
    # Sections are read and built in grammar order, so of two faults in
    # values the earlier section's is reported.
    config = tmp_path / "two.ini"
    text = PROTOTYPE_CONFIG
    for old, new in edits.items():
        text = text.replace(old, new)
    config.write_text(text, encoding="utf-8")
    assert main(["simulate", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


def test_config_missing_sections_are_named_together(tmp_path, capsys):
    config = tmp_path / "short.ini"
    config.write_text("[material]\nname = dragonskin-30\n", encoding="utf-8")
    assert main(["simulate", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {config}: missing section [sarcomere], [spa]\n"


@pytest.mark.parametrize("output, path, fmt", [
    ("", None, "csv"),
    ("\n[output]\n", None, "csv"),
    ("\n[output]\npath =\nformat = JSON\n", None, "json"),
    ("\n[output]\npath = run.csv\n", "run.csv", "csv"),
])
def test_config_output_section(output, path, fmt, tmp_path):
    # An empty path means stdout; the format is lower-cased.
    config = tmp_path / "out.ini"
    config.write_text(PROTOTYPE_CONFIG + output, encoding="utf-8")
    loaded = load_config(config)
    assert (loaded.out_path, loaded.out_format) == (path, fmt)


@pytest.mark.parametrize("head, output, message", [
    # open() raised ValueError on the NUL, a traceback with exit 1.
    ("", "path = a\0b", "output path 'a\\x00b' holds a NUL character"),
    # configparser's messages of these two faults span two and three lines.
    ("", "path =\n0", "Source contains parsing errors: '{config}' [line 27]: '0\\n'"),
    ("path = x\n", "", "File contains no section headers. file: '{config}', line: 1 'path = x\\n'"),
], ids=["nul-in-path", "unparsable-line", "no-section-header"])
def test_config_output_faults_print_one_error_line(head, output, message, tmp_path, capsys):
    config = tmp_path / "out.ini"
    config.write_text(f"{head}{PROTOTYPE_CONFIG}\n[output]\n{output}\n", encoding="utf-8")
    assert main(["simulate", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.err.endswith(message.format(config=config) + "\n")


def test_simulate_overflowing_state_exit_3(tmp_path, capsys):
    # Every input is finite and accepted, but the chamber force overflows.
    config = tmp_path / "overflow.ini"
    config.write_text(
        PROTOTYPE_CONFIG.replace("a_ch = 9.5", "a_ch = 1e308").replace("b_ch = 10", "b_ch = 1e-320"),
        encoding="utf-8",
    )
    assert main(["simulate", "--config", str(config)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "model error: at pressure 0.010000 MPa: f_e is not finite (inf)\n"


@pytest.mark.parametrize("value", ["abc", "", "1/0"])
@pytest.mark.parametrize("section, key", NUMERIC_KEYS)
def test_config_number_names_key_and_section(section, key, value, tmp_path, capsys):
    config = tmp_path / "bad.ini"
    write_config(config, {(section, key): value})
    assert main(["simulate", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: key {key!r} in [{section}] is not a number\n"


@pytest.mark.parametrize("key, message", [
    ("n", "invalid design: sarcomere count n must lie within [1, 2**53]"),
    ("junctions_per_myosin", "invalid sarcomere: junctions_per_myosin must lie within [1, 2**53]"),
])
def test_config_huge_count_exit_2(key, message, tmp_path, capsys):
    # A count beyond the float range used to overflow in the pipeline.
    config = tmp_path / "huge.ini"
    write_config(config, {("sarcomere", key): "1" + "0" * 400})
    assert main(["simulate", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# Texts at the edges of a number reader: non-finite, signed zero, the float
# extremes, empty and non-ASCII text, and non-negative integers of up to 500
# digits (beyond the float range from 309 digits on).
odd_values = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-0", "1e308", "1e-320", ""]),
    st.text(st.characters(min_codepoint=0x80, exclude_categories=["Cs"]), min_size=1, max_size=6),
    st.integers(0, 10**500 - 1).map(str),
)


@st.composite
def misspelt_keys(draw):
    """A grammar key with one letter changed, which its section does not know."""
    section, key = draw(st.sampled_from(GRAMMAR_KEYS))
    i = draw(st.integers(0, len(key) - 1))
    typo = key[:i] + draw(st.sampled_from(string.ascii_lowercase)) + key[i + 1:]
    assume(typo not in GRAMMAR[section][1])
    return section, typo, f"error: unknown key {typo!r} in [{section}]\n"


@st.composite
def unknown_sections(draw):
    """A section the grammar does not know, holding one grammar key."""
    section = draw(st.one_of(
        st.sampled_from(["DEFAULT", "swep", "Sweep", "materials"]),
        st.text(st.sampled_from(string.ascii_lowercase + "_"), min_size=1, max_size=10),
    ))
    assume(section not in GRAMMAR)
    _, key = draw(st.sampled_from(GRAMMAR_KEYS))
    return section, key, f"error: unknown section [{section}]\n"


def run_quietly(argv):
    # main's exit code, stdout and stderr text; design-rule warnings are not
    # kept.
    out, err = io.StringIO(), io.StringIO()
    with (
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
        warnings.catch_warnings(),
    ):
        warnings.simplefilter("ignore", UserWarning)
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_cli_contract(run, finite, codes=(0, 2, 3)):
    """Check the contract that every CLI run keeps, and return its result.

    run() runs the command once, from a clean state, and returns
    ((code, stdout, stderr), written), written being what the run left in
    files (empty or None when nothing). The code is one of codes and stderr
    holds no traceback. An error leaves stdout empty, writes nothing and
    prints one line: "error: " for exit 2, "model error: " for exit 3. Exit 0
    prints nothing to stderr, and finite(stdout, written) holds: every number
    of the output is finite. A rerun gives the same result.
    """
    (code, out, err), written = result = run()
    assert code in codes
    assert "Traceback" not in err
    if code:
        assert out == "" and not written
        assert err.endswith("\n") and err.splitlines() == [err[:-1]]
        assert err.startswith("error: " if code == 2 else "model error: ")
    else:
        assert err == ""
        assert finite(out, written)
    assert run() == result
    return result


def custom_numbers():
    # CUSTOM_CONFIG's number under each numeric key, and for a key it does
    # not set a value the key could take.
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(CUSTOM_CONFIG)
    numbers = {("material", "c3"): 0.001, ("material", "density"): 1080.0,
               ("sarcomere", "i_band"): 20.0, ("spa", "assumed_h_ch"): 5.0}
    numbers.update((key, float(parser[key[0]][key[1]])) for key in NUMERIC_KEYS if parser.has_option(*key))
    assert sorted(numbers) == sorted(NUMERIC_KEYS)
    return numbers


CUSTOM_NUMBERS = custom_numbers()


def near_values(key):
    """Texts of values within 10 % of CUSTOM_CONFIG's, which mostly run."""
    if GRAMMAR[key[0]][1][key[1]][0] is int:
        return st.integers(1, 3).map(str)
    return st.floats(0.9, 1.1).map(lambda factor: repr(CUSTOM_NUMBERS[key] * factor))


# Half the values are near the shipped ones, so that accepted runs are
# fuzzed too. A third of the examples carry no fault in names, so 600
# examples keep 200 runs that fuzz the values alone.
@settings(max_examples=600, deadline=None)
@given(
    st.lists(
        st.sampled_from(NUMERIC_KEYS).flatmap(
            lambda key: st.tuples(st.just(key), st.one_of(odd_values, near_values(key)))
        ),
        min_size=1,
        max_size=2,
    ).map(dict),
    st.one_of(st.none(), misspelt_keys(), unknown_sections()),
)
def test_config_fuzz_exits_0_2_or_3(values, fault):
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "fuzz.ini", Path(tmp) / "out.csv"
        if fault is not None:
            section, key, message = fault
            values = {**values, (section, key): "1"}
        write_config(config, values)
        # Keep every run cheap: a grid of more than 10 points is not run.
        try:
            sweep = load_config(config).sweep
        except (ConfigError, DomainError):
            sweep = None
        if sweep is not None and len(sweep.pressures()) > 10:
            reject()
        argv = ["simulate", "--config", str(config), "--out", str(out)]

        def run():
            out.unlink(missing_ok=True)
            return run_quietly(argv), out.read_bytes() if out.exists() else None

        (code, stdout, err), _ = check_cli_contract(
            run, lambda stdout, written: finite_output("csv", written.decode("utf-8")))
        assert stdout == ""
        if fault is not None:
            assert (code, err) == (2, message)


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


def test_validate_report_formats_carry_the_same_numbers(tmp_path, capsys):
    # The printed lines, the CSV report and the JSON report give each number
    # under one name, to the same six decimals.
    model, reference = tmp_path / "m.csv", tmp_path / "r.csv"
    write_curve(model, [0.0, 0.4, 1.0], [0.0, 0.7, 1.3])
    write_curve(reference, [0.0, 0.5, 1.0], [0.0, 0.5, 1.0])
    json_out, csv_out = tmp_path / "report.json", tmp_path / "report.csv"
    assert main(["validate", str(model), str(reference), "--out", str(json_out)]) == 0
    printed = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
    assert main(["validate", str(model), str(reference), "--out", str(csv_out),
                 "--format", "csv"]) == 0
    assert dict(line.split("=") for line in capsys.readouterr().out.splitlines()) == printed
    header, row = csv_out.read_text(encoding="utf-8").splitlines()
    columns = dict(zip(header.split(","), row.split(","), strict=True))
    payload = json.loads(json_out.read_text(encoding="utf-8"))
    assert payload.pop("resampled") is False
    assert {name: f"{value:.6f}" for name, value in payload.items()} == columns
    assert list(printed) == ["frechet_normalized_pct", "frechet_raw", "r_squared"]
    assert printed == {name: columns[name] for name in printed}
    assert payload["frechet_normalized_pct"] == 100.0 * payload["frechet_normalized"] > 0.0


def test_validate_accepts_x_that_collapse_when_normalised(tmp_path, monkeypatch, capsys):
    # The model's first two x are adjacent floats; divided by the reference's
    # x span they round to one value, which the distance does not mind.
    model, reference = tmp_path / "m.csv", tmp_path / "r.csv"
    model.write_text("x,y\n825.5111545554435,0\n825.5111545554436,1\n826,2\n", encoding="utf-8")
    reference.write_text("x,y\n0,0\n3,2\n", encoding="utf-8")
    calls = []
    frechet = validation.discrete_frechet

    def counted(a, b):
        calls.append((len(a), len(b)))
        return frechet(a, b)

    monkeypatch.setattr(validation, "discrete_frechet", counted)
    assert main(["validate", str(model), str(reference), "--resample"]) == 0
    assert calls == [(3, 2), (3, 2)]
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [
        "frechet_normalized_pct=27517.038485",
        "frechet_raw=825.511155",
        "r_squared=-1.000000",
    ]


@pytest.mark.parametrize("body", [
    b"x,y\n0,0\n1,\xff\n",
    b"x,y\n0,0\n1," + b"1" * 140_000 + b"\n",
], ids=["not-utf-8", "field-beyond-csv-limit"])
def test_validate_unreadable_curve_exit_2(body, tmp_path, capsys):
    bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
    bad.write_bytes(body)
    write_curve(good, [0.0, 1.0], [0.0, 1.0])
    assert main(["validate", str(good), str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: ")
    assert len(captured.err.splitlines()) == 1


def test_validate_reads_a_curve_with_a_byte_order_mark(tmp_path, capsys):
    # Spreadsheets may write a UTF-8 byte-order mark before the header row.
    model, plain, marked = tmp_path / "m.csv", tmp_path / "r.csv", tmp_path / "r_bom.csv"
    write_curve(model, [0.0, 1.0, 2.0], [0.0, 2.0, 3.0])
    write_curve(plain, [0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert main(["validate", str(model), str(plain)]) == 0
    expected = capsys.readouterr()
    assert main(["validate", str(model), str(marked)]) == 0
    assert capsys.readouterr() == expected
    assert expected.out.splitlines()[0] == "frechet_normalized_pct=25.000000"


@pytest.mark.parametrize("k, row, p", [(641, 3, "0.004688"), (1921, 111, "0.057812")])
def test_validate_qq_csv_p_is_the_probability_used(k, row, p, tmp_path, monkeypatch):
    # The quantiles are taken at np.linspace's i * (1/(k-1)), which for these
    # rows differs from i/(k-1) at the sixth decimal.
    monkeypatch.chdir(tmp_path)
    write_curve(tmp_path / "model.csv", [0.0, 0.5, 1.0], [0.0, 0.2, 1.0])
    write_curve(tmp_path / "reference.csv", [0.0, 0.5, 1.0], [0.0, 0.4, 1.0])
    argv = ["validate", "model.csv", "reference.csv", "--qq", str(k), "--format", "csv",
            "--out", "r.csv"]
    assert main(argv) == 0
    lines = Path("r.qq.csv").read_text(encoding="utf-8").splitlines()
    assert lines[1 + row].startswith(f"{p},")
    assert [line.split(",")[0] for line in lines[1:]] == ["%.6f" % q for q in np.linspace(0, 1, k)]


def test_validate_help_names_the_quantile_cap(monkeypatch, capsys):
    for cap in (MAX_QUANTILES, 12345):
        monkeypatch.setattr(cli, "MAX_QUANTILES", cap)
        with pytest.raises(SystemExit) as exited:
            cli.build_parser().parse_args(["validate", "--help"])
        assert exited.value.code == 0
        assert f"2 <= K <= {cap}" in " ".join(capsys.readouterr().out.split())


def test_validate_unwritable_out_leaves_stdout_empty(tmp_path, capsys):
    curve = tmp_path / "c.csv"
    write_curve(curve, [0.0, 0.5, 1.0], [0.0, 0.3, 1.0])
    out = tmp_path / "missing" / "report.json"
    assert main(["validate", str(curve), str(curve), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert str(out) in captured.err
    assert len(captured.err.splitlines()) == 1


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


def test_sweep_overflowing_ratio_exit_2(study_config, capsys):
    # float(Fraction("1e400")) raises OverflowError.
    assert main(["sweep", "--config", str(study_config),
                 "--materials", "ecoflex-00-30", "--ratios", "1e400"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad ratio '1e400': ")
    assert "Traceback" not in err


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "grid", ["", "\n[sweep]\nstart = 0\nend = 0\nstep = 0.01\n"], ids=["built-in-grids", "one-point-grids"]
)
def test_sweep_maxima_equal_each_cells_own(grid, fmt, study_config, tmp_path):
    # The sweep takes every cell's largest f_spa in one call over the pass's
    # column; each must be float(column.max()) of the cell's own column, and
    # each mean that of its material's maxima. The built-in grids have 10 to
    # 16 points; a one-point grid's only f_spa is 0.0.
    study_config.write_text(STUDY_CONFIG + grid, encoding="utf-8")
    materials, ratios = ["ecoflex-00-30", "elastosil-m4601", "smooth-sil-950", "dragonskin-30"], ["1/5", "1/2", "3/2"]
    out = tmp_path / f"study.{fmt}"
    argv = ["sweep", "--config", str(study_config), "--materials", ",".join(materials),
            "--ratios", ",".join(ratios), "--format", fmt, "--out", str(out)]
    assert run_quietly(argv)[0] == 0
    run, expected = load_config(study_config), {}
    for name in materials:
        tops = {}
        for ratio in map(parse_ratio, ratios):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                spec = run.spec_with_spa(run.spa_for_ratio(ratio), builtin_material(name))
            columns, _ = actuation.simulate_cells([(spec, run.sweep_for_material(name))])
            tops[ratio] = float(columns[cli._F_SPA].max())
        mean_max = math.fsum(tops.values()) / len(tops)
        expected.update({(name, ratio): (top, mean_max) for ratio, top in tops.items()})
    if grid:
        assert {top for top, _ in expected.values()} == {0.0}
    text = out.read_text(encoding="utf-8")
    if fmt == "json":
        got = {(cell["material"], cell["tw_hch_ratio"]): (cell["max_f_spa_n"], cell["mean_max_f_spa_n"])
               for cell in json.loads(text)["cells"]}
        assert {key: tuple(map(repr, value)) for key, value in got.items()} == {
            key: tuple(map(repr, value)) for key, value in expected.items()
        }
    else:
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert {(row[0], row[1], row[-2], row[-1]) for row in rows} == {
            (name, f"{ratio:.6f}", f"{top:.6f}", f"{mean_max:.6f}")
            for (name, ratio), (top, mean_max) in expected.items()
        }
        assert len(rows) == (len(expected) if grid else 3 * (11 + 16 + 11 + 10))


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


@pytest.mark.parametrize("materials", ["dragonskin-30,dragonskin-30",
                                       "dragonskin-30,ecoflex-00-30, dragonskin-30"])
def test_sweep_rejects_duplicate_materials(materials, capsys):
    # A repeated material used to print every one of its cells twice.
    argv = ["sweep", "--config", str(SHIPPED_STUDY), "--materials", materials,
            "--ratios", "1/2,1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: duplicate material 'dragonskin-30' in --materials"]
    assert captured.out == ""


def test_sweep_over_the_point_cap_exit_2_before_any_cell(study_config, monkeypatch, capsys):
    # Two ratios of a 50 001-point [sweep] are 100 002 points in one pass,
    # which would need about 100 MB; the sweep stops before it builds a cell.
    config = study_config.with_name("huge.ini")
    config.write_text(STUDY_CONFIG + "\n[sweep]\nstart = 0\nend = 0.5\nstep = 0.00001\n", encoding="utf-8")
    assert load_config(config).sweep._count() == 50_001
    calls = []
    monkeypatch.setattr(cli, "simulate_cells", lambda cells: calls.append("simulate_cells"))
    monkeypatch.setattr(RunConfig, "spec_with_spa", lambda *args: calls.append("spec_with_spa"))
    argv = ["sweep", "--config", str(config), "--materials", "dragonskin-30", "--ratios", "1/4,1/2"]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: sweep has 100002 points in all, more than {MAX_GRID_POINTS}\n"
    assert calls == []
    # Not one grid of the pass: 100 002 float64 points alone are 800 KB.
    assert peak < 400_000


@pytest.mark.parametrize("materials, ratios, points", [
    # The built-in grids have 10 (dragonskin-30) and 11 (ecoflex-00-30) points.
    ("dragonskin-30", "1/4,1/2", 20),
    ("dragonskin-30", "1/4,1/2,1", 30),
    ("dragonskin-30,ecoflex-00-30", "1/2", 21),
    ("ecoflex-00-30", "1/4", 11),
])
def test_sweep_point_cap_counts_every_cell(materials, ratios, points, study_config, monkeypatch, capsys):
    # At a cap of 20 points both sides of the boundary are cheap to run.
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 20)
    argv = ["sweep", "--config", str(study_config), "--materials", materials, "--ratios", ratios]
    code = main(argv)
    captured = capsys.readouterr()
    if points > 20:
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: sweep has {points} points in all, more than 20\n"
    else:
        assert (code, captured.err) == (0, "")
        assert len(captured.out.splitlines()) == 1 + points


SHIPPED_PROTOTYPE = SHIPPED_STUDY.with_name("prototype.ini")
STUDY_MATERIALS = ("ecoflex-00-30", "elastosil-m4601", "smooth-sil-950", "dragonskin-30")


# Texts of --ratios at the edges of parse_ratio and of the model: non-finite,
# signed zero, subnormals, beyond the float range, a zero denominator,
# fractions and decimals, blank and junk text.
ratio_texts = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-0", "5e-324", "1e-320", "1e400", "1/0",
                     "1/8", "1/5", "1/3", "1/2", "1", "3/2", "0.25", "-1/2", "1e160", "", " ",
                     "abc", "1/2/3", "0x1"]),
    st.fractions(0, 10, max_denominator=12).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=4),
)
# Texts of --materials: the built-in names, each also misspelt, padded,
# upper-cased or blank.
material_texts = st.one_of(
    st.sampled_from(STUDY_MATERIALS),
    st.sampled_from(STUDY_MATERIALS).map(lambda name: name[:-1]),
    st.sampled_from(STUDY_MATERIALS).map(lambda name: f" {name} "),
    st.sampled_from(STUDY_MATERIALS).map(str.upper),
    st.sampled_from(["", " ", "ecoflex", "silicone"]),
)


def entry_lists(texts, accepted):
    # Comma-separated lists of one to four entries: half of them distinct
    # entries that parse, so that a quarter of the runs can succeed; the
    # others drawn from texts, with repeats.
    return st.one_of(st.lists(accepted, min_size=1, max_size=4, unique=True),
                     st.lists(texts, min_size=1, max_size=4)).map(",".join)


def finite_output(fmt, text):
    # Whether every number of a sweep's output text is finite.
    if fmt == "json":
        numbers = []

        def collect(value):
            if isinstance(value, dict):
                value = list(value.values())
            if isinstance(value, list):
                for item in value:
                    collect(item)
            elif isinstance(value, (int, float)):
                numbers.append(value)

        collect(json.loads(text))
        return bool(numbers) and all(map(math.isfinite, numbers))
    header, *rows = [line.split(",") for line in text.splitlines()]
    texts = [field for row in rows for column, field in zip(header, row, strict=True)
             if column not in ("material", "ratio_flag")]
    return bool(texts) and all(math.isfinite(float(field)) for field in texts)


@settings(max_examples=150, deadline=None)
@given(
    entry_lists(material_texts, st.sampled_from(STUDY_MATERIALS)),
    # Ratios from 1/8 to 3/2, where every built-in material simulates.
    entry_lists(ratio_texts, st.fractions(Fraction(1, 8), Fraction(3, 2), max_denominator=12).map(str)),
)
def test_sweep_lists_fuzz_exits_0_2_or_3(materials, ratios):
    # Built-in grids have at most 21 points, so every run is cheap. The
    # lists go in as --flag=text, so that a leading '-' is not read as a flag.
    for fmt in ("csv", "json"):
        argv = ["sweep", "--config", str(SHIPPED_STUDY), f"--materials={materials}",
                f"--ratios={ratios}", "--format", fmt]
        check_cli_contract(lambda: (run_quietly(argv), None), lambda out, _: finite_output(fmt, out))


# [output] format texts: half of them csv or json in any case and padding,
# the others junk.
format_texts = st.one_of(
    st.builds("{}{}{}".format, st.sampled_from(["", " ", "\t"]),
              st.sampled_from(["csv", "json", "CSV", "JSON", "Csv", "jSoN"]),
              st.sampled_from(["", " ", "\t"])),
    st.one_of(st.sampled_from(["", "xml", "csv,json", "js on", "jsonl"]), st.text(max_size=5)),
)
# [output] path texts: empty, which means stdout, or a name of a file in the
# working directory: no separator and no "..".
path_texts = st.one_of(
    st.just(""),
    st.text(st.characters(exclude_characters="/\\", exclude_categories=["Cs"]), min_size=1,
            max_size=8).filter(lambda text: ".." not in text),
)
# [material] name texts: the built-in names, each also padded, upper-cased
# or misspelt, and non-ASCII names.
name_texts = st.one_of(
    st.sampled_from(STUDY_MATERIALS),
    st.sampled_from(STUDY_MATERIALS).map(lambda name: f" {name}\t"),
    st.sampled_from(STUDY_MATERIALS).map(str.upper),
    st.sampled_from(STUDY_MATERIALS).map(lambda name: name[:-1]),
    st.text(st.characters(min_codepoint=0x80, exclude_categories=["Cs"]), min_size=1, max_size=6),
)
CONFIG_NAME = "fuzzed-config.ini"


@settings(max_examples=200, deadline=None)
@given(
    name_texts,
    st.booleans(),
    st.one_of(st.just(b""), st.sampled_from([b"\xff", b"\xc3\x28", b"\xed\xa0\x80"])),
    path_texts,
    format_texts,
)
def test_config_output_and_name_fuzz_exits_0_2_or_3(name, inline, broken, path, fmt):
    # With coefficients the name is a custom material's, so that any name
    # reaches the writers; broken bytes, not UTF-8, end the name. Each
    # example runs in a new working directory, which afterwards may hold
    # only the config and the file the config names.
    head, tail = PROTOTYPE_CONFIG.split("name = dragonskin-30")
    coefficients = "\nc1 = 0.096\nc2 = 0.0095" if inline else ""
    data = b"".join([head.encode(), b"name = ", name.encode(), broken, coefficients.encode(),
                     tail.encode(), f"\n[output]\npath = {path}\nformat = {fmt}\n".encode()])
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp)
        Path(CONFIG_NAME).write_bytes(data)

        def run(argv):
            for entry in set(os.listdir()) - {CONFIG_NAME}:
                os.remove(entry)
            result = run_quietly(argv)
            written = set(os.listdir()) - {CONFIG_NAME}
            return result, {entry: Path(entry).read_bytes() for entry in written}

        def finite(out, written):
            config = load_config(CONFIG_NAME)
            assert written.keys() == ({config.out_path} if config.out_path else set())
            return finite_output(config.out_format, out or written[config.out_path].decode("utf-8"))

        for argv in (["simulate", "--config", CONFIG_NAME],
                     ["sweep", "--config", CONFIG_NAME, "--materials", "dragonskin-30",
                      "--ratios", "1/2"]):
            check_cli_contract(lambda: run(argv), finite)


# Texts of one curve CSV field: plain numbers, the float extremes and the
# config fuzz's odd values.
curve_fields = st.one_of(
    st.floats(-1e3, 1e3).map(repr),
    st.sampled_from(["-1e308", "5e-324", "0", " 1 ", "1,5"]),
    odd_values,
)


@st.composite
def curve_csvs(draw):
    """The bytes of a curve CSV: a header, then up to 39 rows of increasing
    x, and blank rows. A quarter of the files may carry faults as well: a
    header other than x,y, up to three rows of one to three drawn fields,
    and, in half of them, a byte sequence that is not UTF-8."""
    faulty = draw(st.integers(0, 3)) == 3
    header = draw(st.sampled_from(["x,y", " x , y ", "y,x", "x", "x,y,z", ""] if faulty else ["x,y"]))
    xs = sorted(draw(st.lists(st.floats(-1e3, 1e3), min_size=0 if faulty else 2, max_size=39, unique=True)))
    rows = [f"{x!r},{draw(st.floats(-1e3, 1e3))!r}" for x in xs]
    inserted = st.lists(curve_fields, min_size=1, max_size=3) if faulty else st.just([""])
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), ",".join(draw(inserted)))
    data = "\n".join([header, *rows, ""]).encode("utf-8")
    if faulty and draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3\x28", b"\x80", b"\xed\xa0\x80"])) + data[at:]
    return data


@settings(max_examples=300, deadline=None)
@given(
    curve_csvs(),
    curve_csvs(),
    st.booleans(),
    st.sampled_from([None, 1, 2, 9, MAX_QUANTILES + 1]),
    st.sampled_from([None, "csv", "json"]),
)
def test_validate_curve_csv_fuzz_exits_0_or_2(model, reference, resample, qq, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        model_csv, reference_csv, report = (Path(tmp, name) for name in ("m.csv", "r.csv", "report"))
        model_csv.write_bytes(model)
        reference_csv.write_bytes(reference)
        argv = ["validate", str(model_csv), str(reference_csv)]
        argv += ["--resample"] * resample + (["--qq", str(qq)] if qq else [])
        if fmt:
            argv += ["--out", str(report), "--format", fmt]
        written = [report, report.with_suffix(".qq.csv")]

        def run():
            for path in written:
                path.unlink(missing_ok=True)
            return run_quietly(argv), [path.read_bytes() for path in written if path.exists()]

        def finite(out, files):
            lines = [line.split("=") for line in out.splitlines()]
            assert [name for name, _ in lines] == ["frechet_normalized_pct", "frechet_raw", "r_squared"]
            assert len(files) == (0 if fmt is None else 2 if fmt == "csv" and qq else 1)
            return (all(math.isfinite(float(value)) for _, value in lines)
                    and all(finite_output(fmt, text.decode("utf-8")) for text in files))

        check_cli_contract(run, finite, codes=(0, 2))


# One CSV row of a state, spelt out here: each number to six decimals by
# CPython's %, the flag as is.
STATE_ROW = "%.6f," * 11 + "%s"


@pytest.mark.parametrize("shipped", [True, False], ids=["configs-prototype", "fixture"])
def test_simulate_csv_bytes_equal_state_rows(shipped, proto_config):
    # The CSV is written from simulate_cells' columns; it must equal the
    # rows of simulate_sweep's states, each formatted by STATE_ROW.
    path = SHIPPED_PROTOTYPE if shipped else proto_config
    code, out, _ = run_quietly(["simulate", "--config", str(path)])
    run = load_config(path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        spec = run.build_spec()
    states = simulate_sweep(spec, run.sweep_for_material(run.material.name))
    header = ("pressure_mpa,lambda_jz,c_m,f_e_n,f_r_n,f_spa_n,theta_rad,"
              "f_contr_n,r1_mm,l_mf_mm,length_ratio,ratio_flag")
    assert code == 0
    assert out == header + "\n" + "\n".join(STATE_ROW % s for s in states) + "\n"


def test_sweep_csv_bytes_equal_state_rows():
    ratios = ("1/8", "1/5", "1/3", "1/2", "1", "3/2")
    code, out, _ = run_quietly(["sweep", "--config", str(SHIPPED_STUDY), "--materials",
                                ",".join(STUDY_MATERIALS), "--ratios", ",".join(ratios)])
    run = load_config(SHIPPED_STUDY)
    lines = ["material,tw_hch_ratio,assumed_h_ch_mm,pressure_mpa,lambda_jz,c_m,f_e_n,f_r_n,"
             "f_spa_n,theta_rad,f_contr_n,r1_mm,l_mf_mm,length_ratio,ratio_flag,max_f_spa_n,"
             "mean_max_f_spa_n"]
    for name in STUDY_MATERIALS:
        cells = [
            (ratio, simulate_sweep(run.spec_with_spa(run.spa_for_ratio(ratio), builtin_material(name)),
                                   run.sweep_for_material(name)))
            for ratio in map(parse_ratio, ratios)
        ]
        maxima = [max(s.f_spa for s in states) for _, states in cells]
        mean_max = math.fsum(maxima) / len(maxima)
        for (ratio, states), top in zip(cells, maxima):
            head = f"{name},{ratio:.6f},{run.assumed_h_ch:.6f},"
            lines.extend(head + STATE_ROW % s + f",{top:.6f},{mean_max:.6f}" for s in states)
    assert code == 0
    assert out == "\n".join(lines) + "\n"


def fine_config(tmp_path, end, points=20_001):
    # configs/prototype.ini on a grid of points from 0 to end MPa.
    config = tmp_path / "fine.ini"
    config.write_text(
        SHIPPED_PROTOTYPE.read_text(encoding="utf-8")
        .replace("start = 0.01", "start = 0")
        .replace("end = 0.1", f"end = {end!r}")
        .replace("step = 0.01", f"step = {end / (points - 1)!r}"),
        encoding="utf-8",
    )
    assert load_config(config).sweep._count() == points
    return config


def test_simulate_csv_memory_is_bounded(tmp_path):
    # The CSV is written a block of rows at a time from the pass's arrays:
    # neither a Python float per number nor the whole text is held. Holding
    # them peaked at 10.8 MB here; the pass alone peaks near 5.4 MB.
    out = tmp_path / "fine.csv"
    argv = ["simulate", "--config", str(fine_config(tmp_path, 0.4)), "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert out.read_text(encoding="utf-8").count("\n") == 20_002
    assert peak <= 6_000_000


def test_simulate_json_memory_is_bounded(tmp_path):
    # The JSON states are written a block of rows at a time, as the CSV rows
    # are: holding a Python float and a text per number and the whole text
    # peaked at 29.4 MB here; the pass alone peaks near 5.4 MB.
    out = tmp_path / "fine.json"
    argv = ["simulate", "--config", str(fine_config(tmp_path, 0.4)), "--format", "json", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert len(json.loads(out.read_text(encoding="utf-8"))["states"]) == 20_001
    assert peak <= 6_000_000


def writer_peak(pieces) -> int:
    # The tracemalloc peak while a writer's pieces are iterated.
    tracemalloc.start()
    try:
        for _ in pieces:
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def prototype_columns(tmp_path, points):
    # configs/prototype.ini on a grid of points: its name, n, grid and columns.
    config = load_config(fine_config(tmp_path, 0.4, points))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        spec, sweep = config.build_spec(), config.sweep_for_material(config.material.name)
        columns = actuation.simulate_cells([(spec, sweep)])[0]
    return config.material.name, spec.n, sweep, columns


def test_writers_memory_does_not_grow_with_the_grid(tmp_path):
    # Each writer holds one block's buffers and indices, never one per row of
    # the grid: its own peak while its pieces are iterated is the same at
    # 20 001 and 98 902 rows. An index per row read 1.6 -> 3.1 MB (CSV) and
    # 1.0 -> 2.2 MB (JSON) here.
    peaks = {}
    for points in (20_001, 98_902):
        name, n, sweep, columns = prototype_columns(tmp_path, points)
        peaks["csv", points] = writer_peak(cli.csv_text(cli.STATE_COLUMNS, columns, [("", points, "")]))
        peaks["json", points] = writer_peak(_jsontext.simulate_json(cli.STATE_COLUMNS, name, n, sweep, columns))
    # The same over a sweep of 24 cells of 1 000 and of 4 000 rows: each block
    # gathers its own row range of the sweep's columns. Joining every cell's
    # float columns before the first block read 2.6 -> 8.7 MB (JSON) here.
    for points in (1_000, 4_000):
        name, _, _, columns = prototype_columns(tmp_path, points)
        top = float(columns[cli._F_SPA].max())
        rows = [(name, ratio, points, top, top) for ratio in np.linspace(0.125, 1.5, 24).tolist()]
        cells = [(f"{name},{ratio:.6f},5.000000,", points, f",{top:.6f},{top:.6f}") for name, ratio, *_ in rows]
        # The sweep's columns: the 24 cells' rows one after another.
        grid = [np.tile(column, len(rows)) for column in columns]
        peaks["csv", points] = writer_peak(cli.csv_text(cli._CELL_HEAD + cli.STATE_COLUMNS + cli._CELL_TAIL, grid, cells))
        peaks["json", points] = writer_peak(_jsontext.sweep_json(cli._CELL_HEAD + cli._CELL_TAIL, cli.STATE_COLUMNS, rows, grid, 5.0))
    for name in ("csv", "json"):
        for small, large in ((20_001, 98_902), (1_000, 4_000)):
            assert abs(peaks[name, large] - peaks[name, small]) < 100_000, peaks


@pytest.mark.parametrize(
    "fmt, to_file",
    [("csv", True), ("csv", False), ("json", True), ("json", False)],
    ids=["out", "stdout", "json-out", "json-stdout"],
)
def test_simulate_csv_model_error_writes_nothing(fmt, to_file, tmp_path):
    # Every model error is raised by the pass, before the first block is
    # written, in either format: the 20 001-point grid fails at 0.8 MPa.
    out = tmp_path / f"fine.{fmt}"
    argv = ["simulate", "--config", str(fine_config(tmp_path, 0.9)), "--format", fmt]
    argv += ["--out", str(out)] if to_file else []
    code, stdout, err = run_quietly(argv)
    assert code == 3
    assert err.startswith("model error: at pressure 0.")
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_overflowing_mean_of_maxima_exit_3(fmt, tmp_path):
    # Each cell's f_spa maxima is finite, but their sum is beyond the float
    # range, where math.fsum raises OverflowError.
    config = tmp_path / "huge.ini"
    config.write_text(
        SHIPPED_STUDY.read_text(encoding="utf-8")
        .replace("a_ch = 14", "a_ch = 1e306")
        .replace("a_hz = 6", "a_hz = 4.3e306"),
        encoding="utf-8",
    )
    argv = ["sweep", "--config", str(config), "--materials", "dragonskin-30", "--format", fmt]
    assert run_quietly(argv + ["--ratios", "3/2"])[0] == 0
    code, out, err = run_quietly(argv + ["--ratios", "1/2,1,3/2"])
    assert code == 3
    assert err.splitlines() == [
        "model error: material 'dragonskin-30': the mean of its f_spa maxima overflows a float"
    ]
    assert out == ""


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


@pytest.mark.parametrize("cap, code", [(11, 2), (12, 0)], ids=["one-cell-over", "at-the-cap"])
def test_validate_checks_frechet_cells_before_any_dp(cap, code, tmp_path, monkeypatch, capsys):
    # Curves of 3 and 4 points make a DP of 12 cells.
    calls = []
    frechet = validation.discrete_frechet

    def counted(a, b):
        calls.append((len(a), len(b)))
        return frechet(a, b)

    monkeypatch.setattr(validation, "discrete_frechet", counted)
    monkeypatch.setattr(validation, "MAX_FRECHET_CELLS", cap)
    model, reference = tmp_path / "m.csv", tmp_path / "r.csv"
    write_curve(model, [0.0, 1.0, 2.0], [1.0, 2.0, 0.0])
    write_curve(reference, [0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 0.0, 1.0])
    assert main(["validate", str(model), str(reference), "--resample", "--qq", "5"]) == code
    err = capsys.readouterr().err
    if code:
        assert err == "error: curves of 3 and 4 points need 12 Frechet DP cells, more than 11\n"
        assert calls == []
    else:
        assert err == ""
        assert calls == [(3, 4), (3, 4)]


def test_validate_computes_quantiles_only_when_out_writes_them(tmp_path, monkeypatch):
    counts = []
    qq_pairs = validation.qq_pairs

    def spy(a, b, k):
        counts.append(k)
        return qq_pairs(a, b, k)

    monkeypatch.setattr(validation, "qq_pairs", spy)
    model = tmp_path / "m.csv"
    write_curve(model, [0.0, 1.0, 2.0], [1.0, 2.0, 0.0])
    assert main(["validate", str(model), str(model), "--qq", "5", "--format", "csv"]) == 0
    assert counts == []
    assert main(["validate", str(model), str(model), "--qq", "5", "--out", str(tmp_path / "r.json")]) == 0
    assert counts == [5]


def test_design_rule_warnings_print_as_warning_lines():
    # A fresh interpreter, where warnings print instead of being recorded
    # by the test runner. Each distinct text prints once, as one line,
    # before the run's result.
    env = {**os.environ, "PYTHONPATH": str(Path(apmsim.__file__).parents[1])}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "apmsim", *argv], capture_output=True,
                              text=True, env=env, check=False)

    simulate = run("simulate", "--config", str(SHIPPED_PROTOTYPE))
    assert simulate.returncode == 0
    assert simulate.stderr == "warning: actin_arc=32 deviates from the rest semicircle length 31.4159\n"
    sweep = run("sweep", "--config", str(SHIPPED_PROTOTYPE), "--materials", ",".join(STUDY_MATERIALS),
                "--ratios", "1/5,1/4,1/3,1/2,1,3/2")
    *warned, last = sweep.stderr.splitlines()
    assert (sweep.returncode, sweep.stdout) == (3, "")
    assert len(set(warned)) == len(warned) == 7
    assert all(line.startswith("warning: ") for line in warned)
    assert last.startswith("model error: ")


def test_recorded_warnings_are_not_printed(capsys):
    # A caller that records warnings gets them as UserWarnings, none printed,
    # and main hands back the warnings module as it found it.
    formatwarning = warnings.formatwarning
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", str(SHIPPED_PROTOTYPE)]) == 0
    assert [str(w.message) for w in log if issubclass(w.category, UserWarning)] == [
        "actin_arc=32 deviates from the rest semicircle length 31.4159"
    ]
    assert capsys.readouterr().err == ""
    assert warnings.formatwarning is formatwarning


def test_each_main_call_prints_its_own_warnings(tmp_path):
    # Two calls in one interpreter each print the warning; a caller that
    # records warnings then gets one per call, and nothing is printed.
    probe = """if True:
        import sys, warnings
        from apmsim.cli import main
        argv = ["simulate", "--config", sys.argv[1], "--out", sys.argv[2]]
        for _ in range(2):
            assert main(argv) == 0
            print("--", file=sys.stderr)
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            assert main(argv) == main(argv) == 0
        print(*[w.message for w in log], sep="\\n", file=sys.stderr)
        print(*{w.filename.rsplit("/", 1)[-1] for w in log}, file=sys.stderr)
    """
    env = {**os.environ, "PYTHONPATH": str(Path(apmsim.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", probe, str(SHIPPED_PROTOTYPE), str(tmp_path / "o.csv")],
                         capture_output=True, text=True, env=env, check=False)
    text = "actin_arc=32 deviates from the rest semicircle length 31.4159"
    assert run.returncode == 0, run.stderr
    assert run.stdout == ""
    assert run.stderr.splitlines() == [f"warning: {text}", "--"] * 2 + [text] * 2 + ["config.py"]


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
        # The reference's x and y ranges overflow a float.
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


def test_sweep_subnormal_ratio_names_wall_dimensions(capsys):
    argv = ["sweep", "--config", str(SHIPPED_STUDY), "--materials", "ecoflex-00-30",
            "--ratios", "1e-320"]
    assert main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("model error: ")
    assert err[0].endswith("wall stress factor is not finite for t_w=1e-319, h_ch=10.0")


def test_validate_overflowing_reference_range_exit_2(tmp_path, capsys):
    curve = tmp_path / "wide.csv"
    write_curve(curve, [-1e308, 1e308], [1e308, -1e308])
    assert main(["validate", str(curve), str(curve)]) == 2
    err = capsys.readouterr().err
    assert err == "error: reference curve x or y range overflows a float\n"


@pytest.mark.parametrize("model, reference, options, message", [
    # Raw Frechet: the end points lie 2.5e308 apart (R^2 would overflow too).
    ([(0.0, -1e308), (1.0, -1e308)], [(0.0, 0.0), (1.0, 1.5e308)], [],
     "Frechet distance overflows a float"),
    # R^2 alone: the reference's sum of squares, 2 * (5e199)**2, overflows.
    ([(0.0, 0.0), (1.0, 1e200)], [(0.0, 0.0), (1.0, 2e200)], [],
     "sums of squares overflow a float"),
    # R^2: finite sums of squares, but their ratio 1e10 / 5e-301 overflows.
    ([(0.0, 0.0), (1.0, 1e5)], [(0.0, 0.0), (1.0, 1e-150)], [],
     "R^2 overflows a float: the residuals dwarf the reference variance"),
    # Normalized Frechet 1e307 is finite, but not in percent.
    ([(0.0, 0.0), (1.0, 1.0), (2.0, 1e307)], [(0.0, 0.0), (1.0, 1.0)], ["--resample"],
     "Frechet distance overflows a float"),
    # Raw Frechet: the end points lie 2e308 apart.
    ([(-1.5e308, 0.0), (-1e308, 1.0)], [(0.0, 0.0), (1e308, 1.0)], [],
     "Frechet distance overflows a float"),
    # Normalized Frechet: a finite model point rescales to (1.5e308, 1.5e308).
    ([(0.0, 0.0), (1e-10, 1e-10), (1.5e298, 1.5e298)], [(0.0, 0.0), (1e-10, 1e-10)],
     ["--resample"], "Frechet distance overflows a float"),
    # Normalization: a finite model point rescales past the float range.
    ([(0.0, 0.0), (1.5e308, 1.0)], [(-1e308, 0.0), (5e307, 1.0)], [],
     "curve 'model' lies too far outside the reference range to normalise"),
])
def test_validate_overflowing_result_exit_2(model, reference, options, message, tmp_path,
                                            capsys):
    # Finite curves whose metrics overflow used to print inf or nan, exit 0
    # and write Infinity or NaN into the JSON report.
    model_csv, reference_csv, report = tmp_path / "m.csv", tmp_path / "r.csv", tmp_path / "rep.json"
    write_curve(model_csv, *zip(*model))
    write_curve(reference_csv, *zip(*reference))
    argv = ["validate", str(model_csv), str(reference_csv), "--out", str(report), *options]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not report.exists()


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
