"""The JSON output of simulate, sweep and validate against json.dumps as the
oracle.

Every JSON text comes from apmsim._jsontext: its three payload writers,
simulate_json, sweep_json and report_json, lay out objects and arrays
through its one layout, and write the states in numpy blocks in the
places left for them. The text must be exactly
json.dumps(payload, indent=2, sort_keys=True) plus a newline, where payload
is the dict form of the output, built from rows of states: float fields of
any value (signed zero, subnormals, the largest floats, NaN and infinities),
any string, any int and empty lists included. The writers themselves take
each cell's states as columns, one numpy array per ActuationState field.
The state writer's text of every float, computed in numpy, must be
float.__repr__'s.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apmsim import _floattext, _jsontext, cli
from apmsim.actuation import ActuationState, simulate_sweep
from apmsim.config import builtin_material, load_config, parse_ratio
from apmsim.validation import AgreementReport

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308,
               math.nan, math.inf, -math.inf, 0.1, 1e16, 1e-7,
               # The writer's edges: repr's switch to and from an exponent,
               # powers of two, texts of at most 15 digits and one of 17.
               1e-4, 9.999999999999999e-05, 9999999999999998.0, 0.5, 2.0**-20, 2.0**52,
               0.3, 1234.5, 100.0, 0.1 + 0.2]

floats = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True),
    # A float subclass must still be written as a plain float.
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
)
texts = st.one_of(st.sampled_from(["valid", "over-contracted", "ecoflex-00-30"]), st.text())
states = st.lists(
    st.builds(ActuationState, *([floats] * (len(ActuationState._fields) - 1)), texts),
    max_size=4,
)


def oracle(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def state_dicts(state_list):
    return [dict(zip(cli.STATE_COLUMNS, s)) for s in state_list]


def columns_of(state_list):
    # The writers' input, as simulate_cells hands it on: one array per
    # ActuationState field, float64 but for the flag's object array, with a
    # row per state.
    *numbers, flags = list(zip(*state_list)) or [()] * len(ActuationState._fields)
    return [np.array(column, dtype=float) for column in numbers] + [np.array(flags, dtype=object)]


def simulate_payload(material, n, sweep, state_list):
    return {
        "metadata": {
            "material": material,
            "n": n,
            "sweep": {"start": sweep.start, "end": sweep.end, "step": sweep.step},
        },
        "states": state_dicts(state_list),
    }


def sweep_payload(rows, h_ch):
    return {
        "cells": [
            {
                "material": name,
                "tw_hch_ratio": ratio,
                "assumed_h_ch_mm": h_ch,
                "max_f_spa_n": top,
                "mean_max_f_spa_n": mean_max,
                "states": state_dicts(state_list),
            }
            for name, ratio, state_list, top, mean_max in rows
        ]
    }


@settings(max_examples=200, deadline=None)
@given(texts, st.integers(), floats, floats, floats, states)
def test_simulate_json_equals_json_dumps(material, n, start, end, step, state_list):
    # The writer reads only the grid's start, end and step, so any floats
    # stand in for a PressureSweep here.
    sweep = SimpleNamespace(start=start, end=end, step=step)
    expected = oracle(simulate_payload(material, n, sweep, state_list))
    text = "".join(_jsontext.simulate_json(cli.STATE_COLUMNS, material, n, sweep, columns_of(state_list)))
    assert text == expected


def control_state(value: float, flag: str) -> ActuationState:
    return ActuationState(*[value] * (len(ActuationState._fields) - 1), flag)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(texts, floats, states, floats, floats), max_size=4), floats)
# Control characters in the labels and material names: the writer ends each
# cell's last object with a control byte, which their escaped texts never
# hold.
@example(
    [
        ("\0\1mat\x1f", 0.5, [control_state(1.5, "\1"), control_state(-0.0, "\0a\x7f")], 1.0, 2.0),
        ("\1", 1.0, [control_state(0.1, "a\1b\x02\n")], 3.0, 4.0),
        ("\x02\0", 2.0, [], 5.0, 6.0),
        ("\t\r", 1.5, [control_state(1e-7, "\1\1")], 7.0, 8.0),
    ],
    0.25,
)
def test_sweep_json_equals_json_dumps(rows, h_ch):
    # The writer takes every cell's states as rows of one set of columns.
    column_rows = [(name, ratio, len(state_list), top, mean_max)
                   for name, ratio, state_list, top, mean_max in rows]
    columns = columns_of([state for row in rows for state in row[2]])
    pieces = _jsontext.sweep_json(cli._CELL_HEAD + cli._CELL_TAIL, cli.STATE_COLUMNS, column_rows, columns, h_ch)
    assert "".join(pieces) == oracle(sweep_payload(rows, h_ch))


def float_texts(values) -> list[str]:
    # The state writer's text of each float: the bytes of its slot that are
    # not NUL.
    x = np.array(values, dtype=float)
    slots = _floattext._float_slots(x).view(np.uint8).reshape(len(x), -1)
    return [slot[slot.astype(bool)].tobytes().decode("ascii") for slot in slots]


raw_floats = st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64)))


@settings(max_examples=300, deadline=None)
# The floats that take float.__repr__: zero, the non-finite, those repr
# writes with an exponent, and those whose chosen digits are an exact half
# (of 16 digits twice, of 17 digits twice; 1234.5, exact in few digits, is
# not).
@example([0.0, -0.0])
@example([math.nan, -math.nan, math.inf, -math.inf])
@example([9.999999999999999e-05, -1e16, 5e-324, 2.2250738585072014e-308, 1e22])
@example([779630182280701.8, 722039075.2148438, 0.0038080215454101562, 1e15 + 0.25, 1234.5])
# Powers of two, whose gap below is half the gap above, and the floats
# beside an odd integer above 2**53, the only point half way between two
# floats of this range that has at most 16 digits: the kernel decides them.
@example([0.5, -1.0, 2.0**-13, 8.0, 2.0**52, 2.0**53])
@example([9007199254740994.0, 9007199254740996.0, 9999999999999998.0])
# Just below a power of ten, where np.log10 rounds up to it, and at it.
@example([0.09999999999999999, 0.1, 999.9999999999999, 1000.0, 1e-4, 0.3, 0.1 + 0.2])
@given(st.lists(st.one_of(st.floats(), raw_floats), min_size=1, max_size=50))
def test_float_texts_are_float_repr(values):
    # Every float's text is json.dumps's, float.__repr__ with NaN and the
    # infinities spelled as json spells them, whether the kernel decides it
    # or hands it to float.__repr__.
    assert float_texts(values) == [json.dumps(value) for value in values]


def validate_json(report: AgreementReport) -> str:
    # The JSON report validate writes when compare_curves returns report.
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "compare_curves", lambda *args, **kwargs: report)
        curve, out = Path(tmp, "c.csv"), Path(tmp, "report.json")
        curve.write_text("x,y\n0,0\n1,1\n", encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["validate", str(curve), str(curve), "--out", str(out)]) == 0
        return out.read_text(encoding="utf-8")


@settings(max_examples=100, deadline=None)
@given(
    floats.filter(lambda value: not value < 0.0),
    floats,
    floats,
    st.booleans(),
    st.one_of(st.none(), st.lists(st.tuples(floats, floats), min_size=2, max_size=4)),
)
@example(0.125, 0.5, 0.75, True, [(0.0, 0.0), (1.0, 1.5)])
def test_validate_json_equals_json_dumps(normalized, raw, r2, resampled, pairs):
    report = AgreementReport(normalized, raw, r2, pairs, resampled)
    with np.errstate(over="ignore"):  # the percentage of a float64 near the largest
        payload = {**report.numbers(), "resampled": resampled}
    if pairs is not None:
        payload["qq_pairs"] = [list(pair) for pair in pairs]
    assert validate_json(report) == oracle(payload)


def run_cli(argv) -> str:
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("ignore", UserWarning)  # the prototype's as-built actin arc
        assert cli.main(argv) == 0
    return out.getvalue()


def test_simulate_json_bytes_equal_json_dumps():
    path = CONFIGS / "prototype.ini"
    got = run_cli(["simulate", "--config", str(path), "--format", "json"])

    run = load_config(path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        spec = run.build_spec()
    sweep = run.sweep_for_material(run.material.name)
    payload = simulate_payload(run.material.name, spec.n, sweep, simulate_sweep(spec, sweep))
    assert got == oracle(payload)


@pytest.mark.parametrize(
    "config, materials, ratios",
    [
        ("prototype.ini", "dragonskin-30,smooth-sil-950,elastosil-m4601", "1/5,1/3,1/2"),
        ("wall_ratio_study.ini", "ecoflex-00-30,elastosil-m4601,smooth-sil-950,dragonskin-30",
         "1/8,1/5,1/3,1/2,1,3/2"),
    ],
)
def test_sweep_json_bytes_equal_json_dumps(config, materials, ratios):
    path = CONFIGS / config
    got = run_cli(["sweep", "--config", str(path), "--materials", materials,
                   "--ratios", ratios, "--format", "json"])

    # The payload as a dict of rows: one cell per (material, ratio), each
    # with the states of its own simulate_sweep, its largest f_spa and its
    # material's mean of those maxima.
    run = load_config(path)
    names = materials.split(",")
    ratio_values = [parse_ratio(r) for r in ratios.split(",")]
    rows = []
    for name in names:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cell_states = [
                (ratio, simulate_sweep(run.spec_with_spa(run.spa_for_ratio(ratio), builtin_material(name)),
                                       run.sweep_for_material(name)))
                for ratio in ratio_values
            ]
        maxima = [max(s.f_spa for s in state_list) for _, state_list in cell_states]
        mean_max = math.fsum(maxima) / len(maxima)
        rows.extend((name, ratio, state_list, top, mean_max)
                    for (ratio, state_list), top in zip(cell_states, maxima))
    assert got == oracle(sweep_payload(rows, run.assumed_h_ch))
