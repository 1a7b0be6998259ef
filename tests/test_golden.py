"""The benchmark's correctness gate as a test: every gate operation of
perfbench/ runs through the CLI and must pass its output checks and match
the stored expected files under perfbench/golden/ (CSV and text byte for
byte, JSON floats within 1e-9 relative).
"""

import sys
from pathlib import Path

import pytest

from apmsim.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402
import inputs  # noqa: E402


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_gate_operations_match_golden_files(tmp_path, capsys):
    ops = inputs.gate_ops(tmp_path)
    assert ops
    errors = []
    for op in ops:
        rc = main(op.argv)
        stdout = capsys.readouterr().out
        out_text = op.out.read_text(encoding="utf-8") if op.out is not None else None
        errors += checks.check_op(op, rc, stdout, out_text) or checks.check_golden(
            op, stdout, out_text
        )
    assert errors == []
