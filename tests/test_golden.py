"""The benchmark's correctness gate as a test: every gate operation of
perfbench/ runs through the CLI and must pass its output checks and match
the stored expected files under perfbench/golden/ (CSV and text byte for
byte, JSON floats within 1e-9 relative).
"""

import sys
from pathlib import Path

import pytest

from apmsim.cli import main
from apmsim.config import load_config

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


def test_shipped_and_benchmark_configs_load(tmp_path):
    # Every config the benchmark runs goes through the grammar here first, so
    # a grammar change that would fail benchmark operations fails this test.
    paths = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.ini"))
    ops = inputs.gate_ops(tmp_path)
    for workload in ("fine_sweep", "design_study"):
        for seed in (1, 2, 3):
            workdir = tmp_path / f"{workload}-{seed}"
            workdir.mkdir()
            ops += inputs.workload_ops(workload, seed, workdir)
    paths += sorted({op.argv[op.argv.index("--config") + 1] for op in ops if "--config" in op.argv})
    assert len(paths) == 2 + 2 + 3 * (inputs.FINE_POOL + 1)
    for path in paths:
        load_config(path)
