"""The repository's own checks: the two-tree output comparison of
tools/same_output.py, and the size of each apmsim module for the parser.
"""

import shutil
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SAME_OUTPUT = ROOT / "tools" / "same_output.py"
# CPython 3.11's parser doubles its token array past this many tokens, so a
# module past it raises the peak memory of its compile, and with it that of
# every command run without bytecode caches, by about 0.22 MB.
PARSER_STEP = 4096


def same_output(base: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SAME_OUTPUT), "--base", str(base), "--seeds", "3"],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_same_output_finds_no_difference_against_its_own_tree():
    run = same_output(ROOT)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.endswith(" operations, 0 differ\n"), run.stdout


def test_same_output_names_each_operation_that_differs(tmp_path):
    # A tree whose CSV writer ends each number with ";" instead of ",": every
    # CSV that is written differs in its bytes, and nothing else does.
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    module = tmp_path / "src" / "apmsim" / "_csvtext.py"
    source = module.read_text(encoding="utf-8")
    assert source.count('ord(",")') == 1
    module.write_text(source.replace('ord(",")', 'ord(";")'), encoding="utf-8")
    run = same_output(tmp_path)
    assert run.returncode == 1, run.stdout + run.stderr
    differ = run.stdout.splitlines()[:-1]
    assert "differs: fine_sweep/0 seed 3: --out file" in differ
    assert "differs: sweep_study csv stdout: stdout" in differ
    assert not any("json" in line or "exit code" in line or "stderr" in line for line in differ)


def test_same_output_names_each_validate_operation_that_differs(tmp_path):
    # A tree whose validate prints R^2 to five decimals: every validate run
    # differs in its stdout, and no other operation differs.
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    module = tmp_path / "src" / "apmsim" / "cli.py"
    source = module.read_text(encoding="utf-8")
    line = 'print(f"{name}={value:.6f}")'
    assert source.count(line) == 1
    broken = 'print(f"{name}={value:.5f}" if name == "r_squared" else f"{name}={value:.6f}")'
    module.write_text(source.replace(line, broken), encoding="utf-8")
    run = same_output(tmp_path)
    assert run.returncode == 1, run.stdout + run.stderr
    differ = run.stdout.splitlines()[:-1]
    assert "differs: validate_long/0 json seed 3: stdout" in differ
    assert "differs: validate_batch/47 swapped csv seed 3: stdout" in differ
    assert all(line.startswith("differs: validate_") and line.endswith(": stdout") for line in differ), differ


@pytest.mark.parametrize("module", sorted((ROOT / "src" / "apmsim").glob("*.py")), ids=lambda path: path.name)
def test_each_module_stays_under_the_parser_step(module):
    with module.open("rb") as source:
        skipped = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
        count = sum(token.type not in skipped for token in tokenize.tokenize(source.readline))
    assert count < PARSER_STEP, (
        f"{module.name} has {count} tokens, the parser's step is {PARSER_STEP}: move code out of "
        "the module rather than cross it, which raises every command's peak memory"
    )
