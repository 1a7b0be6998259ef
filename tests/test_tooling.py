"""The repository's own checks: the two-tree output comparison of
tools/same_output.py, the size of each apmsim module for the parser, as
tools/module_sizes.py counts it, and the files and test names that the CI
workflow's steps name.
"""

import importlib.util
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SAME_OUTPUT = ROOT / "tools" / "same_output.py"
MODULE_SIZES = ROOT / "tools" / "module_sizes.py"
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
MODULES = sorted((ROOT / "src" / "apmsim").glob("*.py"))

_spec = importlib.util.spec_from_file_location("module_sizes", MODULE_SIZES)
module_sizes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(module_sizes)


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


def test_same_output_names_each_json_operation_that_differs(tmp_path):
    # A tree whose JSON arrays indent their items by one more space: every
    # JSON text written with an array differs in its bytes, and nothing else
    # does. Those are simulate's and sweep's states and cells, and validate's
    # Q-Q pairs, which every validate run here writes with --qq 9.
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    module = tmp_path / "src" / "apmsim" / "_jsontext.py"
    source = module.read_text(encoding="utf-8")
    line = 'pad = " " * (indent + 2)'
    assert source.count(line) == 1
    module.write_text(source.replace(line, 'pad = " " * (indent + 3)'), encoding="utf-8")
    run = same_output(tmp_path)
    assert run.returncode == 1, run.stdout + run.stderr
    differ = run.stdout.splitlines()[:-1]
    for line in [
        "differs: fine_sweep/0 json seed 3: --out file",
        "differs: design_study/0 seed 3: --out file",
        "differs: validate_long/0 json seed 3: --out file",
        "differs: validate_batch/47 swapped json seed 3: --out file",
        "differs: validate_frechet/rescan_8 swapped json: --out file",
        "differs: simulate_prototype json stdout: stdout",
        "differs: sweep_study json --out: --out file",
    ]:
        assert line in differ, differ
    for line in differ:
        key, fields = line.removeprefix("differs: ").rsplit(": ", 1)
        assert " json" in key or key.startswith("design_study/"), line
        assert fields in ("stdout", "--out file"), line


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.name)
def test_each_module_stays_under_the_parser_step(module):
    count, step = module_sizes.tokens(module), module_sizes.PARSER_STEP
    assert count < step, (
        f"{module.name} has {count} tokens, the parser's step is {step}: move code out of "
        "the module rather than cross it, which raises every command's peak memory"
    )


def test_module_sizes_lists_every_module():
    run = subprocess.run(
        [sys.executable, str(MODULE_SIZES), "--runs", "1"], capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stdout + run.stderr
    header, *rows, rss = run.stdout.splitlines()
    assert header.split() == ["module", "lines", "tokens", "compile", "KB"]
    assert [row.split()[0] for row in rows] == [path.name for path in MODULES]
    for row, path in zip(rows, MODULES):
        lines, tokens, peak = map(int, row.split()[1:])
        assert (lines, tokens) == (len(path.read_bytes().splitlines()), module_sizes.tokens(path))
        assert peak > 0
    assert re.fullmatch(r"max RSS of 1 x import apmsim\.cli: \d+\.\d\d-\d+\.\d\d MB", rss), rss


def workflow_commands() -> list[str]:
    """The shell command of each step of the workflow that runs one, read as
    text: a "run:" value on its line, or the lines of its "|" block."""
    commands, block = [], None
    for line in WORKFLOW.read_text(encoding="utf-8").splitlines():
        indent = len(line) - len(line.lstrip())
        if block is not None:
            if line.strip() and indent <= block[0]:
                commands.append("\n".join(block[1]))
                block = None
            else:
                block[1].append(line.strip())
                continue
        key, _, value = line.strip().removeprefix("- ").partition(":")
        if key == "run":
            if value.strip() == "|":
                block = (indent, [])
            else:
                commands.append(value.strip())
    if block is not None:
        commands.append("\n".join(block[1]))
    return commands


def test_workflow_names_only_files_that_exist():
    # A file argument is a word with a "/" or a ".py" that is no option,
    # assignment or shell variable.
    commands = workflow_commands()
    named = {
        word
        for command in commands
        for word in shlex.split(command)
        if ("/" in word or word.endswith(".py")) and not word.startswith("-") and not {"$", "="} & set(word)
    }
    assert {"tools/same_output.py", "perfbench/run.py", "tests/test_properties.py"} <= named, commands
    assert [name for name in sorted(named) if not (ROOT / name).exists()] == []


def test_workflow_test_selections_match_tests():
    # Each term of a pytest -k expression picks some test of the files that
    # the step lists; pytest matches a term case-insensitively as part of a
    # name. A renamed test would otherwise only show up in CI.
    steps = 0
    for command in workflow_commands():
        words = shlex.split(command)
        if "pytest" not in words or "-k" not in words:
            continue
        steps += 1
        files = [ROOT / word for word in words if word.startswith("tests/")]
        assert files, command
        names = [name.lower() for path in files for name in re.findall(r"def (test_\w+)", path.read_text(encoding="utf-8"))]
        expression = words[words.index("-k") + 1]
        terms = [term for term in re.split(r"\b(?:and|or|not)\b|[()\s]+", expression) if term]
        assert terms, command
        for term in terms:
            assert any(term.lower() in name for name in names), f"-k term {term!r} picks no test: {command}"
    assert steps >= 4
