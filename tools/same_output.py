"""Compare the CLI output of this tree with that of another tree, byte for
byte.

    python tools/same_output.py --base DIR [--seeds 1-20]

DIR is the root of another source tree of apmsim (with src/apmsim under
it), such as a git worktree of the parent commit. Every operation runs
through cli.main of this tree and of DIR's, each tree in its own
interpreter, with the same argv on the same input files:
- perfbench's fine_sweep and design_study inputs at each seed, each in
  CSV and in JSON
- perfbench's validate_long and validate_batch inputs at each seed, with
  the model and reference curves in both orders, each writing its report
  with --out in JSON and in CSV (with the .qq.csv beside it)
- the Frechet DP's worst cases, made once per run from fixed seeds, each a
  validate run with a JSON report, with the curves in both orders: noise
  and zig-zag pairs of 400 and of 1000 points each, noise pairs of 5000 x 3
  and 3 x 5000 points, a smooth and an offset pair of 2000 points each, and
  two pairs whose proof scans again at a lower bound
- simulate and sweep of both shipped configs, in both formats, to stdout
  and to --out
- a corpus of runs that exit 2 (input errors) or 3 (model errors),
  including a sweep whose later cell fails

The exit code, stdout, stderr and the bytes of the --out file and of the
.qq.csv file beside it must be equal. Each operation that differs is printed with what differs, then a
summary line; the exit is 1 on any difference, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
MATERIALS = "ecoflex-00-30,elastosil-m4601,smooth-sil-950,dragonskin-30"
# What each operation's record holds, in order.
FIELDS = ("exit code", "stdout", "stderr", "--out file", ".qq.csv file")

# One operation: a key, the argv of cli.main and the --out file or None.
Op = tuple[str, list[str], str | None]


def _digest(data: str | bytes | None) -> str | None:
    if isinstance(data, str):
        data = data.encode("utf-8", "backslashreplace")
    return None if data is None else hashlib.sha256(data).hexdigest()


def _outputs(out: str | None) -> list[Path]:
    # The files an operation may write: its --out file and the Q-Q table
    # that validate writes beside a CSV report.
    return [Path(out), Path(out).with_suffix(".qq.csv")] if out else []


def run_ops(src: Path, ops: list[Op]) -> dict[str, list]:
    """Each operation's exit code and the SHA-256 of its stdout, stderr,
    --out file and the .qq.csv file beside it (None when there is none),
    run through cli.main of the apmsim under src."""
    sys.path.insert(0, str(src))
    import apmsim.cli

    if Path(apmsim.cli.__file__).resolve().parent != src.resolve() / "apmsim":
        sys.exit(f"same_output: imported apmsim from {apmsim.cli.__file__}, not {src}")
    records = {}
    for key, argv, out in ops:
        for path in _outputs(out):
            path.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = apmsim.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = "raised"
                traceback.print_exc()
        files = [path.read_bytes() if path.is_file() else None for path in _outputs(out)] or [None, None]
        records[key] = [code, *map(_digest, [stdout.getvalue(), stderr.getvalue(), *files])]
        for path in _outputs(out):
            path.unlink(missing_ok=True)
    return records


def _perfbench_ops(seeds: list[int], work: Path) -> list[Op]:
    # perfbench's inputs for the two workloads that write states, and for
    # the two that validate.
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs

    ops: list[Op] = []
    for seed in seeds:
        folder = work / f"seed{seed}"
        folder.mkdir()
        # Each operation, and its twin in the other format.
        for workload, twin in (("fine_sweep", "json"), ("design_study", "csv")):
            for op in inputs.workload_ops(workload, seed, folder):
                ops.append((f"{op.key} seed {seed}", op.argv, str(op.out)))
                out = str(op.out.with_suffix(f".{twin}"))
                argv = [out if arg == str(op.out) else twin if arg in ("csv", "json") else arg for arg in op.argv]
                ops.append((f"{op.key} {twin} seed {seed}", argv, out))
        for workload in ("validate_long", "validate_batch"):
            for op in inputs.workload_ops(workload, seed, folder):
                # The curves, then --qq and the flags; without --out.
                command, model, reference, *flags = op.argv[:op.argv.index("--out")] if op.out else op.argv
                for order, curves in (("", [model, reference]), (" swapped", [reference, model])):
                    for fmt in ("json", "csv"):
                        out = str(folder / f"{op.key.replace('/', '_')}{order.replace(' ', '_')}.{fmt}")
                        argv = [command, *curves, *flags, "--format", fmt, "--out", out]
                        ops.append((f"{op.key}{order} {fmt} seed {seed}", argv, out))
    return ops


def _noise(rng, size: int):
    # Increasing x in (0, 1] under N(0, 1) noise in y.
    x = np.cumsum(rng.uniform(0.5, 1.0, size))
    return x / x[-1], rng.normal(0.0, 1.0, size)


def _zigzag(size: int, phase: int):
    return np.linspace(0.0, 1.0, size), np.where(np.arange(size) % 2 == phase, 1.0, -1.0)


def _rescan(seed: int):
    # A pair whose first bound B is not yet the row and column minima, so
    # the DP's proof scans again at a lower one.
    rng = np.random.default_rng(seed)
    m, n = rng.integers(40, 120, 2)
    xa = np.sort(rng.uniform(-1e6, 3e6, m))
    xb = np.sort(rng.uniform(-1e6, 3e6, n))
    scale = rng.choice([1.0, 1e3, 1e5])
    return (xa, rng.normal(0, scale, m)), (xb, rng.normal(0, scale, n))


def _frechet_ops(work: Path) -> list[Op]:
    # The Frechet DP's worst cases: pairs without a free path at their
    # bound, a free path along every other cell, very unequal shapes, a
    # window of many near ties, and bounds that need a second scan.
    rng = np.random.default_rng(0)
    x, w = np.linspace(0.0, 1.0, 2000), np.linspace(0.0, 2.0 * np.pi, 2000)
    pairs = {
        **{f"noise_{k}": (_noise(rng, k), _noise(rng, k)) for k in (400, 1000)},
        **{f"zigzag_{k}": (_zigzag(k, 0), _zigzag(k, 1)) for k in (400, 1000)},
        "noise_5000x3": (_noise(rng, 5000), _noise(rng, 3)),
        "noise_3x5000": (_noise(rng, 3), _noise(rng, 5000)),
        "smooth_2000": ((x, np.sin(2.0 * np.pi * x)), (1.01 * x, 1.05 * np.sin(2.0 * np.pi * x) + 0.02)),
        "offset_2000": ((w, np.sin(3.0 * w)), (w, np.sin(3.0 * w) + 0.01)),
        "rescan_8": _rescan(8),
        "rescan_0": _rescan(0),
    }
    ops: list[Op] = []
    for name, curves in pairs.items():
        paths = [work / f"{name}_{side}.csv" for side in "ab"]
        for path, (cx, cy) in zip(paths, curves):
            rows = map("%r,%r".__mod__, zip(cx.tolist(), cy.tolist()))
            path.write_text("\n".join(["x,y", *rows, ""]), encoding="utf-8")
        for order, (model, reference) in (("", paths), (" swapped", paths[::-1])):
            out = str(work / f"{name}{order.replace(' ', '_')}.json")
            argv = ["validate", str(model), str(reference), "--resample", "--qq", "9", "--format", "json", "--out", out]
            ops.append((f"validate_frechet/{name}{order} json", argv, out))
    return ops


def _config_ops(work: Path) -> list[Op]:
    # The shipped configs in both formats, and runs that exit 2 or 3.
    prototype = CONFIGS / "prototype.ini"
    text = prototype.read_text(encoding="utf-8")
    edited = {}
    for name, old, new in [
        ("negative_t_w", "t_w = 1.5", "t_w = -1.5"),
        ("nan_end", "end = 0.1", "end = nan"),
        # The prototype fails at 0.8 MPa.
        ("past_0_8_mpa", "end = 0.1", "end = 0.9"),
    ]:
        assert old in text, old
        edited[name] = work / f"{name}.ini"
        edited[name].write_text(text.replace(old, new), encoding="utf-8")
    study = ["sweep", "--config", str(CONFIGS / "wall_ratio_study.ini")]
    runs = {
        "simulate_prototype": ["simulate", "--config", str(prototype)],
        "sweep_study": [*study, "--materials", MATERIALS, "--ratios", "1/5,1/4,1/3,1/2,1,3/2"],
        "simulate_missing_config": ["simulate", "--config", str(work / "missing.ini")],
        **{f"simulate_{name}": ["simulate", "--config", str(path)] for name, path in edited.items()},
        "sweep_unknown_material": [*study, "--materials", "ecoflex-00-30,nope", "--ratios", "1/2"],
        "sweep_negative_ratio": [*study, "--materials", "ecoflex-00-30", "--ratios", "1/2,-1"],
        # The last of nine cells fails, and the last of four.
        "sweep_ninth_cell_fails": [*study, "--materials", "ecoflex-00-30,elastosil-m4601,smooth-sil-950",
                                   "--ratios", "1/2,1,1/10"],
        "sweep_fourth_cell_fails": [*study, "--materials", "ecoflex-00-30,smooth-sil-950", "--ratios", "1/2,1/12"],
        "sweep_prototype_fails": ["sweep", "--config", str(prototype), "--materials", MATERIALS,
                                  "--ratios", "1/5,1/4,1/3,1/2,1,3/2"],
    }
    ops: list[Op] = []
    for name, argv in runs.items():
        for fmt in ("csv", "json"):
            out = work / f"{name}.{fmt}"
            ops.append((f"{name} {fmt} stdout", [*argv, "--format", fmt], None))
            ops.append((f"{name} {fmt} --out", [*argv, "--format", fmt, "--out", str(out)], str(out)))
    return ops


def _seeds(text: str) -> list[int]:
    # "3" or "1-20".
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        # One tree's run: the operations from a file, the records to stdout.
        ops = json.loads(Path(argv[2]).read_text(encoding="utf-8"))
        json.dump(run_ops(Path(argv[1]), ops), sys.stdout)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, type=Path, help="root of the tree to compare with")
    parser.add_argument("--seeds", default="1-20", type=_seeds, help="perfbench seeds: N or FIRST-LAST")
    args = parser.parse_args(argv)
    if not (args.base / "src" / "apmsim" / "cli.py").is_file():
        parser.error(f"no src/apmsim/cli.py under {args.base}")
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        ops = _perfbench_ops(args.seeds, work) + _frechet_ops(work) + _config_ops(work)
        (work / "ops.json").write_text(json.dumps(ops), encoding="utf-8")
        records = []
        for root in (ROOT, args.base):
            command = [sys.executable, __file__, "--worker", str(root / "src"), str(work / "ops.json")]
            run = subprocess.run(command, capture_output=True, text=True, cwd=work)
            if run.returncode:
                sys.exit(f"same_output: the run under {root} failed:\n{run.stderr}")
            records.append(json.loads(run.stdout))
    differ = 0
    for key, _, _ in ops:
        fields = [field for field, a, b in zip(FIELDS, records[0][key], records[1][key]) if a != b]
        if fields:
            differ += 1
            print(f"differs: {key}: {', '.join(fields)}")
    print(f"same_output: {len(ops)} operations, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
