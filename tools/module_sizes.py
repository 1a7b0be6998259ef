"""Print the size of each apmsim module, and the memory that importing the
CLI takes.

    python tools/module_sizes.py [--root DIR] [--runs N]

DIR is the root of a source tree of apmsim, with src/apmsim under it; the
default is this tree. For each module, one line: its lines, its parser
tokens and the peak memory, under tracemalloc, of compiling its source as
the import system does. Then the max RSS of N fresh interpreters that each
import apmsim.cli under PYTHONDONTWRITEBYTECODE=1, so that every module is
compiled from source.

CPython 3.11's parser doubles its token array past PARSER_STEP tokens, so
a module past it raises the peak memory of its compile, and with it that
of every command run without bytecode caches, by about 0.22 MB.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tokenize
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PARSER_STEP = 4096


def tokens(path: Path) -> int:
    """The tokens of the module at path that reach the parser: all but
    comments, blank lines and the encoding."""
    with path.open("rb") as source:
        skipped = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
        return sum(token.type not in skipped for token in tokenize.tokenize(source.readline))


def compile_peak(path: Path) -> int:
    """The peak bytes, under tracemalloc, of compiling the module at path
    from its bytes, as importlib's source_to_code does."""
    data = path.read_bytes()
    tracemalloc.start()
    try:
        compile(data, str(path), "exec", dont_inherit=True)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def import_rss(src: Path) -> float:
    """The max RSS in MB of a fresh interpreter that imports apmsim.cli from
    src without bytecode caches."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    probe = "import resource, apmsim.cli; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    return int(run.stdout) / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="source tree root (default: this tree)")
    parser.add_argument("--runs", type=int, default=3, help="fresh interpreters for the import's RSS")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    src = args.root / "src"
    print(f"{'module':<16}{'lines':>7}{'tokens':>8}{'compile KB':>12}")
    for path in sorted((src / "apmsim").glob("*.py")):
        lines = len(path.read_bytes().splitlines())
        print(f"{path.name:<16}{lines:>7}{tokens(path):>8}{compile_peak(path) / 1024:>12.0f}")
    rss = sorted(import_rss(src) for _ in range(args.runs))
    print(f"max RSS of {args.runs} x import apmsim.cli: {rss[0]:.2f}-{rss[-1]:.2f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
