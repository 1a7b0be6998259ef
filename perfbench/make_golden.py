"""Write the gate's expected outputs into golden/ from the current program.

    python3 perfbench/make_golden.py

Run it only when an output change is intended, and say so in the change
that commits the new files: the golden files are the correctness gate.
"""

import contextlib
import io
import shutil
import sys
import warnings

import checks
import inputs
from run import SCRATCH, import_program


def main() -> int:
    cli = import_program()
    workdir = SCRATCH / "golden"
    workdir.mkdir(parents=True)
    checks.GOLDEN_DIR.mkdir(exist_ok=True)
    try:
        for op in inputs.gate_ops(workdir):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rc = cli.main(op.argv)
            out_text = op.out.read_text(encoding="utf-8") if op.out is not None else None
            errors = checks.check_op(op, rc, buf.getvalue(), out_text)
            if errors:
                print("\n".join(errors), file=sys.stderr)
                return 1
            out_path, stdout_path = checks.golden_paths(op)
            if out_text is not None:
                out_path.write_text(out_text, encoding="utf-8")
            if buf.getvalue():
                stdout_path.write_text(buf.getvalue(), encoding="utf-8")
            print(f"wrote {op.key}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
