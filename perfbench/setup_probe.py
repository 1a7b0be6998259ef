"""Set-up probe, run in a fresh interpreter by run.py: import apmsim.cli and
load one workload input, as a user's first command would.

    python3 setup_probe.py design CONFIG        # config -> MyofibrilSpec
    python3 setup_probe.py study CONFIG RATIO   # study config at one wall ratio
    python3 setup_probe.py curve CSV            # curve CSV -> Curve
"""

import sys
import warnings

import apmsim.cli  # noqa: F401  (the import is what is timed)
from apmsim.config import load_config, parse_ratio
from apmsim.validation import Curve


def main(argv: list[str]) -> int:
    kind, path = argv[0], argv[1]
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        if kind == "design":
            load_config(path).build_spec()
        elif kind == "study":
            config = load_config(path)
            config.spec_with_spa(config.spa_for_ratio(parse_ratio(argv[2])))
        elif kind == "curve":
            Curve.from_csv(path)
        else:
            print(f"unknown input kind {kind!r}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
