"""Set-up time of one workload, in the fresh interpreter this script runs in:
import `mordell` and build every GammaSpec the workload uses (building runs
the torsion closure and the independence audit).  A spec the program
rejects, such as the singular curve, still counts its attempt.

    python3 bench/setup_probe.py box-search

prints {"seconds": ...} as its last line.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import specs  # noqa: E402


def main() -> None:
    labels = specs.WORKLOAD_SPECS[sys.argv[1]]
    t0 = time.perf_counter()
    import mordell.cli  # noqa: F401
    from mordell.errors import InputError

    for label in labels:
        try:
            specs.build(label)
        except InputError:
            pass
    print(json.dumps({"seconds": time.perf_counter() - t0}))


if __name__ == "__main__":
    main()
