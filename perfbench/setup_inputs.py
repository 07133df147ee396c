"""One timed set-up of a workload's inputs, in a fresh process.

    python3 perfbench/setup_inputs.py --workload NAME --seed N --out DIR

Imports camsig, generates the workload's scenes or request from the seed
and writes them to DIR. Prints one JSON object: `setup_s`, the seconds
from the first import to the last file written, and `synth.generate_s`,
the part spent in `camsig.synth.generate_scene`.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    info = WORKLOADS[args.workload].setup(args.seed, Path(args.out))
    print(json.dumps({"setup_s": time.perf_counter() - START, **info}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
