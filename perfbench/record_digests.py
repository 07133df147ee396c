"""Record the SHA-256 of infer_video's outputs for a range of seeds.

    python3 perfbench/record_digests.py FIRST_SEED LAST_SEED

For each seed, sets the request up, runs it once and stores the digests of
the TCS1 file and of the preview frames in perfbench/digests.json. A run
of perfbench/run.py on a recorded seed fails any request whose outputs
differ from these bytes. Existing entries are kept; to record a seed
again, delete its entry first.
"""

import json
import os
import shutil
import sys

from run import BENCH, BLAS_ENV, SRC, WORK

os.environ.update({var: "1" for var in BLAS_ENV})
sys.path.insert(0, str(SRC))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    table_file = BENCH / "digests.json"
    table = json.loads(table_file.read_text())
    recorded = table.setdefault("infer_video", {})
    wl = WORKLOADS["infer_video"]
    for seed in range(first, last + 1):
        if str(seed) in recorded:
            continue
        work = WORK / f"digests-{seed}"
        try:
            wl.setup(seed, work)
            res = wl.run_item(wl.load(work)[0])
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if res.failures:
            print(f"seed {seed}: {res.failures}", file=sys.stderr)
            return 1
        recorded[str(seed)] = res.digests
        table_file.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"seed {seed}: {res.digests}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
