"""camsig benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; camsig is imported from `src/`.
The run sets up the workload's inputs several times, each in a fresh
process, then runs items back to back (one process, one client) for
about S seconds and checks every item's outputs.

--trace 0 reports the end-to-end metrics with no instrumentation.
--trace 1 reports the per-layer metrics. It alternates a traced and an
untraced item on the same input, so the tracing overhead is measured in
the same process, and renders the preview once more at threads=1.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics` (each metric with its value and unit).
The full record (environment, input sizes, per-item samples, failures)
goes to perfbench/_work/result-<workload>-<seed>-trace<k>.json, and the
spans of a traced run to perfbench/_work/spans-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60
# numpy's BLAS runs single-threaded, so no run uses more threads than the
# preview's two and timings do not depend on BLAS thread scheduling.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NOTE = (
    "CPU frequency, co-tenant load and the page cache cannot be controlled "
    "on this host; figures are medians or means over the items of one run."
)

# Per-layer second totals of one traced item, by the span key they come from.
LAYER_SECONDS = {
    "rigidfit.fit_s": "rigidfit.fit",
    "segmentation.extract_s": "segmentation.extract",
    "segmentation.self_s": "segmentation.self",
    "trajfield.residual_s": "trajfield.residual",
    "signal.transport_s": "signal.transport",
    "signal.strength_s": "signal.strength",
    "signal.pack_s": "signal.pack",
    "preview.render_s": "preview.render",
    "preview.splat_busy_s": "preview.render.children",
    "io.read_s": "io.read",
    "io.write_s": "io.write",
    "io.assemble_s": "io.assemble",
}


def parse_args(argv, declared):
    parser = argparse.ArgumentParser(description="camsig benchmark")
    names = [w["name"] for w in declared["workloads"]]
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_setups(args, workdir: Path) -> list:
    """Set the inputs up SETUP_REPEATS times, each in a fresh process."""
    cmd = [
        sys.executable, str(BENCH / "setup_inputs.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--out", str(workdir),
    ]
    runs = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return runs


def environment(wl) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # a source export without git metadata
    source = hashlib.sha256()
    for path in sorted((SRC / "camsig").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "platform": platform.platform(),
        "input": wl.input_size(),
        "note": NOTE,
    }


def load_digests(workload, seed):
    table = json.loads((BENCH / "digests.json").read_text())
    return table.get(workload, {}).get(str(seed))


class Checker:
    """Failures of the run as a whole, beyond the per-item oracle."""

    def __init__(self, reference):
        self.reference = reference  # recorded digests for this seed, or None
        self.first_digests = {}
        self.first_counts = {}
        self.failures = []

    def digests(self, key, res):
        """Outputs must equal the recorded digest, and repeat within the run."""
        if not res.digests:
            return
        expect = self.reference or self.first_digests.setdefault(key, res.digests)
        for name, value in res.digests.items():
            if value != expect[name]:
                res.failures.append(f"{name} SHA-256 {value[:12]} differs from {expect[name][:12]}")

    def counts(self, key, counts):
        """Counts must repeat exactly each time the same input runs again."""
        first = self.first_counts.setdefault(key, counts)
        for name in counts:
            if counts[name] != first.get(name):
                self.failures.append(
                    f"count {name} of input {key} differs between runs: "
                    f"{first.get(name)} then {counts[name]}"
                )


def run_one(wl, item, **hooks):
    """Run one item; an exception fails the item instead of ending the run."""
    from workloads import ItemResult

    start = time.perf_counter()
    try:
        return wl.run_item(item, **hooks)
    except Exception as exc:  # reported as a failed item, with its traceback
        traceback.print_exc()
        return ItemResult(time.perf_counter() - start, frames=0, failures=[f"raised {exc!r}"])


def end_to_end(args, wl, items, checker, setups):
    results = []
    start = time.perf_counter()
    while True:
        key = len(results) % len(items)
        res = run_one(wl, items[key])
        checker.digests(key, res)
        checker.counts(key, res.counts)
        results.append(res)
        elapsed = time.perf_counter() - start
        p50 = statistics.median(r.seconds for r in results)
        if len(results) >= wl.min_items and elapsed + p50 > args.seconds:
            break
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "item_s_p50": statistics.median(r.seconds for r in results),
        "frames_per_s": sum(r.frames for r in results) / sum(r.seconds for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": sum(not r.failures for r in results) / len(results),
    }
    return results, metrics


def traced(args, wl, items, checker, setups, spans_file):
    from tracer import Tracer

    tracer = Tracer()
    traced_results, plain_results = [], []
    start = time.perf_counter()
    slot = 0
    while True:
        key = slot % len(items)
        tracer.item = slot
        extra = {}
        if slot == 0 and args.workload == "infer_video":
            extra["render_1t"] = lambda fn, *a, **kw: tracer.call("preview.render_1t", fn, *a, **kw)
        with tracer.installed():
            res = run_one(wl, items[key], call=tracer.call, **extra)
        res.counts.update(tracer.take_counts())
        res.layers = tracer.layer_seconds(slot)
        checker.digests(key, res)
        checker.counts(key, res.counts)
        traced_results.append(res)

        plain = run_one(wl, items[key])  # same input, no instrumentation
        checker.digests(key, plain)
        checker.counts(key, plain.counts)
        plain_results.append(plain)
        slot += 1

        elapsed = time.perf_counter() - start
        pair = statistics.median(r.seconds for r in traced_results) + statistics.median(
            r.seconds for r in plain_results
        )
        if slot >= wl.traced_items and elapsed + pair > args.seconds:
            break
    tracer.write(spans_file)

    counted = traced_results[: wl.traced_items]  # fixed by the seed

    def count(name):
        return sum(r.counts.get(name, 0) for r in counted)

    metrics = {
        name: statistics.median(r.layers[key] for r in traced_results)
        for name, key in LAYER_SECONDS.items()
    }
    fits = count("rigidfit.fits")
    metrics.update({
        "rigidfit.fits": fits,
        "rigidfit.iterations": count("rigidfit.iterations"),
        "rigidfit.converged_ratio": count("rigidfit.converged") / fits if fits else 0.0,
        "segmentation.iterations": count("segmentation.iterations"),
        "preview.splats": count("preview.splats"),
        "preview.render_1t_s": float(traced_results[0].layers["preview.render_1t"]),
        "io.bytes_read": count("io.bytes_read"),
        "io.bytes_written": count("io.bytes_written"),
        "signal.alloc_peak_mb": max(
            tracer.alloc_peak.get("signal.transport", 0), tracer.alloc_peak.get("signal.pack", 0)
        ) / 2**20,
        "io.write_alloc_peak_mb": tracer.alloc_peak.get("io.write", 0) / 2**20,
        "synth.generate_s": statistics.median(s["synth.generate_s"] for s in setups),
        "trace.overhead_s": statistics.median(r.seconds for r in traced_results)
        - statistics.median(r.seconds for r in plain_results),
    })
    quality = [r.quality for r in counted if r.quality]
    for name in ("static_f1_mean", "rot_err_mean", "trans_err_mean"):
        metrics[name] = statistics.fmean(q[name] for q in quality) if quality else 0.0
    return traced_results + plain_results, metrics


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())  # workloads and metrics
    args = parse_args(argv, declared)
    if not (SRC / "camsig" / "__init__.py").is_file():
        print(f"error: no camsig sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({var: "1" for var in BLAS_ENV})
    sys.path.insert(0, str(SRC))
    import camsig

    if Path(camsig.__file__).resolve().parent != (SRC / "camsig").resolve():
        print(f"error: camsig imported from {camsig.__file__}, not {SRC}", file=sys.stderr)
        return 2
    logging.basicConfig(level=logging.ERROR)  # as `camsig --quiet`
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{args.seed}"
    checker = Checker(load_digests(args.workload, args.seed))
    try:
        setups = run_setups(args, workdir)
        items = wl.load(workdir)
        if args.trace:
            spans_file = WORK / f"spans-{args.workload}-{args.seed}.json"
            results, metrics = traced(args, wl, items, checker, setups, spans_file)
        else:
            results, metrics = end_to_end(args, wl, items, checker, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)  # inputs and outputs: up to 0.5 GB

    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} not as declared")
    failed = sum(bool(r.failures) for r in results)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(wl),
        "digest_reference": "recorded" if checker.reference else "first item of this run",
        "setups": setups,
        "items": [
            {"seconds": r.seconds, "frames": r.frames, "failures": r.failures,
             "quality": r.quality, "counts": r.counts, "digests": r.digests}
            for r in results
        ],
        "run_failures": checker.failures,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    for r in results:
        for failure in r.failures:
            print(f"item failed: {failure}", file=sys.stderr)
    for failure in checker.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not checker.failures,
        "attempted": len(results),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
