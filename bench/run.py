"""Benchmark of scmfpga: train a binary-weight SCM, then run it on the emulator.

Usage (from the repository root):

    python3 bench/run.py --workload db2-desk --seed 1 --seconds 10 --trace 0

One process, closed loop, one caller: each step waits for the previous one.
`--trace 0` measures the end-to-end metrics with tracing off, in reference
seconds (see speed.py). `--trace 1` runs one case untraced and then again
with spans around the package's public functions, and reports the
per-layer metrics.
README.md beside this file describes the workloads and metrics; their names
and units come from BENCHMARK.json at the repository root. Every line but
the last is for people; the last line is one JSON object with the result.
The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import os
import sys

# one BLAS thread (nproc is 2 on the reference host): there is one caller,
# and one thread keeps timings steady on a shared machine. Set before numpy
# is imported, which is when OpenBLAS reads it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not (SRC / "scmfpga" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import scmfpga

    if not Path(scmfpga.__file__).resolve().is_relative_to(SRC):
        print(f"error: scmfpga was imported from {scmfpga.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # evaluation rows outside the training rows' range are clamped on purpose
    warnings.filterwarnings("ignore", message=r"clamped \d+ of \d+ values")

    print("env " + json.dumps(harness.environment(args.seed, ROOT, BLAS_THREADS)))
    tally = harness.Tally()
    if args.trace:
        values = harness.trace_run(wl, args.workload, args.seed, tally)
        wanted = spec["per_layer"]
    else:
        values = harness.measure(wl, args.seed, args.seconds, tally)
        wanted = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in values.items():
        print(f"{name} {value!r} {units.get(name, harness.EXTRA_UNITS.get(name, ''))}")

    correct = tally.failed == 0 and bool(values) and all(m["name"] in values for m in wanted)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
        if m["name"] in values
    }
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
