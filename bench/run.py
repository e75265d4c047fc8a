"""signpipe benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload translate --seed 1 --seconds 10 --trace 0

Run from the root of a signpipe checkout; the package is imported from
`src/`. Set-up builds all inputs from --seed and trains the models the
workload needs, then operations run in whole rounds for --seconds and every
output is checked. The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics of a traced
run (--trace 1). Progress and any check failure go to standard error.
"""
from __future__ import annotations

import os

# One BLAS thread: numpy matmuls in the CNN would otherwise race the
# interpreter for the machine's few cores and add run-to-run noise. This has
# to happen before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("translate", "live", "train"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "signpipe" / "__init__.py").is_file():
        print(f"error: no signpipe sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads  # needs signpipe on the path

    OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT))
    tracer = None
    try:
        if args.trace:
            from tracing import Tracer
            tracer = Tracer().install()
        try:
            run = workloads.WORKLOADS[args.workload](work, args.seed, args.seconds, tracer)
        except workloads.SetupError as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 1
    finally:
        if tracer is not None:
            tracer.close()
        shutil.rmtree(work, ignore_errors=True)

    for err in (run.failures + run.errors)[:20]:
        print(err, file=sys.stderr)
    e2e = run.end_to_end()
    print(f"{args.workload}: seed {args.seed}, BLAS threads {BLAS_THREADS}, "
          f"{run.attempted} operations, {run.chars} characters, "
          f"{len(run.primary_s)} primary and {len(run.secondary_s)} secondary timings",
          file=sys.stderr)
    if tracer is None:
        metrics = {k: {"value": v, "unit": workloads.E2E_UNITS[k]} for k, v in e2e.items()}
    else:
        from tracing import PER_LAYER_UNITS
        print("traced end-to-end (includes tracing overhead): "
              + json.dumps({k: round(v, 4) for k, v in e2e.items()}), file=sys.stderr)
        layer = tracer.metrics(ops=run.attempted, chars=run.chars)
        metrics = {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
