"""Benchmark of the stablespline Monte Carlo harness, SS-ML identification
and the Gibbs sweep.

    python3 perfbench/run.py --workload mc-wn-n200 --seed 0 --seconds 20 --trace 0

Runs one workload for ``--seconds`` seconds, in whole rounds, from the
checkout this file sits in, and prints one JSON object as its last line:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the first half of the
time runs untraced and the second half traced, and the metrics are the
per-layer ones plus the traced operation time and its overhead.  Outputs,
the environment record and the spans go to ``.perfbench_out/``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# set-ups per run: this process's own plus fresh processes, median reported
SETUP_REPEATS = 2


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR",
                   help="set up into DIR, print the set-up time and exit")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def repeat_setups(args, outdir: Path) -> list[float]:
    """Set-up time of the same workload and seed in fresh processes."""
    times = []
    for k in range(SETUP_REPEATS):
        target = outdir / f"setup{k}"
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--setup-only", str(target)],
            capture_output=True, text=True, timeout=150, cwd=ROOT,
        )
        shutil.rmtree(target, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process exited {proc.returncode}: {proc.stderr[-2000:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    if not (SRC / "stablespline" / "__init__.py").is_file():
        print(f"error: no stablespline sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import envinfo
    import layers
    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))

    outdir = fresh_dir(
        Path(args.setup_only) if args.setup_only
        else OUT / args.workload / f"seed{args.seed}-trace{args.trace}"
    )
    plan = workloads.WORKLOADS[args.workload](args.seed, outdir)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    untraced, traced = [], []
    tracer = None
    start = time.perf_counter()
    while True:
        (untraced if tracer is None else traced).extend(plan.round(tracer))
        elapsed = time.perf_counter() - start
        if args.trace and tracer is None:
            if elapsed >= args.seconds / 2:
                tracer = layers.install()
            continue
        if elapsed >= args.seconds:
            break
    if tracer is not None:
        tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ops = untraced + traced
    errors = plan.finish(ops)
    op_s = statistics.median(o.seconds for o in untraced if o.completed)
    setups = [setup_s]
    if args.trace:
        traced_op_s = statistics.median(o.seconds for o in traced if o.completed)
        values = layers.layer_metrics(tracer.spans)
        metrics = {name: metric(values[name], unit) for name, unit in layers.metric_units().items()}
        metrics["trace.op_s"] = metric(traced_op_s, "s")
        metrics["trace.overhead_s"] = metric(traced_op_s - op_s, "s")
        tracer.dump(outdir / "spans.jsonl")
    else:
        fit, fit_ssml = plan.fits()
        setups += repeat_setups(args, outdir)
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "op_s": metric(op_s, "s"),
            "fit_median": metric(fit, "%"),
            "fit_ssml_median": metric(fit_ssml, "%"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }

    env = envinfo.environment(ROOT)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": plan.describe(), "environment": env,
        "setup_s": setups, "errors": errors,
        "failures": sorted({o.error for o in ops if o.failed and o.error}),
        "op_seconds": [o.seconds for o in untraced],
        "traced_op_seconds": [o.seconds for o in traced],
    }
    (outdir / "run.json").write_text(json.dumps(record, indent=2) + "\n")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": len(ops),
        "failed": sum(o.failed for o in ops),
        "metrics": metrics,
    }
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
