"""ceslab benchmark: one workload per call, timed end to end or layer by layer.

    python3 perfbench/run.py --workload sweep-grid --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; ceslab is imported from the checkout's
``src``.  The workload's commands (see ``workloads.py``) run in fresh Python
processes through ``ceslab.cli.main``, in whole rounds that end within the
process's share of ``--seconds``.  Every output of the first round is
checked by ``checks.py``; later rounds and other processes must repeat it
byte for byte.

``--trace 0`` shares the time between three measuring processes and prints
the end-to-end metrics, each the median over the processes of a per-process
figure: set-up time, median round wall time, median command time and peak
RSS.  A process that ran slow throughout (a noisy neighbour, an unlucky
memory layout) is outvoted by the others.  ``--trace 1`` splits the time
between an untraced and a traced process and prints the per-layer metrics of
the traced one plus the tracing overhead.  The last line of stdout is the
JSON result.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MEASURE_PROCESSES = 3
DEADLINE_S = 160.0  # the processes must end in time for the checks within 180 s

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def child(job, deadline):
    """Run child.py on ``job``; returns its JSON result or raises RuntimeError."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        cwd=str(ROOT),
        timeout=max(1.0, deadline - time.perf_counter()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout)


def check_outputs(ops, outputs):
    """Run every check on the first round's outputs.

    Ops that exited non-zero are checked too: ``bounds`` and ``verify`` print
    their whole report before they exit 1 on a failed bound or residual.
    """
    import checks

    resolvents = checks.Resolvents()
    problems = []
    for op, out in zip(ops, outputs):
        problems += [f"{' '.join(op.argv)}: {p}" for p in checks.check_op(op, out["stdout"], resolvents)]
    return problems


def median_of_medians(runs, key):
    """Median over processes of each process's median: a process that ran
    slow throughout (a noisy neighbour, an unlucky memory layout) moves it
    less than it moves the median of the pooled samples."""
    return statistics.median(statistics.median(r[key]) for r in runs)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ceslab" / "cli.py").is_file():
        print(f"error: no ceslab sources under {src}", file=sys.stderr)
        return 2

    ops = workloads.build(args.workload, args.seed)
    base = {
        "src": str(src),
        "ops": [list(op.argv) for op in ops],
        "warmup": workloads.WARMUP,
        "trace_file": None,
    }
    OUT.mkdir(exist_ok=True)
    started = time.perf_counter()
    deadline = started + DEADLINE_S
    try:
        if args.trace:
            half = args.seconds / 2.0
            plain = child({**base, "seconds": half}, deadline)
            trace_file = str(OUT / f"trace-{args.workload}.npz")
            traced = child(
                {**base, "seconds": half, "trace_file": trace_file},
                deadline,
            )
            runs = [plain, traced]
        else:
            share = args.seconds / MEASURE_PROCESSES
            runs = [
                child({**base, "seconds": share}, deadline)
                for _ in range(MEASURE_PROCESSES)
            ]
            setups = [r["setup_s"] for r in runs]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    first = runs[0]
    problems = check_outputs(ops, first["outputs"])
    for run in runs:
        if run["mismatches"]:
            problems.append(f"{run['mismatches']} outputs differ from the first round's")
        if run["outputs"] != first["outputs"]:
            problems.append("two benchmark processes printed different outputs")
        for f in run["failures"]:
            print(f"failed: {' '.join(ops[f['op']].argv)} -> exit {f['code']}\n{f['error'] or ''}",
                  file=sys.stderr)

    if args.trace:
        plain_wall = statistics.median(runs[0]["round_seconds"])
        traced_wall = statistics.median(runs[1]["round_seconds"])
        metrics = dict(runs[1]["layers"])
        metrics["trace.overhead_s"] = metric(traced_wall - plain_wall, "s")
        metrics["trace.overhead_pct"] = metric(100.0 * (traced_wall - plain_wall) / plain_wall, "%")
    else:
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "wall_s": metric(median_of_medians(runs, "round_seconds"), "s"),
            "cmd_p50_ms": metric(1000.0 * median_of_medians(runs, "op_seconds"), "ms"),
            "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        }

    failed = sum(len(r["failures"]) for r in runs)
    result = {
        "correct": not problems and not failed,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "round_seconds": [r["round_seconds"] for r in runs],
        "workers": first["workers"],
        "blas_threads": first["blas_threads"],
        "problems": problems,
        "elapsed_s": time.perf_counter() - started,
    }
    suffix = "-trace" if args.trace else ""
    (OUT / f"{args.workload}-seed{args.seed}{suffix}.json").write_text(json.dumps(record, indent=2))
    for p in problems[:20]:
        print(f"check: {p}", file=sys.stderr)
    print(f"sweep pool workers {first['workers']}, OpenBLAS threads {first['blas_threads']}",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
