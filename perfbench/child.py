"""One benchmark process: set up ceslab, then run whole rounds of commands.

Reads a JSON job from stdin and writes one JSON result to stdout; the
commands' own output is captured in memory.  Run by ``run.py``:

    {"src": ".../src", "ops": [[argv...], ...], "warmup": [argv...],
     "seconds": 4.2, "trace_file": null | path}

After set-up (importing ceslab and one warm-up command) every op runs once
per round, and a new round starts only while one more round as long as the
last still ends within ``seconds``, so every run attempts whole rounds.  The
first round's outputs are returned; later rounds must reproduce them byte
for byte.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def run_op(cli, argv):
    """Run one command in process; returns (seconds, exit code, stdout, error)."""
    buf = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback that escaped the CLI counts as a failure
        code, error = -1, traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - start
    return elapsed, code, buf.getvalue(), error


def blas_threads():
    """Thread counts reported by every OpenBLAS copy loaded in this process."""
    import ctypes

    counts = {}
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[os.path.basename(path)] = int(fn())
                break
    return counts


def main():
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    import ceslab.cli as cli

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(job["src"]) + os.sep):
        raise SystemExit(f"imported ceslab from {cli.__file__}, not from {job['src']}")

    tracer = None
    if job.get("trace_file"):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    _, code, _, error = run_op(cli, job["warmup"])
    if code != 0:
        raise SystemExit(f"warm-up command failed with exit code {code}\n{error or ''}")
    result = {"setup_s": time.perf_counter() - T0}
    if tracer is not None:
        tracer.clear()

    ops = [tuple(argv) for argv in job["ops"]]
    first = []
    op_seconds, round_seconds, failures = [], [], []
    mismatches = 0
    start = time.perf_counter()
    # start a round only while one more (as long as the last) ends in time
    while not round_seconds or time.perf_counter() - start + round_seconds[-1] <= job["seconds"]:
        round_start = time.perf_counter()
        outputs = []
        for k, argv in enumerate(ops):
            elapsed, code, out, error = run_op(cli, argv)
            op_seconds.append(elapsed)
            outputs.append({"code": code, "stdout": out})
            if code != 0:
                failures.append({"round": len(round_seconds), "op": k, "code": code,
                                 "error": error})
        round_seconds.append(time.perf_counter() - round_start)
        if not first:
            first = outputs
        else:
            mismatches += sum(a != b for a, b in zip(first, outputs))

    result.update(
        rounds=len(round_seconds),
        round_seconds=round_seconds,
        op_seconds=op_seconds,
        attempted=len(op_seconds),
        failures=failures,
        mismatches=mismatches,
        outputs=first,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        workers=sys.modules["ceslab.spectra"]._max_workers(),
        blas_threads=blas_threads(),
    )
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, len(round_seconds), result["workers"])
        tracer.save(job["trace_file"])
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
