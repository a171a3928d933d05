"""The benchmark's worker process still runs ceslab commands end to end.

``perfbench/child.py`` imports ``ceslab.cli`` from a source tree, runs a job's
commands in whole rounds and reads ``spectra._max_workers()``; a refactor
that breaks any of that fails every benchmark run.  Here it runs one short
job in a fresh interpreter, as the benchmark runner starts it.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SWEEP = ["sweep", "--space=lp:3", "--re-min=1.5", "--re-max=2.0", "--im-min=0.5",
         "--im-max=1.0", "--step=0.5", "--sizes=8,16", "--seed=1"]


def test_child_runs_a_job_in_rounds():
    job = {
        "src": str(ROOT / "src"),
        "ops": [SWEEP, ["norms", "--sizes=8"]],
        "warmup": ["norms", "--sizes=8"],
        "seconds": 0.3,
        "trace_file": None,
    }
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["failures"] == [] and result["mismatches"] == 0
    assert result["rounds"] >= 1 and result["attempted"] == 2 * result["rounds"]
    assert result["workers"] == 1
    sweep_out, norms_out = (out["stdout"] for out in result["outputs"])
    assert sweep_out.startswith("lambda_re,") and len(sweep_out.splitlines()) == 1 + 4 * 2
    assert norms_out
