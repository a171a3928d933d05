"""The benchmark's span tracer still wraps the library and records its layers.

``perfbench/tracer.py`` replaces ceslab's public functions and
``LowerTriangularMatrix.dense`` by name, so renaming one of them breaks
traced benchmark runs.  The tracer patches modules for good, so it runs in
a fresh interpreter here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import contextlib, io, json
import tracer
from ceslab import cli, resolvent_operator

spans = tracer.Tracer()
tracer.install(spans)
# no command forms a dense matrix; the dense() wrapper still has to record one
resolvent_operator(-1 + 0.5j, 16).dense()
commands = [
    ["norms", "--sizes=8,80"],
    ["verify", "--lambda=-1+0.5i", "--n=16"],
    ["bounds", "--kind=gamma_56", "--alpha=0.5", "--t=1.0", "--n=64"],
    ["sweep", "--space=lp:2", "--re-min=1.5", "--re-max=2.0", "--im-min=1.0",
     "--im-max=1.0", "--step=0.5", "--sizes=8,16", "--seed=1"],
    ["sweep", "--space=linf", "--re-min=1.5", "--re-max=2.0", "--im-min=1.0",
     "--im-max=1.0", "--step=0.5", "--sizes=8,16", "--seed=1"],
]
codes = []
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes, "names": sorted({s[1] for s in spans.spans})}))
"""


def test_traced_commands_record_layer_spans():
    paths = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0, 0, 0]
    # the tracer names each spectra.operator_norm_report span by the method
    # of the report it returns
    norm_spans = {f"spectra.norm.{m}" for m in ("rowsum", "lanczos", "ascent")}
    spans = {"cli.main", "triangular.dense", "spectra.sweep_task", *norm_spans}
    assert spans <= set(result["names"])
