"""Committed CLI outputs, compared byte for byte.

The fixtures under ``tests/golden`` are the CSV sweeps of one 5 x 5 lambda
grid (step 0.75, the README rectangle moved by the benchmark's seed-1
offsets) at sizes 32 and 128 in every space, and one ``norms`` table.  A
change that moves a value or a verdict shows as a changed line of a
fixture.  Each sweep fixture was written by

    ceslab sweep --space=SPACE --re-min=-0.4861058966714063 \\
        --re-max=2.5138941033285938 --im-min=-1.404964878631278 \\
        --im-max=1.595035121368722 --step=0.75 --sizes=32,128 --seed=1 \\
        --output=tests/golden/sweep_grid_TAG.csv

with SPACE one of lp:2, lp:3, linf, c0, ces:2 and ces0 and TAG the same
without its colon, and the norms fixture by

    ceslab norms --sizes=16,64,256 --spaces=lp:2,lp:3,linf,ces:2,ces0 \\
        --seed=1 --json > tests/golden/norms.json

These are the bytes of one machine: 2 CPUs, numpy 2.4.6 on OpenBLAS.  The
l^2 values come from BLAS products and LAPACK SVDs, so another BLAS, CPU
or thread count may move their last bits.  ``tests/golden/regenerate.py``
rewrites every fixture and prints what moved.
"""

import contextlib
import io
from pathlib import Path

import pytest

from ceslab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

GRID = (
    "--re-min=-0.4861058966714063",
    "--re-max=2.5138941033285938",
    "--im-min=-1.404964878631278",
    "--im-max=1.595035121368722",
    "--step=0.75",
    "--sizes=32,128",
    "--seed=1",
)

SWEEP_SPACES = ("lp:2", "lp:3", "linf", "c0", "ces:2", "ces0")

NORMS = ("norms", "--sizes=16,64,256", "--spaces=lp:2,lp:3,linf,ces:2,ces0", "--seed=1", "--json")

# fixture name -> the CLI arguments that print it
FIXTURES = {
    f"sweep_grid_{space.replace(':', '')}.csv": ("sweep", f"--space={space}", *GRID, "--output=-")
    for space in SWEEP_SPACES
}
FIXTURES["norms.json"] = NORMS


def run(argv):
    """The exit code and the stdout bytes of ``ceslab ARGV``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue().encode("utf-8")


def check(name):
    code, output = run(FIXTURES[name])
    assert code == 0
    assert output == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("space", SWEEP_SPACES)
def test_sweep_grid_matches_its_fixture(space):
    check(f"sweep_grid_{space.replace(':', '')}.csv")


def test_norms_table_matches_its_fixture():
    check("norms.json")
