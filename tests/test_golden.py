"""Committed sweep outputs, compared byte for byte.

The fixtures under ``tests/golden`` are the CSV sweeps of one 5 x 5 lambda
grid (step 0.75, the README rectangle moved by the benchmark's seed-1
offsets) at sizes 32 and 128, in l-infinity, c0 and ces(0).  A change that
moves a value or a verdict shows as a changed line of a fixture.  Each was
written by

    ceslab sweep --space=SPACE --re-min=-0.4861058966714063 \\
        --re-max=2.5138941033285938 --im-min=-1.404964878631278 \\
        --im-max=1.595035121368722 --step=0.75 --sizes=32,128 --seed=1 \\
        --output=tests/golden/sweep_grid_SPACE.csv

with SPACE one of linf, c0 and ces0.
"""

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


@pytest.mark.parametrize("space", ["linf", "c0", "ces0"])
def test_sweep_grid_matches_its_fixture(space, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", f"--space={space}", *GRID, f"--output={out}"]) == 0
    assert out.read_bytes() == (GOLDEN / f"sweep_grid_{space}.csv").read_bytes()
