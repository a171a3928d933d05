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

``tests/golden/commands.json`` holds the exit code and the stdout of each
command of ``COMMANDS``: the 24 commands of the benchmark's seed-1 ``scan``
round (bound scans on both sides of the log-domain threshold, ``verify`` at
n = 256..512 and a norms table), and commands at real lambda, where the
resolvent and the comparison matrix are real: bound scans and ``verify`` on
both sides of the poles, a sweep whose im = 0 row is stacked with complex
lambdas, and the lp:2 and linf sweeps of the real axis.

These are the bytes of one machine: 2 CPUs, numpy 2.4.6 on OpenBLAS.  The
l^2 values come from BLAS products and LAPACK SVDs, so another BLAS, CPU
or thread count may move their last bits.  ``tests/golden/regenerate.py``
rewrites every fixture and prints what moved.
"""

import contextlib
import functools
import io
import json
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

# The parameters of the benchmark's seed-1 scan round.
SCAN_LEFT = "--lambda=-1.2881245156855996-0.32233812873922685i"
SCAN_CIRCLE = ("--alpha=0.5813120750546126", "--t=1.3007422870309697")
SCAN_MID = "--lambda=1.5620451708469711+0.6525863966760673i"
SCAN_NEAR_POLE = "--lambda=0.3333333333333333+0.021516966570160084i"
SCAN_ROWS = "--alpha=-0.038552373038229226"
SCAN_PROFILE = "--lambda=0.29943982014177273+0.8980545793947718i"
SCAN_VERIFY = "--lambda=0.9713808705917506+0.5499014670756476i"

# name -> the CLI arguments of one command of commands.json
COMMANDS = {
    "scan_rho1_54_n256": ("bounds", "--kind=rho1_54", SCAN_LEFT, "--n=256"),
    "scan_gamma_56_n256": ("bounds", "--kind=gamma_56", *SCAN_CIRCLE, "--n=256"),
    "scan_alpha_43_n256": ("bounds", "--kind=alpha_43", SCAN_MID, "--n=256"),
    "scan_diag_36_n256": ("bounds", "--kind=diag_36", SCAN_NEAR_POLE, "--n=256"),
    "scan_rowsum_46_n256": ("bounds", "--kind=rowsum_46", SCAN_ROWS, "--n=256"),
    "scan_collimit_49_n256": ("bounds", "--kind=collimit_49", SCAN_ROWS, "--n=256"),
    "scan_profile_38_n256": ("bounds", "--kind=profile_38", SCAN_PROFILE, "--n=256"),
    "scan_rho1_54_n1024": ("bounds", "--kind=rho1_54", SCAN_LEFT, "--n=1024"),
    "scan_gamma_56_n1024": ("bounds", "--kind=gamma_56", *SCAN_CIRCLE, "--n=1024"),
    "scan_alpha_43_n1024": ("bounds", "--kind=alpha_43", SCAN_MID, "--n=1024"),
    "scan_diag_36_n1024": ("bounds", "--kind=diag_36", SCAN_NEAR_POLE, "--n=1024"),
    "scan_rowsum_46_n1024": ("bounds", "--kind=rowsum_46", SCAN_ROWS, "--n=1024"),
    "scan_collimit_49_n1024": ("bounds", "--kind=collimit_49", SCAN_ROWS, "--n=1024"),
    "scan_profile_38_n1024": ("bounds", "--kind=profile_38", SCAN_PROFILE, "--n=1024"),
    "scan_verify_n256": ("verify", SCAN_VERIFY, "--n=256"),
    "scan_verify_n288": ("verify", SCAN_VERIFY, "--n=288"),
    "scan_verify_n320": ("verify", SCAN_VERIFY, "--n=320"),
    "scan_verify_n352": ("verify", SCAN_VERIFY, "--n=352"),
    "scan_verify_n384": ("verify", SCAN_VERIFY, "--n=384"),
    "scan_verify_n416": ("verify", SCAN_VERIFY, "--n=416"),
    "scan_verify_n448": ("verify", SCAN_VERIFY, "--n=448"),
    "scan_verify_n480": ("verify", SCAN_VERIFY, "--n=480"),
    "scan_verify_n512": ("verify", SCAN_VERIFY, "--n=512"),
    "scan_norms": (
        "norms", "--sizes=64,256,1024", "--spaces=lp:2,lp:3,linf,ces:2,ces0", "--seed=1", "--json",
    ),
    "real_rho1_54": ("bounds", "--kind=rho1_54", "--lambda=-1+0i", "--n=2000"),
    "real_gamma_56": ("bounds", "--kind=gamma_56", "--alpha=0.5", "--t=1.0", "--n=1000"),
    "real_alpha_43_at_2": ("bounds", "--kind=alpha_43", "--lambda=2", "--n=700"),
    "real_alpha_43_at_-0.3": ("bounds", "--kind=alpha_43", "--lambda=-0.3", "--n=700"),
    "real_diag_36": ("bounds", "--kind=diag_36", "--lambda=0.34", "--n=900"),
    "real_verify_at_2": ("verify", "--lambda=2", "--n=512"),
    "real_verify_at_0.45": ("verify", "--lambda=0.45", "--n=512"),
    "real_verify_at_-0.0015": ("verify", "--lambda=-0.0015", "--n=512"),
    "real_row_sweep_lp3": (
        "sweep", "--space=lp:3", "--re-min=-1", "--re-max=1", "--im-min=-1", "--im-max=1",
        "--step=0.5", "--sizes=16,64", "--seed=3",
    ),
    "real_axis_sweep_lp2": (
        "sweep", "--space=lp:2", "--re-min=-0.5", "--re-max=2.5", "--im-min=0", "--im-max=0",
        "--step=0.05", "--sizes=32,128", "--seed=1",
    ),
    "real_axis_sweep_linf": (
        "sweep", "--space=linf", "--re-min=-0.5", "--re-max=2.5", "--im-min=0", "--im-max=0",
        "--step=0.05", "--sizes=32,128", "--seed=1",
    ),
}


def run(argv):
    """The exit code and the stdout bytes of ``ceslab ARGV``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue().encode("utf-8")


@functools.cache
def kept_commands():
    """commands.json: name -> {"argv": [...], "exit": code, "stdout": text}."""
    return json.loads((GOLDEN / "commands.json").read_text(encoding="utf-8"))


def check(name):
    code, output = run(FIXTURES[name])
    assert code == 0
    assert output == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("space", SWEEP_SPACES)
def test_sweep_grid_matches_its_fixture(space):
    check(f"sweep_grid_{space.replace(':', '')}.csv")


def test_norms_table_matches_its_fixture():
    check("norms.json")


@pytest.mark.parametrize("name", COMMANDS)
def test_command_matches_its_fixture(name):
    kept = kept_commands()[name]
    assert kept["argv"] == list(COMMANDS[name])
    code, output = run(COMMANDS[name])
    assert (code, output.decode("utf-8")) == (kept["exit"], kept["stdout"])
