"""Self-tests for the benchmark's correctness checks.

Each check must accept ceslab's unchanged output and reject the same output
made slightly wrong.  The outputs come from running the CLI in process on
small inputs; run with

    python3 -m pytest perfbench/test_checks.py     (or python3 perfbench/test_checks.py)
"""

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import mpmath  # noqa: E402
import numpy as np  # noqa: E402
from workloads import Op, _lam, _num, _sweep_op  # noqa: E402

from ceslab.cli import main as cli_main  # noqa: E402

EPS = checks.EPS
SLIGHTLY = 1.0 + 1e-6


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(list(argv))
    assert code == 0, (argv, code)
    return buf.getvalue()


def edit_sweep(text, fmt, index, **changes):
    """The sweep output with fields of record ``index`` replaced."""
    records = checks.parse_sweep(text, fmt)
    records[index].update(changes)
    if fmt == "json":
        return json.dumps({"records": records})
    lines = ["lambda_re,lambda_im,n,gamma,op_norm_est,reg_norm_est,in_disk,verdict"]
    for r in records:
        lines.append(
            ",".join(
                [repr(float(r[k])) for k in ("lambda_re", "lambda_im")]
                + [str(r["n"])]
                + [repr(float(r[k])) for k in ("gamma", "op_norm_est", "reg_norm_est")]
                + ["true" if r["in_disk"] else "false", r["verdict"]]
            )
        )
    return "\n".join(lines) + "\n"


def drop_record(text, fmt, index):
    records = checks.parse_sweep(text, fmt)
    del records[index]
    return json.dumps({"records": records}) if fmt == "json" else "\n".join(
        text.splitlines()[: index + 1] + text.splitlines()[index + 2 :]
    ) + "\n"


class SweepChecks(unittest.TestCase):
    GRID = (-0.3, 1.7, -0.65, 0.35, 0.5)  # 5 x 3 points, none near a pole

    def sweep(self, space, fmt="csv", sizes=(16, 48)):
        op = _sweep_op(space, self.GRID, sizes, 3, fmt)
        return op, run_cli(op.argv)

    def assert_rejected(self, op, text):
        self.assertTrue(checks.check_sweep(op.params, text), "slightly wrong output was accepted")

    def test_lp2_exact_norms(self):
        for fmt in ("csv", "json"):
            op, text = self.sweep("lp:2", fmt)
            self.assertEqual(checks.check_sweep(op.params, text), [])
            rec = checks.parse_sweep(text, fmt)[5]
            self.assert_rejected(op, edit_sweep(text, fmt, 5, op_norm_est=rec["op_norm_est"] * SLIGHTLY))
            self.assert_rejected(op, edit_sweep(text, fmt, 5, reg_norm_est=rec["reg_norm_est"] * SLIGHTLY))
            # 64 n eps, eight times today's tolerance: a much looser one shows here
            step = 1.0 + 64 * rec["n"] * EPS
            self.assert_rejected(op, edit_sweep(text, fmt, 5, op_norm_est=rec["op_norm_est"] * step))

    def test_linf_row_sums(self):
        op, text = self.sweep("linf")
        self.assertEqual(checks.check_sweep(op.params, text), [])
        rec = checks.parse_sweep(text, "csv")[3]
        self.assert_rejected(op, edit_sweep(text, "csv", 3, op_norm_est=rec["op_norm_est"] * SLIGHTLY))
        self.assert_rejected(op, edit_sweep(text, "csv", 3, reg_norm_est=rec["reg_norm_est"] / SLIGHTLY))

    def test_ascent_lower_bounds(self):
        for space in ("ces:2", "ces0", "lp:3"):
            op, text = self.sweep(space)
            self.assertEqual(checks.check_sweep(op.params, text), [], space)
            kind, p, _ = checks.space_info(space)
            rec = checks.parse_sweep(text, "csv")[7]
            R = checks.Resolvents().get(complex(rec["lambda_re"], rec["lambda_im"]), rec["n"])
            floor = checks.ones_ratio(kind, p, R)
            self.assert_rejected(op, edit_sweep(text, "csv", 7, op_norm_est=floor / SLIGHTLY))
            self.assert_rejected(op, edit_sweep(text, "csv", 7, reg_norm_est=rec["op_norm_est"] / SLIGHTLY))

    def test_lp3_upper_bound(self):
        op, text = self.sweep("lp:3")
        rec = checks.parse_sweep(text, "csv")[2]
        absR = np.abs(checks.Resolvents().get(complex(rec["lambda_re"], rec["lambda_im"]), rec["n"]))
        ceiling = absR.sum(axis=0).max() ** (1 / 3) * absR.sum(axis=1).max() ** (2 / 3)
        self.assert_rejected(op, edit_sweep(text, "csv", 2, reg_norm_est=ceiling * SLIGHTLY))

    def test_gamma_disk_verdict_and_coverage(self):
        op, text = self.sweep("ces0")
        rec = checks.parse_sweep(text, "csv")[4]
        lam = complex(rec["lambda_re"], rec["lambda_im"])
        step = 16 * EPS * (abs(lam) + rec["gamma"])  # one ulp-scaled step past the tolerance
        self.assert_rejected(op, edit_sweep(text, "csv", 4, gamma=rec["gamma"] + step))
        self.assert_rejected(op, edit_sweep(text, "csv", 4, in_disk=not rec["in_disk"]))
        other = "growing" if rec["verdict"] != "growing" else "bounded"
        self.assert_rejected(op, edit_sweep(text, "csv", 4, verdict=other))
        self.assert_rejected(op, drop_record(text, "csv", 4))


class BoundsChecks(unittest.TestCase):
    N = 96
    CASES = {
        "rho1_54": (("--lambda=-0.7+0.4i",), {"lam": complex(-0.7, 0.4)}),
        "gamma_56": (("--alpha=0.5", "--t=1.0"), {"alpha": 0.5, "t": 1.0}),
        "alpha_43": (("--lambda=1.5+0.8i",), {"lam": complex(1.5, 0.8)}),
        "diag_36": (("--lambda=" + _lam(complex(1 / 3, 0.02)),), {"lam": complex(1 / 3, 0.02)}),
        "rowsum_46": (("--alpha=0.25",), {"alpha": 0.25}),
        "collimit_49": (("--alpha=-0.25",), {"alpha": -0.25}),
        "profile_38": (("--lambda=0.6+1.1i",), {"lam": complex(0.6, 1.1)}),
    }

    def op(self, kind):
        extra, params = self.CASES[kind]
        argv = ("bounds", f"--kind={kind}", *extra, f"--n={self.N}")
        return Op("bounds", argv, {"kind": kind, "n": self.N, **params})

    def guarded_scale(self, kind, report, params):
        """Size of the quantity the margin guards, at the reported witness."""
        n, m = report.get("witness_n"), report.get("witness_m")
        if kind == "rho1_54":
            return 1.0 / n
        if kind == "gamma_56":
            return float(abs(checks.mp_e(1.0 / params["alpha"], n, m)))
        if kind == "alpha_43":
            lam = complex(report["lambda_re"], report["lambda_im"])
            return float(abs(checks.mp_e(lam, n, m)))
        if kind == "diag_36":
            return 1.0 / checks.pole_distance(params["lam"])
        if kind == "rowsum_46":
            r = np.arange(1, self.N + 1)
            return float((np.cumsum(r ** -params["alpha"]) * r ** (params["alpha"] - 1)).max())
        if kind == "collimit_49":
            return (self.N // 2) ** (params["alpha"] - 1.0)
        return report["q_hat"]

    def test_every_kind(self):
        for kind in self.CASES:
            with self.subTest(kind=kind):
                op = self.op(kind)
                text = run_cli(op.argv)
                self.assertEqual(checks.check_bounds(op.params, text), [])
                report = json.loads(text)
                flipped = dict(report, holds=not report["holds"])
                self.assertTrue(checks.check_bounds(op.params, json.dumps(flipped)))
                shift = 1e-6 * self.guarded_scale(kind, report, op.params)
                moved = dict(report, worst_margin=report["worst_margin"] + shift)
                self.assertTrue(checks.check_bounds(op.params, json.dumps(moved)))

    def test_profile_extrema(self):
        op = self.op("profile_38")
        report = json.loads(run_cli(op.argv))
        for key in ("p_hat", "q_hat"):
            wrong = dict(report, **{key: report[key] * SLIGHTLY})
            self.assertTrue(checks.check_bounds(op.params, json.dumps(wrong)))

    def test_witness_entry_against_mpmath(self):
        op = self.op("rho1_54")
        report = json.loads(run_cli(op.argv))
        elsewhere = dict(report, witness_m=report["witness_m"] - 1)
        self.assertTrue(checks.check_bounds(op.params, json.dumps(elsewhere)))

    def test_mp_e_matches_definition(self):
        lam = complex(-1.0, 0.0)  # factors 1 + 1/k telescope: e_nm = m / (n (n + 1))
        for n, m in ((5, 2), (40, 39), (64, 1)):
            self.assertAlmostEqual(float(mpmath.re(checks.mp_e(lam, n, m))), m / (n * (n + 1.0)), places=15)


class VerifyChecks(unittest.TestCase):
    def test_verify(self):
        lam = complex(0.8, 0.6)
        op = Op("verify", ("verify", "--lambda=" + _lam(lam), "--n=64"), {"lam": lam, "n": 64})
        text = run_cli(op.argv)
        self.assertEqual(checks.check_verify(op.params, text), [])
        out = checks.parse_verify(text)

        def replaced(key, value):
            lines = [
                f"{key:<8} = {value}" if line.startswith(key + " ") else line
                for line in text.splitlines()
            ]
            return "\n".join(lines) + "\n"

        step = 16 * EPS * (abs(lam) + out["gamma"])
        self.assertTrue(checks.check_verify(op.params, replaced("gamma", _num(out["gamma"] + step))))
        self.assertTrue(checks.check_verify(op.params, replaced("alpha", _num(out["alpha"] * SLIGHTLY))))
        self.assertTrue(checks.check_verify(op.params, text.replace("PASS", "FAIL")))
        self.assertTrue(checks.check_verify(op.params, replaced("residual", "1e-06")))

    def test_outputs_of_failed_commands_are_checked(self):
        import run

        lam = complex(0.8, 0.6)
        op = Op("verify", ("verify", "--lambda=" + _lam(lam), "--n=64"), {"lam": lam, "n": 64})
        text = run_cli(op.argv)
        self.assertEqual(run.check_outputs([op], [{"code": 0, "stdout": text}]), [])
        # verify prints its report before it exits 1 on FAIL
        self.assertTrue(run.check_outputs([op], [{"code": 1, "stdout": text.replace("PASS", "FAIL")}]))
        self.assertTrue(run.check_outputs([op], [{"code": -1, "stdout": ""}]))


class NormsChecks(unittest.TestCase):
    SIZES = (16, 64, 160)
    SPACES = ("lp:2", "lp:3", "linf", "ces:2", "ces0")

    def test_norms(self):
        argv = ("norms", "--sizes=16,64,160", "--spaces=" + ",".join(self.SPACES), "--json")
        op = Op("norms", argv, {"sizes": self.SIZES, "spaces": self.SPACES})
        text = run_cli(argv)
        self.assertEqual(checks.check_norms(op.params, text), [])
        table = json.loads(text)

        def with_entry(row, col, value):
            wrong = json.loads(text)
            wrong["norms"][row][col] = value
            return json.dumps(wrong)

        norms = table["norms"]
        self.assertTrue(checks.check_norms(op.params, with_entry(1, 0, norms[1][0] * SLIGHTLY)))
        self.assertTrue(checks.check_norms(op.params, with_entry(2, 2, norms[2][2] * SLIGHTLY)))
        self.assertTrue(checks.check_norms(op.params, with_entry(0, 3, 2.0 * SLIGHTLY)))
        self.assertTrue(checks.check_norms(op.params, with_entry(0, 4, 1.0 / SLIGHTLY)))
        self.assertTrue(checks.check_norms(op.params, with_entry(2, 0, norms[1][0])))


if __name__ == "__main__":
    unittest.main()
