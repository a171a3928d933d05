import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ceslab.cli
from ceslab.cli import main, parse_complex
from ceslab.errors import InvalidConfigError


class TestParseComplex:
    @pytest.mark.parametrize("text,value", [
        ("2", 2 + 0j),
        ("-1+0i", -1 + 0j),
        ("0.4+0.3i", 0.4 + 0.3j),
        ("0.4 - 0.3i", 0.4 - 0.3j),
        ("1e-3-2.5e2i", 1e-3 - 250j),
        ("2i", 2j),
        ("i", 1j),
        ("-i", -1j),
        (" 3 + 4 i ", 3 + 4j),
        ("1.5j", 1.5j),
    ])
    def test_accepted_forms(self, text, value):
        assert parse_complex(text) == value

    @pytest.mark.parametrize("text", ["", "abc", "1+2", "inf+0i", "1++2i"])
    def test_rejected_forms(self, text):
        with pytest.raises(InvalidConfigError):
            parse_complex(text)


class TestVerify:
    def test_passes_far_from_spectrum(self, capsys):
        assert main(["verify", "--lambda=-1+0i", "--n=64"]) == 0
        out = capsys.readouterr().out
        assert "residual" in out and "PASS" in out

    def test_pole_shadow_exits_two(self, capsys):
        assert main(["verify", "--lambda=0.5+0i", "--n=16"]) == 2
        err = capsys.readouterr().err
        assert "0.5" in err

    def test_reports_gamma_and_alpha(self, capsys):
        assert main(["verify", "--lambda=2+1i", "--n=32"]) == 0
        out = capsys.readouterr().out
        assert "gamma" in out and "alpha" in out

    def test_full_size_example(self, capsys):
        assert main(["verify", "--lambda=2+1i", "--n=512"]) == 0
        residual_line = [
            line for line in capsys.readouterr().out.splitlines() if "residual" in line
        ][0]
        assert float(residual_line.split("=")[1]) <= 1e-9

    def test_near_pole_diagonal_bound_is_relative(self, capsys):
        # rounding alone once pushed |d| past 1/gamma + 1e-9: a traceback
        lam = "0.058823544111141136+2.3078740349828933e-08i"
        assert main(["verify", f"--lambda={lam}", "--n=64"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_ill_conditioned_section_passes(self, capsys):
        # max|R| = 2.1e10 here; the absolute deviation from I was 1
        assert main(["verify", "--lambda=0.3333333333333333+2e-9i", "--n=8"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        residual_line = [line for line in out.splitlines() if "residual" in line][0]
        assert float(residual_line.split("=")[1]) <= 8 * 8 * 2.0**-52


class TestBounds:
    def test_rho1_holds(self, capsys):
        assert main(["bounds", "--kind=rho1_54", "--lambda=-1+0i", "--n=200"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["holds"] is True
        assert report["kind"] == "rho1_54"

    def test_rho1_full_size(self, capsys):
        assert main(["bounds", "--kind=rho1_54", "--lambda=-1+0i", "--n=2000"]) == 0
        assert json.loads(capsys.readouterr().out)["holds"] is True

    def test_rho1_wrong_regime_exits_two(self, capsys):
        assert main(["bounds", "--kind=rho1_54", "--lambda=3+0i", "--n=50"]) == 2
        assert "rho1" in capsys.readouterr().err

    def test_gamma56_circle_parametrization(self, capsys):
        code = main(["bounds", "--kind=gamma_56", "--alpha=0.5", "--t=1.0", "--n=100"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["holds"] is True

    def test_diag_bound(self, capsys):
        assert main(["bounds", "--kind=diag_36", "--lambda=0.4+0.3i", "--n=500"]) == 0
        assert json.loads(capsys.readouterr().out)["holds"] is True

    def test_rowsum_via_alpha(self, capsys):
        assert main(["bounds", "--kind=rowsum_46", "--alpha=0.0", "--n=500"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["holds"] is True

    def test_remark41_equivalence(self, capsys):
        assert main(["bounds", "--kind=remark41", "--lambda=3+0i", "--b=2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["alpha_below_threshold"] is True
        assert report["outside_disk"] is True

    def test_profile_band(self, capsys):
        assert main(["bounds", "--kind=profile_38", "--lambda=2+0i", "--n=20000"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["p_hat"] > 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["--kind=diag_36", "--lambda=0.4+0.3i"],
            ["--kind=alpha_43", "--lambda=2+1i"],
            ["--kind=rho1_54", "--lambda=-1+0.5i"],
            ["--kind=gamma_56", "--alpha=0.5", "--t=1"],
            ["--kind=rowsum_46", "--alpha=0.5"],
            ["--kind=collimit_49", "--lambda=2"],
            ["--kind=profile_38", "--lambda=2+0i"],
            ["--kind=remark41", "--lambda=3+0i", "--b=2"],
        ],
    )
    def test_every_kind_prints_one_strict_json_report(self, argv, capsys):
        # every kind, lambda- or alpha-driven, prints one finite JSON object
        assert main(["bounds", *argv, "--n=200"]) == 0

        def refuse(constant):
            raise AssertionError(f"non-finite {constant} in the report")

        report = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert report["kind"] == argv[0].removeprefix("--kind=")
        assert report["holds"] is True
        assert isinstance(report["worst_margin"], float)
        if report["kind"] != "remark41":  # the one kind without a size
            assert report["n_max"] == 200

    def test_profile_out_of_double_range_is_refused(self, capsys):
        # alpha = 500: n^alpha pi_n overflows; it used to print Infinity and pass
        argv = ["bounds", "--kind=profile_38", "--lambda=0.002+1e-6i", "--n=1000"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "Infinity" not in captured.out
        assert '"holds": true' not in captured.out
        assert "alpha = 499.99" in captured.err


SWEEP_FLAGS = [
    "sweep",
    "--space=lp:2",
    "--re-min=1.5",
    "--re-max=2.5",
    "--im-min=1.0",
    "--im-max=1.0",
    "--step=0.5",
    "--sizes=8,16",
    "--seed=7",
]


class TestSweep:
    def test_csv_deterministic(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert main(SWEEP_FLAGS + [f"--output={path}"]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_shape(self, tmp_path):
        path = tmp_path / "out.csv"
        assert main(SWEEP_FLAGS + [f"--output={path}"]) == 0
        lines = path.read_text().strip().splitlines()
        header = "lambda_re,lambda_im,n,gamma,op_norm_est,reg_norm_est,in_disk,verdict"
        assert lines[0] == header
        assert len(lines) == 1 + 3 * 2  # 3 grid points x 2 sizes
        first = lines[1].split(",")
        assert first[2] == "8"
        assert first[6] in ("true", "false")
        assert first[7] in ("bounded", "growing", "inconclusive")

    def test_json_round_trip(self, tmp_path, capsys):
        from ceslab import GridSpec, lp, sweep

        path = tmp_path / "out.json"
        assert main(SWEEP_FLAGS + ["--format=json", f"--output={path}"]) == 0
        parsed = json.loads(path.read_text())["records"]
        assert len(parsed) == 6
        # the serialized floats reproduce the in-process values exactly
        direct = sweep(lp(2), GridSpec(1.5, 2.5, 1.0, 1.0, 0.5), [8, 16], seed=7)
        for rec, row in zip(direct, parsed):
            assert row["lambda_re"] == rec.lam.real
            assert row["lambda_im"] == rec.lam.imag
            assert row["gamma"] == rec.gamma
            assert row["op_norm_est"] == rec.op_norm_est
            assert row["reg_norm_est"] == rec.reg_norm_est

    def test_csv_and_json_carry_equal_records(self, capsys):
        assert main(SWEEP_FLAGS + ["--space=ces:2", "--format=csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert main(SWEEP_FLAGS + ["--space=ces:2", "--format=json"]) == 0
        records = json.loads(capsys.readouterr().out)["records"]
        header = lines[0].split(",")
        assert len(records) == len(lines) - 1 == 6
        for line, record in zip(lines[1:], records):
            assert list(record) == header
            for name, text in zip(header, line.split(",")):
                value = record[name]
                if isinstance(value, bool):
                    assert text == ("true" if value else "false")
                elif isinstance(value, float):
                    assert float(text) == value
                else:
                    assert text == str(value)

    def test_stdout_default(self, capsys):
        assert main(SWEEP_FLAGS) == 0
        out = capsys.readouterr().out
        assert out.startswith("lambda_re,")

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text(
            "# flat config\n"
            "space = lp:2\n"
            "re_min = 1.5\nre_max = 2.5\n"
            "im_min = 1.0\nim_max = 1.0\n"
            "step = 0.5\n"
            "sizes = 8,16\n"
            "seed = 7\n"
        )
        assert main(["sweep", f"--config={config}", "--sizes=8"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 1 + 3  # override: one size only

    def test_missing_field_exits_one(self, capsys):
        assert main(["sweep", "--space=lp:2"]) == 1
        assert "sweep needs" in capsys.readouterr().err

    def test_unparseable_sizes_exit_one(self, capsys):
        flags = [f.replace("--sizes=8,16", "--sizes=8,banana") for f in SWEEP_FLAGS]
        assert main(flags) == 1

    def test_grid_accounting_with_disk_column(self, tmp_path):
        # 11 x 11 grid crossing the pole segment (0, 1]; skipped points drop
        # whole lambda-groups, every kept row's in_disk matches the predicate
        path = tmp_path / "grid.csv"
        code = main([
            "sweep", "--space=lp:2",
            "--re-min=-0.5", "--re-max=2.0", "--im-min=-1.25", "--im-max=1.25",
            "--step=0.25", "--sizes=8,16", "--seed=3", f"--output={path}",
        ])
        assert code == 0
        from ceslab.resolvent import gamma

        res = [-0.5 + 0.25 * k for k in range(11)]
        ims = [-1.25 + 0.25 * k for k in range(11)]
        retained = [
            complex(re, im) for im in ims for re in res
            if gamma(complex(re, im)) > 1e-3
        ]
        rows = path.read_text().strip().splitlines()[1:]
        assert len(rows) == len(retained) * 2
        for row in rows:
            fields = row.split(",")
            lam = complex(float(fields[0]), float(fields[1]))
            assert (fields[6] == "true") == (abs(lam - 1.0) <= 1.0 + 1e-12)

    def test_step_exceeding_extent_exits_one(self, capsys):
        flags = [f.replace("--step=0.5", "--step=5.0") for f in SWEEP_FLAGS]
        assert main(flags) == 1

    def test_unwritable_output_exits_one(self, tmp_path):
        missing_dir = tmp_path / "nope" / "out.csv"
        assert main(SWEEP_FLAGS + [f"--output={missing_dir}"]) == 1


class TestNorms:
    def test_table_smoke(self, capsys):
        assert main(["norms", "--sizes=8,16", "--spaces=lp:2,linf"]) == 0
        out = capsys.readouterr().out
        assert "lp(2)" in out and "linf" in out

    def test_json_table(self, capsys):
        assert main(["norms", "--sizes=8", "--spaces=linf,ces0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spaces"] == ["linf", "ces0"]
        assert payload["norms"][0][0] == pytest.approx(1.0, rel=1e-12)


class TestHugeLambda:
    """lambda^2 overflows: a plain exit-2 error naming lambda, never nan or a traceback."""

    HUGE = "--re-min=1e160 --re-max=1e160 --im-min=1e160 --im-max=1e160".split()

    @pytest.mark.parametrize("space", ["linf", "lp:2"])
    def test_sweep_exits_two(self, space, capsys):
        argv = ["sweep", f"--space={space}", *self.HUGE, "--step=1", "--sizes=8,16"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "nan" not in captured.out.lower()
        assert captured.err.startswith("error: lambda=(1e+160+1e+160j)")

    def test_verify_exits_two(self, capsys):
        assert main(["verify", "--lambda=-1e200", "--n=8"]) == 2
        captured = capsys.readouterr()
        assert "residual" not in captured.out
        assert captured.err.startswith("error: lambda=(-1e+200")


class TestBadInput:
    """Malformed input ends in one error line and an exit code, never a traceback."""

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["norms", "--spaces=foo", "--sizes=8"], 1, "cannot parse space 'foo'"),
            (["norms", "--spaces=lq:2", "--sizes=8"], 1, "space 'lq' in 'lq:2'"),
            ([*SWEEP_FLAGS, "--space=bogus"], 1, "cannot parse space 'bogus'"),
            ([*SWEEP_FLAGS, "--re-min=nan"], 1, "grid re_min must be finite"),
            ([*SWEEP_FLAGS, "--re-max=inf"], 1, "grid re_max must be finite"),
            ([*SWEEP_FLAGS, "--step=nan"], 1, "grid step must be finite"),
            (["bounds", "--kind=collimit_49", "--alpha=0.5", "--n=0"], 2, "got 0"),
            (["bounds", "--kind=rowsum_46", "--alpha=0.5", "--n=1"], 2, "got 1"),
            (["bounds", "--kind=rowsum_46", "--alpha=nan", "--n=10"], 2, "got nan"),
            (["bounds", "--kind=collimit_49", "--alpha=-inf", "--n=10"], 2, "got -inf"),
            (["bounds", "--kind=diag_36", "--alpha=nan", "--n=10"], 2, "(nan+0j) is not finite"),
            (["bounds", "--kind=alpha_43", "--alpha=nan", "--n=10"], 2, "(nan+0j) is not finite"),
            (["bounds", "--kind=rho1_54", "--alpha=nan", "--n=10"], 2, "(nan+0j) is not finite"),
            (["bounds", "--kind=remark41", "--lambda=3+0i", "--b=inf"], 2, "got inf"),
            (["bounds", "--kind=remark41", "--lambda=1e-320", "--b=2"], 2, "not finite"),
            ([*SWEEP_FLAGS, "--re-min=1", "--re-max=2", "--step=1e-300"], 1, "1e+300 grid points"),
            (["norms", "--sizes=16", "--spaces=lp:3", "--seed=-1"], 1, "seed must be >= 0, got -1"),
            (["norms", "--sizes=16", "--spaces=linf", "--seed=-1"], 1, "seed must be >= 0, got -1"),
            ([*SWEEP_FLAGS, "--sizes=128,256", "--seed=-3"], 1, "seed must be >= 0, got -3"),
            ([*SWEEP_FLAGS, "--space=linf", "--seed=-3"], 1, "seed must be >= 0, got -3"),
            (["bounds", "--kind=gamma_56", "--alpha=0.5", "--t=inf", "--n=10"], 2, "t = inf"),
            (["bounds", "--kind=gamma_56", "--alpha=inf", "--n=10"], 2, "alpha = inf"),
            (["bounds", "--kind=gamma_56", "--alpha=0.5", "--t=nan", "--n=10"], 2, "t = nan"),
            (["bounds", "--kind=rho1_54", "--lambda=-1", "--n=0"], 2, "need n >= 2, got 0"),
            (["bounds", "--kind=rho1_54", "--lambda=-1", "--n=1"], 2, "need n >= 2, got 1"),
            (["bounds", "--kind=alpha_43", "--lambda=2", "--n=-3"], 2, "need n >= 2, got -3"),
            (["bounds", "--kind=gamma_56", "--alpha=0.5", "--n=1"], 2, "need n >= 2, got 1"),
            (["bounds", "--kind=collimit_49", "--lambda=0.6+0.1i", "--n=10"], 2, "at alpha = 1.62"),
            (["verify", "--lambda=0.5", "--n=16"], 2, "within 0.000e+00 of 0.5, a pole"),
            (["bounds", "--kind=diag_36", "--lambda=2", "--n=0"], 2, "size must be >= 1, got 0"),
            (["verify", "--lambda=2", "--n=0"], 2, "size must be >= 1, got 0"),
            (["norms", "--sizes=0", "--spaces=lp:3"], 2, "size must be >= 1, got 0"),
            ([*SWEEP_FLAGS, "--sizes=0,4"], 2, "sizes must be positive, got [0, 4]"),
        ],
    )
    def test_exits_with_one_error_line(self, argv, code, message, capsys):
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.err.count("\n") == 1
        for text in ("Traceback", "NaN", "Infinity"):
            assert text not in captured.err
        assert captured.out == ""


@pytest.mark.parametrize(
    "exc, line",
    [
        (MemoryError("Unable to allocate 1.31 TiB"), "error: Unable to allocate 1.31 TiB\n"),
        (MemoryError(), "error: out of memory\n"),
    ],
)
def test_running_out_of_memory_ends_in_one_error_line(exc, line, monkeypatch, capsys):
    # the allocation fails in a callee; a real one could succeed lazily
    def refuse(lam, n):
        raise exc

    monkeypatch.setattr(ceslab.cli, "residual", refuse)
    assert main(["verify", "--lambda=2", "--n=300000"]) == 1
    captured = capsys.readouterr()
    assert captured.err == line
    assert captured.out == ""


def test_module_entry_point_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ceslab", "verify", "--lambda=2", "--n=8"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout
