"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
import pytest
from scipy.linalg import svdvals

from ceslab import (
    apply,
    beta_estimate,
    cesaro_matrix,
    check_entry_bounds,
    classify_growth,
    diag_norm_equality_check,
    dual_exponent,
    comparison_operator,
    gamma,
    gamma_circle_point,
    linf,
    lp,
    norm,
    product_profile,
    remark41,
    residual,
    resolvent_operator,
    sweep,
)
from ceslab import ces0 as ces_zero_space
from ceslab.cli import main as cli_main
from conftest import sample_lambda
from test_resolvent import dense_section_inverse


def _report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num}: {status} - {description}"
    if detail:
        line += f" [{detail}]"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_resolvent_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(20240817)
    lams = [sample_lambda(rng, max_abs=5.0, min_gamma=0.05) for _ in range(50)]
    worst = max(residual(lam, 512) for lam in lams)

    worst_rel = 0.0
    for lam in lams[:5]:
        closed = resolvent_operator(lam, 512).dense()
        oracle = dense_section_inverse(lam, 512)
        worst_rel = max(worst_rel, np.abs(closed - oracle).max() / np.abs(closed).max())
    elapsed = time.perf_counter() - started

    _report(
        1,
        "closed-form resolvent inverts the section (50 seeded lambdas, n=512)",
        worst <= 1e-9 and worst_rel <= 1e-9 and elapsed <= 60.0,
        f"residual={worst:.2e} oracle_rel={worst_rel:.2e} time={elapsed:.1f}s",
    )


def test_criterion_2_hand_example():
    R = resolvent_operator(-1.0, 2).dense()
    expected = np.array([[0.5, 0.0], [-1 / 6, 2 / 3]])
    deviation = np.abs(R - expected).max()
    _report(
        2,
        "resolvent at lambda=-1, n=2 equals the hand-inverted section",
        deviation <= 1e-15,
        f"max deviation={deviation:.2e}",
    )


def test_criterion_3_bound_suites():
    rng = np.random.default_rng(1105)

    started = time.perf_counter()
    ok_diag = all(
        check_entry_bounds(sample_lambda(rng), 10**4, "diag_36").holds
        for _ in range(20)
    )
    t_diag = time.perf_counter() - started

    started = time.perf_counter()
    ok_rho1 = all(
        check_entry_bounds(
            sample_lambda(rng, predicate=lambda z: (1 / z).real <= 0),
            2000,
            "rho1_54",
        ).holds
        for _ in range(20)
    )
    t_rho1 = time.perf_counter() - started

    started = time.perf_counter()
    ok_gamma = True
    for alpha in np.arange(0.1, 0.95, 0.1):
        E = comparison_operator(1.0 / alpha, 1000).dense()
        ok_gamma &= bool(np.all(E.imag == 0) and np.all(E.real >= 0))
        for t in (0.2, 0.5, 1.0, 2.0, 5.0):
            lam = gamma_circle_point(alpha, t)
            ok_gamma &= check_entry_bounds(lam, 1000, "gamma_56").holds
    t_gamma = time.perf_counter() - started

    started = time.perf_counter()
    ok_beta = True
    for _ in range(10):
        lam = sample_lambda(rng, predicate=lambda z: (1 / z).real < 1)
        ratio = beta_estimate(lam, 2000) / beta_estimate(lam, 1000)
        ok_beta &= 1.0 <= ratio <= 1.05
    t_beta = time.perf_counter() - started

    started = time.perf_counter()
    ok_band = True
    for _ in range(10):
        profile = product_profile(sample_lambda(rng), 10**5)
        window = profile.scaled[10**4 - 1 :]
        ok_band &= profile.p_hat > 0
        ok_band &= window.min() >= 0.9 * profile.p_hat
        ok_band &= window.max() <= 1.1 * profile.q_hat
        head = profile.scaled[: 10**4]
        ok_band &= window.min() >= 0.9 * head.min()
        ok_band &= window.max() <= 1.1 * head.max()
    t_band = time.perf_counter() - started

    times = (t_diag, t_rho1, t_gamma, t_beta, t_band)
    _report(
        3,
        "entrywise bound suites hold (diagonal, rho1, circle, beta doubling, band)",
        all((ok_diag, ok_rho1, ok_gamma, ok_beta, ok_band))
        and all(t <= 30.0 for t in times),
        "times=" + "/".join(f"{t:.1f}s" for t in times),
    )


def test_criterion_4_halfplane_disk_equivalence():
    rng = np.random.default_rng(41)
    disagreements = 0
    checked = 0
    while checked < 10**4:
        lam = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        b = rng.uniform(0.01, 10.0)
        if lam == 0:
            continue
        # away from the boundary by 1e-9, in both coordinates describing it
        if abs((1 / lam).real - 1.0 / b) <= 1e-9:
            continue
        if abs(abs(lam - b / 2.0) - b / 2.0) <= 1e-9:
            continue
        below, outside = remark41(lam, b)
        disagreements += below != outside
        checked += 1
    _report(
        4,
        "half-plane/disk equivalence over 10^4 sampled (lambda, b) pairs",
        disagreements == 0,
        f"disagreements={disagreements}",
    )


def test_criterion_5_hardy_constants():
    rng = np.random.default_rng(5)
    violations = 0
    for p in (1.2, 2.0, 3.0):
        pd = dual_exponent(p)
        for n in (64, 256, 1024):
            C = cesaro_matrix(n)
            for _ in range(100):
                x = np.abs(rng.standard_normal(n))
                y = apply(C, x)
                violations += norm(lp(p), y) > pd * norm(lp(p), x)
                violations += norm(linf(), y) > norm(linf(), x)
                violations += norm(ces_zero_space(), y) > norm(ces_zero_space(), x)

    sections = [float(svdvals(cesaro_matrix(n).dense())[0]) for n in (64, 256, 1024)]
    increasing = sections[0] < sections[1] < sections[2]
    in_band = 1.5 < sections[2] < 2.0
    _report(
        5,
        "Hardy constants hold at every truncation; l2 sections rise toward 2",
        violations == 0 and increasing and in_band,
        f"violations={violations} sections={[f'{s:.4f}' for s in sections]}",
    )


def test_criterion_6_sweep_growth_proxy():
    started = time.perf_counter()
    inside = sweep(lp(2), [0.4 + 0.3j], [128, 2048])
    outside = sweep(lp(2), [2 + 2j], [512, 2048])
    elapsed = time.perf_counter() - started

    growth = inside[1].reg_norm_est / inside[0].reg_norm_est
    variation = abs(outside[1].reg_norm_est - outside[0].reg_norm_est) / outside[
        0
    ].reg_norm_est
    verdict_in = classify_growth(inside).verdict
    verdict_out = classify_growth(outside).verdict
    _report(
        6,
        "resolvent norms grow inside the disk and stay flat outside",
        growth >= 2.0
        and verdict_in == "growing"
        and variation <= 0.10
        and verdict_out == "bounded"
        and elapsed <= 300.0,
        f"growth={growth:.1f}x variation={variation:.3f} time={elapsed:.1f}s",
    )


def test_criterion_7_multiplier_norm_equality():
    rng = np.random.default_rng(7)
    ok = True
    worst = 0.0
    for space in (lp(2), linf()):
        for _ in range(100):
            phi = rng.standard_normal(32) + 1j * rng.standard_normal(32)
            report = diag_norm_equality_check(space, phi)
            worst = max(worst, report.difference)
            ok &= report.difference <= 1e-12
            ok &= abs(report.op_norm - report.max_modulus) <= 1e-12
            ok &= abs(report.reg_norm - report.max_modulus) <= 1e-12
    _report(
        7,
        "multiplier operator/regular norms agree and equal max|phi|",
        ok,
        f"worst difference={worst:.2e}",
    )


def test_criterion_8_sweep_determinism(tmp_path):
    flags = [
        "sweep",
        "--space=lp:2",
        "--re-min=1.5",
        "--re-max=2.5",
        "--im-min=0.5",
        "--im-max=1.5",
        "--step=0.5",
        "--sizes=16,32",
        "--seed=11",
    ]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    code_a = cli_main(flags + [f"--output={out_a}"])
    code_b = cli_main(flags + [f"--output={out_b}"])
    identical = out_a.read_bytes() == out_b.read_bytes()
    _report(
        8,
        "repeated sweeps with one seed emit byte-identical CSV",
        code_a == 0 and code_b == 0 and identical,
        f"bytes={out_a.stat().st_size}",
    )
