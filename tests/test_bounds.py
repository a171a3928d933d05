import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ceslab import (
    BOUND_KINDS,
    UnsupportedParameterError,
    WrongRegimeError,
    beta_estimate,
    check_entry_bounds,
    comparison_operator,
    gamma_circle_point,
    product_profile,
    remark41,
)
from ceslab.bounds import (
    _report,
    _row_sums,
    comparison_matrix_report,
    profile_report,
    remark41_report,
)
from ceslab.resolvent import alpha_of
from conftest import sample_lambda


class TestProductProfile:
    def test_telescoping_at_minus_one(self):
        # factors (1 + 1/k) telescope: pi_n = n + 1, scaled = (n+1)/n
        prof = product_profile(-1.0, 500)
        n = np.arange(1, 501)
        np.testing.assert_allclose(prof.pi, n + 1.0, rtol=1e-12)
        np.testing.assert_allclose(prof.scaled, (n + 1.0) / n, rtol=1e-12)
        assert prof.q_hat == pytest.approx(2.0, rel=1e-12)
        assert prof.p_hat == pytest.approx(501 / 500, rel=1e-12)

    def test_imaginary_unit_band(self):
        # alpha = 0, so scaled == pi; both stay in a fixed positive band
        prof = product_profile(1j, 10**5)
        np.testing.assert_array_equal(prof.scaled, prof.pi)
        assert 0.0 < prof.p_hat <= prof.q_hat < 10.0

    def test_band_stability_at_two(self):
        # alpha = 1/2: the rescaled products seen early bracket the tail
        prof = product_profile(2.0, 10**5)
        head = prof.scaled[: 10**4]
        tail = prof.scaled[10**4 - 1 :]
        assert tail.min() >= 0.9 * head.min()
        assert tail.max() <= 1.1 * head.max()

    def test_all_positive(self, rng):
        for _ in range(5):
            prof = product_profile(sample_lambda(rng), 2000)
            assert prof.p_hat > 0


class TestProfileReport:
    def test_band_holds_at_two(self):
        report = profile_report(2.0, 20000)
        prof = product_profile(2.0, 20000)
        assert report["holds"] and report["kind"] == "profile_38"
        assert (report["p_hat"], report["q_hat"]) == (prof.p_hat, prof.q_hat)
        # the tail from the end of the first tenth on, against the band
        # [0.9 p0, 1.1 q0] spanned by that first tenth
        head, tail = prof.scaled[:2000], prof.scaled[1999:]
        edges = np.minimum(tail - 0.9 * head.min(), 1.1 * head.max() - tail)
        assert report["worst_margin"] == pytest.approx(edges.min(), rel=1e-15)
        assert report["worst_margin"] > 0

    def test_band_fails_past_a_late_pole(self):
        # the factor 1 - 1/(k lambda) nearly vanishes at k = 20, beyond the
        # first tenth of n = 100, and the tail then leaves the band
        report = profile_report(complex(0.05, 0.01), 100)
        assert report["p_hat"] > 0
        assert not report["holds"] and report["worst_margin"] < 0

    def test_needs_a_tail(self):
        with pytest.raises(UnsupportedParameterError):
            profile_report(2.0, 1)

    @pytest.mark.parametrize("lam", [complex(0.002, 1e-6), -0.002])
    def test_refuses_a_profile_beyond_the_double_range(self, lam):
        # alpha = +-500: n^alpha pi_n over- or underflows within n = 1000
        with pytest.raises(UnsupportedParameterError, match="alpha = "):
            profile_report(lam, 1000)


class TestBetaEstimate:
    def test_closed_form_at_minus_one(self):
        # |e_nm| = m/(n(n+1)) at lambda = -1, so the sup equals N/(N+1)
        for N in (10, 100, 1000):
            assert beta_estimate(-1.0, N) == pytest.approx(N / (N + 1), rel=1e-12)

    def test_matches_full_triangle_scan(self, rng):
        # O(N) running-max route vs the naive full scan of |e_nm| n^(1-a) m^a
        for _ in range(3):
            lam = sample_lambda(rng, predicate=lambda z: (1 / z).real < 1)
            N = 60
            alpha = (1 / lam).real
            E = comparison_operator(lam, N).dense()
            n_idx, m_idx = np.tril_indices(N, k=-1)
            n_idx, m_idx = n_idx + 1.0, m_idx + 1.0
            scan = (
                np.abs(E[np.tril_indices(N, k=-1)])
                * n_idx ** (1 - alpha)
                * m_idx**alpha
            ).max()
            assert beta_estimate(lam, N) == pytest.approx(scan, rel=1e-10)

    def test_doubling_stability(self, rng):
        for _ in range(5):
            lam = sample_lambda(rng, predicate=lambda z: (1 / z).real < 0.99)
            ratio = beta_estimate(lam, 2000) / beta_estimate(lam, 1000)
            assert 1.0 <= ratio <= 1.05

    def test_finite_close_to_the_threshold(self):
        # alpha = 0.9 still admits a finite stable constant
        lam = gamma_circle_point(0.9, 0.3)
        b1 = beta_estimate(lam, 1000)
        b2 = beta_estimate(lam, 2000)
        assert np.isfinite(b1) and b1 > 0
        assert 1.0 <= b2 / b1 <= 1.05

    def test_rejects_alpha_at_least_one(self):
        with pytest.raises(UnsupportedParameterError):
            beta_estimate(0.4 + 0.3j, 100)  # Re(1/lambda) = 1.6

    @pytest.mark.parametrize("lam, N", [(-0.0025, 128), (1 / complex(-1000.0, 0.5), 512)])
    def test_refuses_a_sup_off_the_double_range(self, lam, N):
        # exp overflowed: inf, with numpy's RuntimeWarning
        with pytest.raises(UnsupportedParameterError, match=f"N = {N} .*alpha = -"):
            beta_estimate(lam, N)


class TestCheckEntryBounds:
    def test_rho1_hand_margin(self):
        # |e_21| = 1/6 <= 1/2 with margin exactly 1/3
        report = check_entry_bounds(-1.0, 2, "rho1_54")
        assert report["holds"]
        assert report["worst_margin"] == pytest.approx(1 / 3, rel=1e-15)
        assert (report["witness_n"], report["witness_m"]) == (2, 1)

    def test_rho1_wrong_regime(self):
        with pytest.raises(WrongRegimeError):
            check_entry_bounds(3.0, 100, "rho1_54")

    def test_rho1_sample(self, rng):
        for _ in range(5):
            lam = sample_lambda(rng, predicate=lambda z: (1 / z).real <= 0)
            assert check_entry_bounds(lam, 300, "rho1_54")["holds"]

    def test_gamma56_on_circle(self):
        lam = gamma_circle_point(0.5, 1.0)  # the spec's 1/(0.5 + i)
        report = check_entry_bounds(lam, 500, "gamma_56")
        assert report["holds"]
        E = comparison_operator(2.0, 500).dense()
        assert np.all(E.imag == 0) and np.all(E.real >= 0)

    def test_gamma56_wrong_regime(self):
        with pytest.raises(WrongRegimeError):
            check_entry_bounds(-1.0, 50, "gamma_56")

    def test_diag_bound_near_pole(self):
        report = check_entry_bounds(0.4 + 0.0001j, 100, "diag_36")
        assert report["holds"]
        assert report["worst_margin"] >= -1e-12

    def test_alpha43_self_consistent(self, rng):
        for _ in range(3):
            lam = sample_lambda(rng, predicate=lambda z: (1 / z).real < 1)
            report = check_entry_bounds(lam, 200, "alpha_43")
            assert report["holds"]

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            check_entry_bounds(-1.0, 10, "eq_unknown")

    @pytest.mark.parametrize("kind, lam", [("alpha_43", 2.0), ("rho1_54", -1.0), ("gamma_56", 2.0)])
    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_scans_refuse_a_size_below_two(self, kind, lam, n):
        with pytest.raises(UnsupportedParameterError, match=f"got {n}$"):
            check_entry_bounds(lam, n, kind)

    def test_every_kind_reports_one_dict_format(self):
        keys = {"kind", "n_max", "holds", "worst_margin", "witness_n", "witness_m"}
        for kind in BOUND_KINDS:
            lam = -1.0 if kind == "rho1_54" else 2.0
            report = check_entry_bounds(lam, 20, kind)
            assert set(report) == keys | {"lambda_re", "lambda_im"}
            assert (report["kind"], report["lambda_re"], report["lambda_im"]) == (kind, lam, 0.0)
        assert set(comparison_matrix_report("rowsum_46", 0.5, 20)) == keys


def dense_scan(lam, n, kind):
    """The report of one argmin over the whole dense strict lower triangle.

    |E| is formed densely as the product of |E| with I, and the margins
    bound - |e_nm| are those of the row-block scan, entry for entry; the
    first NaN wins, else the first minimum in row-major order.  Returns
    None where beta or the alpha_43 factors leave the double range.
    """
    abs_e = comparison_operator(lam, n).modulus().matvec(np.eye(n)).T
    alpha, k = alpha_of(lam), np.arange(1.0, n + 1.0)
    if kind == "alpha_43":
        try:
            beta = beta_estimate(lam, 2 * n)
        except UnsupportedParameterError:
            return None
        with np.errstate(all="ignore"):
            rows, cols = beta * k ** (alpha - 1.0), k ** (-alpha)
        if not (np.isfinite(rows).all() and np.isfinite(cols).all()):
            return None
        bound = rows[:, None] * cols
    elif kind == "rho1_54":
        bound = (1.0 / k)[:, None]
    else:
        bound = comparison_operator(1.0 / alpha, n).modulus().matvec(np.eye(n)).T
    margins = bound - abs_e
    margins[np.triu_indices(n)] = np.inf
    i, j = divmod(int(np.argmin(margins)), n)
    return _report(kind, lam, n, float(margins[i, j]), (i + 1, j + 1))


class TestScanAgainstDense:
    """The row-block scans print what one dense scan of the triangle prints."""

    SIZES = (2, 3, 4, 64, 65, 127, 128, 129, 256, 257, 1000, 1024)
    FAR_LEFT = 1.0 / complex(-1000.0, 0.5)  # E has 3 scale blocks at n = 256, 6 at 1024

    @pytest.mark.parametrize(
        "kind, lam",
        [
            ("rho1_54", -1.0),
            ("rho1_54", -1.2881245156855996 - 0.32233812873922685j),
            ("rho1_54", FAR_LEFT),
            ("rho1_54", 0.5j),
            ("rho1_54", -0.0025),
            ("alpha_43", 1.5620451708469711 + 0.6525863966760673j),
            ("alpha_43", 2.0),
            ("alpha_43", -1.0),
            ("alpha_43", 0.3 + 0.5j),
            ("alpha_43", FAR_LEFT),
            ("alpha_43", -0.02 + 0.01j),
            ("gamma_56", gamma_circle_point(0.5813120750546126, 1.3007422870309697)),
            ("gamma_56", gamma_circle_point(0.9, 0.1)),
            ("gamma_56", gamma_circle_point(0.05, 2.0)),
        ],
    )
    def test_json_is_the_dense_scans(self, kind, lam):
        for n in self.SIZES:
            expected = dense_scan(lam, n, kind)
            if expected is None:
                with pytest.raises(UnsupportedParameterError, match=f"n = {n} .*alpha = -"):
                    check_entry_bounds(lam, n, kind)
                continue
            report = check_entry_bounds(lam, n, kind)
            assert json.dumps(report, sort_keys=True) == json.dumps(expected, sort_keys=True)

    def test_far_left_lambda_spans_scale_blocks(self):
        assert len(comparison_operator(self.FAR_LEFT, 256).starts) == 3
        assert len(comparison_operator(self.FAR_LEFT, 1024).starts) == 6

    @pytest.mark.parametrize(
        "kind, lam",
        [
            ("rho1_54", FAR_LEFT),
            ("alpha_43", 1.5620451708469711 + 0.6525863966760673j),
            ("gamma_56", gamma_circle_point(0.5813120750546126, 1.3007422870309697)),
        ],
    )
    def test_scan_holds_no_square_array(self, kind, lam):
        # a dense n x n |E| alone would take 128 MiB at n = 4096
        tracemalloc.start()
        try:
            check_entry_bounds(lam, 4096, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20

    @pytest.mark.parametrize("lam, n", [(FAR_LEFT, 256), (FAR_LEFT, 3), (-0.0025, 64)])
    def test_alpha43_refuses_factors_off_the_double_range(self, lam, n):
        # beta n^(alpha-1) and m^(-alpha) over- or underflow: the bound was 0 * inf = NaN
        with pytest.raises(UnsupportedParameterError, match=f"n = {n} .*alpha = -"):
            check_entry_bounds(lam, n, "alpha_43")


class TestRowSupAndColumnLimits:
    """The comparison matrix r^(alpha-1) m^(-alpha) behind rowsum_46 and
    collimit_49: its row sums, and its last row as the column-limit proxy."""

    def test_alpha_zero_rows_sum_to_one(self):
        assert _row_sums(0.0, 100).max() == 1.0
        # rows 50 and 100 are constant, 1/50 and 1/100: every column decays alike
        report = comparison_matrix_report("collimit_49", 0.0, 100)
        assert report["worst_margin"] == pytest.approx(1 / 50 - 1 / 100, rel=1e-15)

    def test_alpha_minus_one_closed_form(self):
        # row sums are (r + 1)/(2r), maximal at r = 1
        assert _row_sums(-1.0, 1000).max() == 1.0

    def test_alpha_half_approaches_two(self):
        # sup ~ 2 + zeta(1/2)/sqrt(N) with zeta(1/2) ~ -1.46035
        sup = _row_sums(0.5, 10**4).max()
        assert sup == pytest.approx(2.0 - 1.4603545 / 100.0, abs=1e-3)
        assert sup < 2.0
        # the last row is N^(-1/2) m^(-1/2); row N/2 exceeds it least at m = N/2
        report = comparison_matrix_report("collimit_49", 0.5, 10**4)
        half = 5000.0
        expected = (half**-0.5 - (10**4) ** -0.5) * half**-0.5
        assert report["worst_margin"] == pytest.approx(expected, rel=1e-12)
        assert (report["witness_n"], report["witness_m"]) == (10**4, 5000)

    def test_matches_materialized_matrix(self):
        alpha, N = 0.3, 40
        r = np.arange(1, N + 1, dtype=np.float64)
        G = np.tril(np.outer(r ** (alpha - 1.0), r**-alpha))
        np.testing.assert_allclose(_row_sums(alpha, N), G.sum(axis=1), rtol=1e-13)
        report = comparison_matrix_report("collimit_49", alpha, N)
        margins = G[N // 2 - 1, : N // 2] - G[N - 1, : N // 2]
        assert report["worst_margin"] == pytest.approx(margins.min(), rel=1e-13)

    def test_rejects_alpha_at_least_one(self):
        for kind in ("rowsum_46", "collimit_49"):
            with pytest.raises(WrongRegimeError):
                comparison_matrix_report(kind, 1.5, 10)
            with pytest.raises(WrongRegimeError):
                check_entry_bounds(1.0 / 1.5, 10, kind)


class TestComparisonReports:
    def test_rowsum_stable(self):
        report = comparison_matrix_report("rowsum_46", 0.5, 2000)
        assert report["holds"]

    def test_rowsum_driven_by_lambda(self):
        # same scan reachable through a lambda with Re(1/lambda) = 1/2
        report = check_entry_bounds(2.0, 2000, "rowsum_46")
        assert report["holds"]
        assert check_entry_bounds(2.0, 2000, "collimit_49")["holds"]

    def test_column_decay(self):
        report = comparison_matrix_report("collimit_49", 0.5, 2000)
        assert report["holds"]
        assert report["worst_margin"] > 0

    def test_regime_guard(self):
        with pytest.raises(WrongRegimeError):
            comparison_matrix_report("rowsum_46", 1.2, 100)


class TestRemark41:
    def test_outside_example(self):
        assert remark41(3.0, 2.0) == (True, True)

    def test_report_decides_holds_and_margin(self):
        report = remark41_report(3 + 0j, 2.0)
        assert report["holds"] and report["kind"] == "remark41"
        assert report["alpha_below_threshold"] and report["outside_disk"]
        assert report["worst_margin"] == pytest.approx(1 / 2 - 1 / 3, rel=1e-15)

    def test_boundary_example(self):
        assert remark41(2.0, 2.0) == (False, False)

    def test_inside_example(self):
        assert remark41(0.4 + 0.3j, 2.0) == (False, False)

    def test_rejects_zero(self):
        with pytest.raises(UnsupportedParameterError):
            remark41(0.0, 1.0)

    @given(
        st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.01, max_value=10.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_equivalence(self, lam, b):
        if lam == 0:
            return
        alpha = (1 / lam).real
        if abs(alpha - 1.0 / b) <= 1e-9:
            return  # boundary shadow in the half-plane coordinate
        if abs(abs(lam - b / 2.0) - b / 2.0) <= 1e-12 * max(1.0, b):
            return  # within float resolution of the circle itself (all circles
            # pass through 0, where the radial gap shrinks like |lambda|^2)
        left, right = remark41(lam, b)
        assert left == right


class TestGammaCirclePoint:
    def test_inverse_real_part_exact(self):
        for alpha in (0.1, 0.5, 0.9):
            for t in (-2.0, 0.5, 3.0):
                lam = gamma_circle_point(alpha, t)
                assert (1 / lam).real == pytest.approx(alpha, rel=1e-14)
                # lands on the circle of center/radius 1/(2 alpha)
                assert abs(lam - 1 / (2 * alpha)) == pytest.approx(
                    1 / (2 * alpha), rel=1e-12
                )

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(UnsupportedParameterError):
            gamma_circle_point(0.0, 1.0)

    @pytest.mark.parametrize("alpha, t", [(np.inf, 1.0), (0.5, np.inf), (0.5, -np.inf), (0.5, np.nan)])
    def test_rejects_non_finite_parameters(self, alpha, t):
        with pytest.raises(UnsupportedParameterError, match=f"alpha = {alpha}, t = {t}"):
            gamma_circle_point(alpha, t)
