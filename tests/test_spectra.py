import logging
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import svdvals

from ceslab import (
    GridSpec,
    InvalidConfigError,
    InvalidDimensionError,
    LowerTriangularMatrix,
    SweepRecord,
    UnsupportedParameterError,
    apply,
    c0,
    ces,
    ces0,
    cesaro_matrix,
    classify_growth,
    diag_norm_equality_check,
    diag_operator,
    dual_exponent,
    in_spectrum,
    linf,
    lp,
    norm,
    operator_norm_report,
    resolvent_operator,
    spectrum_disk,
    stack,
    sweep,
)
from ceslab.resolvent import gamma
from ceslab.spaces import _vertex_starts
from ceslab.spectra import (
    ASCENT_RESTARTS,
    ASCENT_RTOL,
    SWEEP_GAMMA_SKIP,
    _UPPER_SLACK_NEPS,
    _ascent_starts,
    _ces0_column_sup,
    _lockstep_ascent,
    _norm_reports,
)
from conftest import cesaro_section, random_triangular, sample_lambda

EPS = np.finfo(float).eps


class TestSpectrumDisk:
    def test_euclidean_disk(self):
        disk = spectrum_disk(lp(2))
        assert disk.center == disk.radius == 1.0

    def test_max_norm_spaces_share_half_disk(self):
        from ceslab import c0

        for space in (linf(), c0(), ces0()):
            disk = spectrum_disk(space)
            assert disk.center == disk.radius == 0.5

    def test_ces_three(self):
        disk = spectrum_disk(ces(3))
        assert disk.center == disk.radius == 0.75  # p' = 3/2


class TestInSpectrum:
    def test_interior_point(self):
        assert in_spectrum(lp(2), 0.5 + 0j)

    def test_boundary_point(self):
        assert in_spectrum(lp(2), 2.0)

    def test_exterior_point_small_disk(self):
        assert not in_spectrum(ces0(), 2.0)

    def test_matches_half_plane_condition(self, rng):
        # |lambda - p'/2| <= p'/2 iff Re(1/lambda) >= 1/p', off the boundary
        from ceslab import remark41

        for p in (1.5, 2.0, 4.0):
            pd = dual_exponent(p)
            for _ in range(50):
                lam = sample_lambda(rng, min_gamma=1e-3)
                alpha = (1 / lam).real
                if abs(alpha - 1 / pd) <= 1e-9:
                    continue
                below, outside = remark41(lam, pd)
                assert in_spectrum(lp(p), lam) == (not outside)
                assert in_spectrum(lp(p), lam) == (alpha >= 1 / pd)


class TestOperatorNorms:
    def test_max_norm_of_averaging_matrix_is_one(self):
        value = operator_norm_report(linf(), cesaro_matrix(50)).value
        assert value == pytest.approx(1.0, rel=1e-14)

    def test_l2_matches_svd_oracle_two_by_two(self):
        C = cesaro_matrix(2)
        oracle = svdvals(C.dense())[0]
        assert operator_norm_report(lp(2), C).value == pytest.approx(oracle, rel=1e-14)

    def test_l2_sections_increase_below_two(self):
        values = [operator_norm_report(lp(2), cesaro_matrix(n)).value for n in (16, 64, 256)]
        assert values[0] < values[1] < values[2] < 2.0

    def test_lp_ascent_brackets(self, rng):
        # lower bound from sampled ratios <= ascent value <= row/col upper bound
        space = lp(3)
        A = random_triangular(rng, 8)
        report = operator_norm_report(space, A)
        sampled = 0.0
        for _ in range(200):
            x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            sampled = max(sampled, norm(space, A.dense() @ x) / norm(space, x))
        assert report.value >= sampled * (1 - 1e-9)
        assert report.upper is not None and report.value <= report.upper * (1 + 1e-9)

    def test_lp_ascent_exactish_on_small_cesaro(self):
        # for p = 2 the ascent can be cross-checked against the SVD oracle
        C = cesaro_matrix(6)
        oracle = svdvals(C.dense())[0]
        est = _lockstep_ascent(lp(2), stack([C]), _ascent_starts(lp(2), 6, [0]))[0][0]
        assert est == pytest.approx(oracle, rel=1e-8)

    def test_ces0_norm_of_averaging_matrix(self):
        # C is its own modulus: its norm is the exact majorant sum, 1, and the
        # upper bound is that sum rounded outward
        for n in (16, 40, 256, 1024):
            report = operator_norm_report(ces0(), cesaro_matrix(n))
            assert report.method == "majorant" and report.value == report.regular == 1.0
            assert report.upper == 1.0 + _UPPER_SLACK_NEPS * n * EPS

    def test_lanczos_branch_matches_svd(self, rng):
        A = random_triangular(rng, 48, blocks=2)
        exact = svdvals(A.dense())[0]
        report = operator_norm_report(lp(2), A)
        assert report.method == "lanczos"
        assert report.converged
        assert report.value == pytest.approx(exact, rel=1e-12)
        assert report.value <= report.upper * (1 + 1e-12)
        ratio = np.linalg.norm(A.dense() @ report.best_vector)
        assert ratio == pytest.approx(report.value, rel=1e-12)

    def test_lanczos_without_convergence_is_reported(self, rng, monkeypatch):
        import ceslab.spectra

        # three products leave the residual far above its tolerance
        monkeypatch.setattr(ceslab.spectra, "LANCZOS_MAX_PRODUCTS", 3)
        A = random_triangular(rng, 48)
        report = operator_norm_report(lp(2), A)
        assert report.method == "lanczos" and not report.converged
        # the value is the norm ratio at an actual unit vector
        assert np.linalg.norm(report.best_vector) == pytest.approx(1.0)
        assert report.value == pytest.approx(
            np.linalg.norm(A.dense() @ report.best_vector), rel=1e-12
        )
        assert report.value <= svdvals(A.dense())[0] * (1 + 1e-12)

    def test_ces0_column_scan_does_not_depend_on_its_blocks(self, rng, monkeypatch):
        import ceslab.spectra
        import ceslab.triangular

        A = random_triangular(rng, 300, blocks=2)
        scans = []
        for budget in (1, 8 * 300 * 300):  # one row per block, one block
            monkeypatch.setattr(ceslab.triangular, "_ROW_BLOCK_BYTES", budget)
            scans.append(ceslab.spectra._ces0_column_sup(A))
        (value, spike, regular), (one_value, one_spike, one_regular) = scans
        assert value == one_value and np.array_equal(spike, one_spike)
        # each row's majorant is summed over the columns of its block
        assert regular == pytest.approx(one_regular, rel=4 * 300 * EPS, abs=0)

    @staticmethod
    def dense_averages(A):
        """C|A|, the running averages down the columns of |A|, formed densely.

        |A| is the modulus of the generators; for complex A, np.abs of
        A.dense() rounds the entries differently.
        """
        return np.cumsum(A.modulus().dense(), axis=0) / np.arange(1.0, A.n + 1.0)[:, None]

    @classmethod
    def dense_column_sup(cls, A):
        """The largest m times the largest running average down column m of |A|, and m."""
        per_column = cls.dense_averages(A).max(axis=0) * np.arange(1.0, A.n + 1.0)
        m = int(np.argmax(per_column))
        return per_column[m], m

    @classmethod
    def dense_majorant_sum(cls, A, from_left=False):
        """The largest row sum of the least nonincreasing majorant of C|A|.

        With ``from_left`` each row's running maximum is taken from the left
        instead, a wrong majorant that the tests must tell apart.
        """
        B = cls.dense_averages(A)
        if from_left:
            return np.maximum.accumulate(B, axis=1).sum(axis=1).max()
        return np.maximum.accumulate(B[:, ::-1], axis=1).sum(axis=1).max()

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("n", [1, 2, 3, 33, 129, 300])
    def test_ces0_column_scan_is_the_dense_scan(self, rng, monkeypatch, n, real):
        import ceslab.triangular

        matrices = [random_triangular(rng, n, real, blocks) for blocks in range(1, min(n, 3) + 1)]
        if n == 300:
            matrices.append(resolvent_operator(-0.0025 if real else 1 / complex(-1000.0, 0.5), n))
            assert len(matrices[-1].starts) >= (2 if real else 3)
        # one row block; blocks of 7 rows, which end inside scale blocks; one row each
        for rows in (n, 7, 1):
            monkeypatch.setattr(ceslab.triangular, "_ROW_BLOCK_BYTES", 8 * n * rows)
            for A in matrices:
                value, spike, regular = _ces0_column_sup(A)
                expected, m = self.dense_column_sup(A)
                assert value == expected
                assert np.flatnonzero(spike).tolist() == [m] and spike[m] == m + 1
                # the same nonnegative terms, summed in another order
                assert regular == pytest.approx(self.dense_majorant_sum(A), rel=4 * n * EPS)

    @staticmethod
    def linprog_norm(B):
        """max over the rows b of B of max b.x subject to Cx <= 1, x >= 0, by linprog."""
        from scipy.optimize import linprog

        n = len(B)
        values = []
        for b in B:
            result = linprog(-b, A_ub=cesaro_section(n), b_ub=np.ones(n), bounds=(0, None))
            assert result.status == 0
            values.append(-result.fun)
        return max(values)

    # inside the disk, near its edge on both sides, and far outside it
    @pytest.mark.parametrize("lam", [-0.5 + 0.1j, 0.55 - 0.45j, 0.3 + 0.6j, 2.0 - 1.0j])
    def test_ces0_regular_norm_is_the_linear_program(self, lam):
        # the ces(0) norm of |R| is the largest value of the linear program
        # of a row of C|R|; its dual value is the row's majorant sum
        n = 36
        R = resolvent_operator(lam, n)
        want = self.linprog_norm(self.dense_averages(R))
        report = operator_norm_report(ces0(), R.modulus())
        assert report.method == "majorant" and report.exact and report.converged
        assert report.value == report.regular == pytest.approx(want, rel=1e-12)
        assert operator_norm_report(ces0(), R).regular == report.value
        # a majorant taken from the left would not pass
        assert self.dense_majorant_sum(R, from_left=True) > want * (1 + 1e-6)

    @pytest.mark.parametrize("n", [16, 32, 128])
    def test_ces0_upper_bound_caps_the_ascent_on_the_modulus(self, n):
        # every ascent ratio on |R| is the norm ratio at an actual vector, so
        # only an outward rounding keeps the exact majorant sum above them all
        lams = [
            lam
            for lam in GridSpec(-0.5, 2.5, -1.5, 1.5, 0.3).points()
            if gamma(lam) > SWEEP_GAMMA_SKIP
        ]
        R, seeds = stack([resolvent_operator(lam, n) for lam in lams]), range(len(lams))
        reports = _norm_reports(ces0(), R, seeds)
        ascents = _lockstep_ascent(ces0(), R.modulus(), _ascent_starts(ces0(), n, seeds))
        assert len(lams) == 119
        for report, (value, *_) in zip(reports, ascents):
            assert value <= report.upper
            assert report.regular <= report.upper

    def test_ces0_norm_of_a_positive_multiplier_is_exact(self, rng):
        phi = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        D = diag_operator(phi).modulus()
        report = operator_norm_report(ces0(), D)
        want = self.linprog_norm(self.dense_averages(D))
        assert report.exact and report.value == pytest.approx(want, rel=1e-12)
        # a real operator with a negative entry still runs the ascent
        C = cesaro_matrix(40)
        assert operator_norm_report(ces0(), LowerTriangularMatrix(-C.d, C.u, C.v)).method == "ascent"

    def test_ces0_column_scan_holds_no_square_array(self):
        # all n columns of |R| at once would take 128 MiB at n = 4096
        A = resolvent_operator(0.7 + 0.9j, 4096)
        tracemalloc.start()
        try:
            _ces0_column_sup(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2**20

    def test_ces0_reports_reach_the_best_spike(self):
        # here the seed-0 ascent alone stops at 1.8691 (n = 32) and 2.0578
        # (n = 128); the best spike m e_m gives 1.9659 and 2.0849
        lam, sizes = -0.5 + 0.1j, (32, 128)
        records = sweep(ces0(), [lam], list(sizes))
        for n, record in zip(sizes, records):
            spike, _ = self.dense_column_sup(resolvent_operator(lam, n))
            assert operator_norm_report(ces0(), resolvent_operator(lam, n)).value >= spike
            assert record.n == n and record.op_norm_est >= spike

    def test_large_p_report_is_finite_and_below_its_upper_bound(self):
        # the plain 50-norm of R x overflows here; the estimate must not
        space, R = lp(50), resolvent_operator(0.34 + 0.002j, 256)
        report = operator_norm_report(space, R)
        absR = R.modulus()
        rows, cols = absR.matvec(np.ones(256)).max(), absR.rmatvec(np.ones(256)).max()
        slack = 1 + _UPPER_SLACK_NEPS * 256 * EPS  # the bound is rounded outward
        upper = cols ** (1 / 50) * rows ** (1 / dual_exponent(50)) * slack
        assert report.upper == pytest.approx(upper, rel=1e-14)
        assert np.isfinite(report.value) and 0 < report.value <= report.upper
        x = report.best_vector
        assert report.value == pytest.approx(norm(space, R.matvec(x)) / norm(space, x), rel=1e-12)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 19, 20])
    def test_upper_bound_is_rounded_outward(self, rng, n, p):
        # on a diagonal the norm ratio and the bound agree in exact arithmetic,
        # so only the outward rounding keeps the first below the second
        for _ in range(40):
            A = diag_operator(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            report = operator_norm_report(lp(p), A)
            assert report.value <= report.upper

    @staticmethod
    def _scaled(A, factor):
        return LowerTriangularMatrix(A.d * factor, A.u * factor, A.v, A.starts, A.ratios)

    def test_lp2_norm_whose_gram_products_overflow(self):
        # (2^900 |R|)^2 overflows; the report is that of a power-of-two rescaling
        R = resolvent_operator(0.7 + 0.9j, 256)
        report = operator_norm_report(lp(2), self._scaled(R, 2.0**900))
        assert report.method == "lanczos" and report.converged
        assert report.value == np.ldexp(operator_norm_report(lp(2), R).value, 900)

    def test_lp3_ascent_whose_dual_map_overflows(self):
        R = resolvent_operator(0.7 + 0.9j, 256)
        report = operator_norm_report(lp(3), self._scaled(R, 2.0**500))
        unscaled = operator_norm_report(lp(3), R)
        assert report.value == pytest.approx(np.ldexp(unscaled.value, 500), rel=1e-10)
        assert report.upper == pytest.approx(np.ldexp(unscaled.upper, 500), rel=1e-14)

    def test_ces0_ascent_whose_products_overflow_stays_finite(self):
        # 1e307 R x overflows for some unit x; no overflowed ratio may count
        R = resolvent_operator(0.7 + 0.9j, 64)
        value = operator_norm_report(ces0(), self._scaled(R, 1e307)).value
        expected = 1e307 * operator_norm_report(ces0(), R).value
        assert value == pytest.approx(expected, rel=1e-12)

    def test_ascent_never_records_an_overflowed_ratio(self):
        S = self._scaled(resolvent_operator(0.7 + 0.9j, 64), 1e307)
        starts = _ascent_starts(ces0(), 64, [0])
        value, vector, _ = _lockstep_ascent(ces0(), stack([S]), starts)[0]
        assert np.isfinite(value)
        ratio = norm(ces0(), S.matvec(vector)) / norm(ces0(), vector)
        assert value == pytest.approx(ratio, rel=1e-12)

    @pytest.mark.parametrize(
        "space, n", [(lp(2), 48), (lp(2), 256), (lp(3), 48), (ces0(), 48)], ids=str
    )
    def test_overflowing_operator_in_a_chunk_of_ordinary_ones(self, space, n):
        # 2^900 R1 is scaled for the norm; R2 and R3 in its chunk must not be
        R1, R2, R3 = (resolvent_operator(lam, n) for lam in (0.7 + 0.9j, 0.45 + 0.5j, 2 + 1j))
        big = self._scaled(R1, 2.0**900)
        block = _norm_reports(space, stack([big, R2, R3]), [1, 2, 3])
        alone = _norm_reports(space, stack([big]), [1])[0]
        fields = ("value", "upper", "regular")
        assert [getattr(block[0], f) for f in fields] == [getattr(alone, f) for f in fields]
        own = _norm_reports(space, stack([R1]), [1])[0]
        for f in ("value", "regular"):
            scaled = np.ldexp(getattr(own, f), 900)
            assert getattr(block[0], f) == pytest.approx(scaled, rel=1e-10)
            if space.exponent == 2.0 or space.kind == "ces0":  # exact under a power of 2
                assert getattr(block[0], f) == scaled
        for R, seed, report in zip((R2, R3), (2, 3), block[1:]):
            single = _norm_reports(space, stack([R]), [seed])[0]
            assert [getattr(report, f) for f in fields] == [getattr(single, f) for f in fields]
            assert report.converged == single.converged

    def test_ces_norm_bounded_by_hardy_constant(self):
        value = operator_norm_report(ces(2), cesaro_matrix(64)).value
        assert value <= 2.0 + 1e-9

    def test_hardy_inequality_every_truncation(self, rng):
        for p in (1.2, 2.0, 3.0):
            pd = dual_exponent(p)
            for n in (16, 64):
                C = cesaro_matrix(n)
                for _ in range(20):
                    x = np.abs(rng.standard_normal(n))
                    assert norm(lp(p), apply(C, x)) <= pd * norm(lp(p), x)
                    assert norm(ces(p), apply(C, x)) <= pd * norm(ces(p), x)
                    assert norm(linf(), apply(C, x)) <= norm(linf(), x) * (1 + 1e-12)
                    assert norm(ces0(), apply(C, x)) <= norm(ces0(), x) * (1 + 1e-12)


class TestRegularNorm:
    def test_positive_matrix_equality_exact(self, rng):
        A = random_triangular(rng, 20, real=True, blocks=2)
        A = A.modulus()  # force positivity
        for space in (lp(2), lp(3), linf(), ces(2), ces0()):
            report = operator_norm_report(space, A)
            assert report.regular == report.value

    def test_diagonal_signs_wash_out(self):
        D = diag_operator([-1.0, 1j])
        for space in (lp(2), linf()):
            report = operator_norm_report(space, D)
            assert report.regular == pytest.approx(1.0, rel=1e-14)
            assert report.value == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("lam", [-1.0, 0.4 + 0.3j, 2 - 1j])
    def test_l2_regular_norm_is_the_svd_of_the_modulus(self, lam):
        R = resolvent_operator(lam, 64)
        report = operator_norm_report(lp(2), R)
        assert report.value <= report.regular
        assert report.regular == pytest.approx(svdvals(R.modulus().dense())[0], rel=1e-12)

    @pytest.mark.parametrize("space", [lp(3), ces(2)], ids=str)
    def test_zero_complex_operator(self, space):
        # complex, so not its own modulus: the regular pass runs, though the
        # operator ascent found no vector with a positive ratio
        report = operator_norm_report(space, diag_operator(np.zeros(4, dtype=complex)))
        assert report.value == report.regular == 0.0 and report.best_vector is None

    @staticmethod
    def estimator_passes(monkeypatch):
        """Count the calls of the two iterative estimators from here on."""
        import ceslab.spectra

        calls = []
        for name in ("_lockstep_ascent", "_lockstep_lanczos"):
            original = getattr(ceslab.spectra, name)

            def counted(*args, original=original, name=name):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(ceslab.spectra, name, counted)
        return calls

    @pytest.mark.parametrize("space", [lp(3), ces(2)], ids=str)
    def test_positive_multiplier_takes_one_pass(self, rng, space, monkeypatch):
        calls = self.estimator_passes(monkeypatch)
        report = diag_norm_equality_check(space, np.abs(rng.standard_normal(24)))
        assert calls == ["_lockstep_ascent"] and report.equality_holds
        # with signs, the regular norm takes a second pass on the modulus
        diag_norm_equality_check(space, rng.standard_normal(24))
        assert calls == ["_lockstep_ascent"] * 3

    # the estimator passes of the averaging matrix, which is its own modulus
    PASSES = {
        "lp(2)": ["_lockstep_lanczos"],
        "lp(3)": ["_lockstep_ascent"],
        "ces(2)": ["_lockstep_ascent"],
        "ces0": [],
        "linf": [],
    }

    @pytest.mark.parametrize("space", [lp(2), lp(3), ces(2), ces0(), linf()], ids=str)
    def test_averaging_matrix_takes_at_most_one_pass(self, space, monkeypatch):
        calls = self.estimator_passes(monkeypatch)
        report = operator_norm_report(space, cesaro_matrix(32))
        assert calls == self.PASSES[str(space)] and report.regular == report.value


def sequential_ascent(space, A, starts, max_iter):
    """Reference: one start vector at a time, each a plain power-type ascent.

    Returns (value, converged) as the block code should find them: the
    best ratio over every start and iteration, and whether every start
    stopped within ``max_iter`` products.
    """
    dense = A.dense().astype(complex)
    n = A.n
    k = np.arange(1, n + 1)

    def averages(x):
        return np.cumsum(np.abs(x)) / k

    def space_norm(x):
        if space.kind == "lp":
            return np.linalg.norm(x, space.p)
        return averages(x).max() if space.kind == "ces0" else np.linalg.norm(averages(x), space.p)

    def dual_map(z, q):
        with np.errstate(invalid="ignore", divide="ignore"):
            phase = np.where(np.abs(z) > 0, z / np.abs(z), 0)
        return phase * np.abs(z) ** (q - 1.0)

    best, converged = 0.0, True
    for x0 in starts:
        x = x0 / space_norm(x0)
        prev = -np.inf
        for _ in range(max_iter):
            y = dense @ x
            est = space_norm(y)
            best = max(best, est)
            if est == 0.0 or est - prev <= ASCENT_RTOL * max(est, 1.0):
                break
            prev = est
            if space.kind == "lp":
                z = dense.conj().T @ dual_map(y, space.p)
            else:
                w = averages(y)
                if space.kind == "ces0":
                    g = np.zeros(n)
                    g[np.argmax(w)] = 1.0
                else:
                    g = (w / est) ** (space.p - 1.0)
                dual_c = np.cumsum((g / k)[::-1])[::-1]  # C^T g
                z = dense.conj().T @ (dual_map(y, 1.0) * dual_c)
            if np.abs(z).max() == 0:
                break
            x = z if space.kind == "ces0" else dual_map(z, dual_exponent(space.p))
            x = x / space_norm(x)
        else:
            converged = False
    return best, converged


class TestAscentStarts:
    @pytest.mark.parametrize("n", [2, 3, 8, 128, 512, 1000])
    @pytest.mark.parametrize("space", [lp(3), ces(2), ces0()], ids=str)
    def test_no_start_repeats_another(self, space, n):
        starts = _ascent_starts(space, n, [0])[:, 0]
        directions = starts / np.linalg.norm(starts, axis=-1, keepdims=True)
        assert len(np.unique(directions, axis=0)) == len(starts)

    @staticmethod
    def one_operator_starts(space, n, seed, escort):
        # the rows of one operator as they were once built, one operator at a time
        starts = [np.ones(n)]
        rng = np.random.default_rng(seed)
        for _ in range(ASCENT_RESTARTS - 1):
            starts.append(np.abs(rng.standard_normal(n)))
        starts.extend([] if escort is None else [escort])
        starts.extend(_vertex_starts(space, n))
        return np.array(starts)

    @pytest.mark.parametrize("escorted", [False, True], ids=["plain", "escorted"])
    @pytest.mark.parametrize("n", [2, 8, 128])
    @pytest.mark.parametrize("space", [lp(3), ces(2), ces0()], ids=str)
    def test_block_column_is_each_operators_own_starts(self, rng, space, n, escorted):
        seeds = [5, 0, 1000003]
        escorts = np.abs(rng.standard_normal((3, n))) if escorted else None
        block = _ascent_starts(space, n, seeds, escorts)
        for i, seed in enumerate(seeds):
            escort = None if escorts is None else escorts[i]
            own = self.one_operator_starts(space, n, seed, escort)
            assert block[:, i].dtype == own.dtype
            np.testing.assert_array_equal(block[:, i], own, strict=True)

    def test_ties_keep_the_earliest_step_and_the_first_start(self):
        # 2I in ces(0) from the ones vector and 2 e_2, both of norm exactly 1:
        # both ratios are exactly 2 at the first step, and the ones row's is
        # again at the next, at e_1; the best is the ones vector
        n = 16
        A = LowerTriangularMatrix(np.full(n, 2.0), np.zeros(n), np.zeros(n))
        starts = np.array([np.ones(n), np.where(np.arange(n) == 1, 2.0, 0.0)])[:, None]
        value, vector, converged = _lockstep_ascent(ces0(), stack([A]), starts)[0]
        assert value == 2.0 and converged
        np.testing.assert_array_equal(vector, np.ones(n), strict=True)


class TestLockstep:
    """A block of L operators gives each the result of its own L = 1 run."""

    # max_iter per space, chosen so that some operators stop within it
    # and others run out of iterations
    MAX_ITER = {"lp": 9, "ces": 12, "ces0": 9}

    @pytest.mark.parametrize("n", [24, 212])
    @pytest.mark.parametrize("space", [lp(3), ces(2), ces0()], ids=str)
    def test_block_matches_single_runs(self, rng, space, n, monkeypatch):
        import ceslab.spectra

        monkeypatch.setattr(ceslab.spectra, "ASCENT_MAX_ITER", self.MAX_ITER[space.kind])
        operators = [random_triangular(rng, n, blocks=2) for _ in range(3)]
        operators += [resolvent_operator(0.45 + 0.5j, n), resolvent_operator(2 + 1j, n)]
        seeds = list(range(len(operators)))
        # the regular ascents on |A| also start from each operator's |x*|
        block = _norm_reports(space, stack(operators), seeds)
        single = [_norm_reports(space, stack([A]), [s])[0] for A, s in zip(operators, seeds)]
        assert {r.converged for r in single} == {True, False}
        for b, s in zip(block, single):
            assert b.value == pytest.approx(s.value, rel=4 * EPS, abs=0)
            assert b.regular == pytest.approx(s.regular, rel=4 * EPS, abs=0)
            assert b.converged == s.converged
            np.testing.assert_allclose(b.best_vector, s.best_vector, rtol=4 * EPS, atol=0)

    @pytest.mark.parametrize("space", [lp(3), ces(2), ces0()], ids=str)
    def test_block_matches_sequential_reference(self, rng, space, monkeypatch):
        import ceslab.spectra

        max_iter = self.MAX_ITER[space.kind]
        monkeypatch.setattr(ceslab.spectra, "ASCENT_MAX_ITER", max_iter)
        operators = [random_triangular(rng, 20, blocks=2) for _ in range(3)]
        operators += [resolvent_operator(0.45 + 0.5j, 20).modulus()]
        # norms below 1, where the stopping rule is absolute
        operators += [
            LowerTriangularMatrix(A.d / 1e4, A.u / 1e4, A.v, A.starts, A.ratios)
            for A in operators[:2]
        ]
        starts = _ascent_starts(space, 20, [0] * len(operators))
        block = _lockstep_ascent(space, stack(operators), starts)
        assert {converged for *_, converged in block} == {True, False}
        for A, s, (value, vector, converged) in zip(operators, starts.swapaxes(0, 1), block):
            ref_value, ref_converged = sequential_ascent(space, A, s, max_iter)
            assert value == pytest.approx(ref_value, rel=1e-12)
            assert converged == ref_converged
            ratio = norm(space, A.matvec(vector)) / norm(space, vector)
            assert value == pytest.approx(ratio, rel=1e-12)

    def test_values_are_ratios_at_their_vectors(self, rng):
        operators = [random_triangular(rng, 16, blocks=2) for _ in range(4)]
        for space in (lp(3), ces(2), ces0()):
            reports = _norm_reports(space, stack(operators), range(4))
            for A, r in zip(operators, reports):
                ratio = norm(space, A.matvec(r.best_vector)) / norm(space, r.best_vector)
                assert r.value == pytest.approx(ratio, rel=1e-12)


class TestLockstepLanczos:
    """A chunk of l^2 operators gives each its own run's value and the SVD's."""

    N = 256

    @staticmethod
    def check_chunk(operators):
        seeds = list(range(7, 7 + len(operators)))
        block = _norm_reports(lp(2), stack(operators), seeds)
        for A, seed, report in zip(operators, seeds, block):
            single = _norm_reports(lp(2), stack([A]), [seed])[0]
            exact = svdvals(A.dense())[0]
            assert report.method == "lanczos" and report.converged and single.converged
            assert report.value == pytest.approx(single.value, rel=1e-13, abs=0)
            assert abs(report.value - exact) <= 8 * A.n * EPS * exact
            assert np.linalg.norm(report.best_vector) == pytest.approx(1.0, rel=1e-14)
        return block

    @pytest.mark.parametrize("n", [1, 2, 3, 19, 20, 21, 32, 64])
    def test_sizes_the_dense_path_served(self, rng, n):
        # small sizes, up to and around the basis depth floor of 20, in one chunk
        operators = [
            random_triangular(rng, n, real=real, blocks=min(blocks, n))
            for real in (True, False)
            for blocks in (1, 3)
        ]
        operators += [diag_operator(np.zeros(n)), diag_operator(rng.standard_normal(n))]
        reports = self.check_chunk(operators)
        assert reports[-2].value == 0.0
        assert all(r.value <= r.upper for r in reports)

    def test_real_complex_and_multi_block_operators(self, rng):
        # alpha = Re(1/lambda) = 200 has norms near 1e120; -200 spans two scale blocks
        circle = [resolvent_operator(1 / complex(a, 0.5), self.N) for a in (200, -200)]
        assert [len(R.starts) for R in circle] == [1, 2]
        operators = [
            random_triangular(rng, self.N, real=real, blocks=blocks)
            for real in (True, False)
            for blocks in (1, 3)
        ]
        self.check_chunk(operators + circle)

    def test_real_chunk(self, rng):
        operators = [random_triangular(rng, self.N, real=True, blocks=b) for b in (1, 2)]
        operators += [resolvent_operator(lam, self.N).modulus() for lam in (-1, 0.4 + 0.3j)]
        assert all(A.d.dtype == np.float64 for A in operators)
        self.check_chunk(operators)

    def test_near_degenerate_lambda_among_easy_ones(self):
        # sigma_1 / sigma_2 = 1.0008 at lambda = -0.49+0.06i: that row runs on
        # through restarts long after the others have left the block
        lams = [2 + 1j, -0.49 + 0.06j, 0.4 + 0.3j, 1.8 + 0.2j, -0.3 + 0.8j]
        self.check_chunk([resolvent_operator(lam, self.N) for lam in lams])

    def test_restarts(self, monkeypatch):
        import ceslab.spectra

        # a budget below one vector: every basis is 20 deep, and the rows
        # that need more steps restart
        monkeypatch.setattr(ceslab.spectra, "_LOCKSTEP_BYTES", 1)
        depths = []
        depth = ceslab.spectra._lanczos_depth

        def spy(w, n):
            depths.append(depth(w, n))
            return depths[-1]

        monkeypatch.setattr(ceslab.spectra, "_lanczos_depth", spy)
        lams = [-0.49 + 0.06j, -0.3 + 0.8j, 2 + 1j]
        self.check_chunk([resolvent_operator(lam, self.N) for lam in lams])
        # one depth per run (the chunk and each single run), one per restart
        restarts = len(depths) - (1 + len(lams))
        assert set(depths) == {20} and restarts > 0


class TestRealStacks:
    """A chunk of real-lambda resolvents is real, and its norms are those of the
    complex stack with the same entries to a few eps."""

    LAMBDAS = (-0.5, -0.1, 0.45, 0.85, 1.3, 2.0)

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("space", [lp(3), ces(2), ces0()], ids=str)
    def test_norms_agree_with_the_complex_stack(self, space, n):
        R = stack([resolvent_operator(lam, n) for lam in self.LAMBDAS])
        assert R.d.dtype == np.float64
        generators = (a.astype(np.complex128) for a in (R.d, R.u, R.v))
        C = LowerTriangularMatrix(*generators, R.starts, R.ratios)
        seeds = list(range(len(self.LAMBDAS)))
        real, complex_ = _norm_reports(space, R, seeds), _norm_reports(space, C, seeds)
        assert all(r.method == "ascent" for r in real)
        for a, b in zip(real, complex_):
            assert abs(a.value - b.value) <= 8 * EPS * b.value
            assert abs(a.regular - b.regular) <= 8 * EPS * b.regular
            assert a.upper == b.upper  # from |R|, the same in both


class TestGridSpec:
    def test_rows_major_ordering(self):
        grid = GridSpec(0.0, 1.0, 0.0, 1.0, 0.5)
        points = grid.points()
        assert len(points) == 9
        assert points[0] == 0 + 0j
        assert points[1] == 0.5 + 0j  # real part varies fastest
        assert points[3] == 0 + 0.5j

    def test_single_point_grid(self):
        assert GridSpec(2.0, 2.0, 2.0, 2.0, 1.0).points() == [2 + 2j]

    def test_step_exceeding_extent_rejected(self):
        with pytest.raises(InvalidConfigError):
            GridSpec(0.0, 1.0, 0.0, 1.0, 5.0)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(InvalidConfigError):
            GridSpec(0.0, 1.0, 0.0, 1.0, 0.0)


class TestSweep:
    def test_exterior_point_bounded(self):
        records = sweep(lp(2), [2 + 2j], [64, 256])
        assert len(records) == 2
        assert not records[0].in_disk
        verdict = classify_growth(records)
        assert verdict.verdict == "bounded"
        assert all(r <= 1.1 for r in verdict.ratios)

    def test_interior_point_growing(self):
        records = sweep(lp(2), [0.4 + 0.3j], [64, 512])
        assert records[0].in_disk
        assert classify_growth(records).verdict == "growing"

    def test_pole_shadow_skipped_and_logged(self, caplog):
        with caplog.at_level(logging.INFO, logger="ceslab.spectra"):
            records = sweep(lp(2), [0.5 + 0j, 2 + 2j], [16])
        assert len(records) == 1
        assert records[0].lam == 2 + 2j
        assert any("skipping" in message for message in caplog.messages)

    def test_norm_ordering_on_records(self, rng):
        grid = GridSpec(-0.5, 2.5, -1.0, 1.0, 1.0)
        records = sweep(lp(2), grid, [16, 32])
        assert records
        for rec in records:
            assert rec.op_norm_est <= rec.reg_norm_est + 1e-9

    def test_grid_accounting(self):
        grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 1.0)  # 9 points, one pole shadow
        records = sweep(lp(2), grid, [8, 16])
        skipped = sum(1 for lam in grid.points() if abs(lam - 1.0) <= 1e-3 or abs(lam) <= 1e-3)
        assert len(records) == (9 - skipped) * 2
        for rec in records:
            assert rec.in_disk == (abs(rec.lam - 1.0) <= 1.0 + 1e-12)

    def test_ces0_sweep_scans_each_resolvent_once(self, monkeypatch):
        # one scan per resolvent gives the exact norm of |R|: a record's
        # regular norm is bit for bit the exact report of R.modulus(), or the
        # operator norm where larger
        import ceslab.spectra

        grid = GridSpec(-0.5, 2.5, -1.5, 1.5, 0.75)
        scan, scanned = ceslab.spectra._ces0_column_sup, []

        def counting_scan(A):
            scanned.append(A.n)
            return scan(A)

        monkeypatch.setattr(ceslab.spectra, "_ces0_column_sup", counting_scan)
        records = sweep(ces0(), grid, [8, 32], seed=3)
        assert sorted(scanned) == sorted(r.n for r in records)
        for rec in records:
            exact = operator_norm_report(ces0(), resolvent_operator(rec.lam, rec.n).modulus())
            assert exact.method == "majorant" and exact.regular == exact.value
            assert rec.reg_norm_est == max(exact.value, rec.op_norm_est)

    @pytest.mark.parametrize("space", [linf(), c0(), ces0()], ids=str)
    def test_max_norm_sweeps_make_one_pass_per_chunk(self, space, monkeypatch):
        import ceslab.spectra

        monkeypatch.setattr(ceslab.spectra, "_LOCKSTEP_BYTES", 2 * 16 * 16 * 16)
        reports, calls, chunks = ceslab.spectra._norm_reports, [], []
        task = ceslab.spectra._sweep_task

        def counting_reports(*args):
            calls.append(args[1].n)
            return reports(*args)

        def counting_task(space, n, chunk):
            chunks.append(n)
            return task(space, n, chunk)

        monkeypatch.setattr(ceslab.spectra, "_norm_reports", counting_reports)
        monkeypatch.setattr(ceslab.spectra, "_sweep_task", counting_task)
        sweep(space, GridSpec(1.5, 2.5, 0.5, 1.5, 0.5), [8, 16], seed=9)
        assert len(chunks) > 2 and calls == chunks

    def test_one_pole_distance_per_lambda(self, monkeypatch):
        # sweep's pole-shadow test takes each lambda's gamma once, and each
        # resolvent build makes its own pole check: nothing else asks
        import ceslab.resolvent

        calls, nearest = [], ceslab.resolvent.nearest_pole
        monkeypatch.setattr(
            ceslab.resolvent, "nearest_pole", lambda z: calls.append(z) or nearest(z)
        )
        grid = GridSpec(-0.5, 1.0, -0.5, 0.5, 0.5)  # the poles 0, 1/2 and 1 are skipped
        records = sweep(lp(3), grid, [8, 16], seed=1)
        assert len(records) == 2 * (len(grid.points()) - 3)
        assert len(calls) == len(grid.points()) + len(records)
        assert [r.gamma for r in records] == [ceslab.resolvent.gamma(r.lam) for r in records]

    def test_deterministic_given_seed(self):
        grid = GridSpec(1.5, 2.5, 0.5, 1.5, 0.5)
        first = sweep(ces(2), grid, [8, 16], seed=42)
        second = sweep(ces(2), grid, [8, 16], seed=42)
        assert first == second

    # chunks over 9 lambdas whose (k, L, n) iterate block fits 8192 bytes:
    # k = 6 starts in l^p, l-infinity and ces(p), 11 (n = 8) or 13 (n = 16)
    # in ces(0)
    CHUNKS = {
        "lp": [(8, 9), (16, 5), (16, 4)],
        "linf": [(8, 9), (16, 5), (16, 4)],
        "ces": [(8, 9), (16, 5), (16, 4)],
        "ces0": [(8, 5), (8, 4)] + [(16, 2)] * 4 + [(16, 1)],
    }

    @pytest.mark.parametrize("space", [lp(2), lp(3), linf(), ces(2), ces0()], ids=str)
    def test_chunking_does_not_change_results(self, space, monkeypatch):
        import ceslab.spectra

        monkeypatch.setattr(ceslab.spectra, "_LOCKSTEP_BYTES", 2 * 16 * 16 * 16)
        chunks = []
        task = ceslab.spectra._sweep_task

        def counting_task(space, n, chunk):
            chunks.append((n, len(chunk)))
            return task(space, n, chunk)

        monkeypatch.setattr(ceslab.spectra, "_sweep_task", counting_task)
        grid = GridSpec(1.5, 2.5, 0.5, 1.5, 0.5)
        records = sweep(space, grid, [8, 16], seed=9)
        assert chunks == self.CHUNKS[space.kind]

        expected = []
        for i, lam in enumerate(grid.points()):
            for j, n in enumerate([8, 16]):
                seed = 9 + 1000003 * i + j
                report = operator_norm_report(space, resolvent_operator(lam, n), seed)
                expected.append((lam, n, report.value, report.regular))
        assert [(r.lam, r.n) for r in records] == [e[:2] for e in expected]
        for rec, (_, _, op, reg) in zip(records, expected):
            assert rec.op_norm_est == pytest.approx(op, rel=4 * EPS, abs=0)
            assert rec.reg_norm_est == pytest.approx(reg, rel=4 * EPS, abs=0)

    def test_rejects_bad_sizes(self):
        with pytest.raises(InvalidConfigError):
            sweep(lp(2), [2 + 2j], [64, 64])
        with pytest.raises(InvalidConfigError):
            sweep(lp(2), [2 + 2j], [])
        with pytest.raises(InvalidDimensionError, match=r"got \[0, 4\]"):
            sweep(lp(2), [2 + 2j], [0, 4])

    def test_rejects_empty_grid(self):
        with pytest.raises(InvalidConfigError):
            sweep(lp(2), [], [16])

    @pytest.mark.parametrize("space", [lp(2), linf()])
    def test_rejects_a_negative_seed(self, space):
        with pytest.raises(InvalidConfigError, match="got -3"):
            sweep(space, [2 + 1j], [8, 16], seed=-3)
        with pytest.raises(InvalidConfigError, match="got -1"):
            operator_norm_report(space, cesaro_matrix(4), seed=-1)


class TestClassifyGrowth:
    def _records(self, values):
        return [
            SweepRecord(1j, 2**k, 1.0, v, v, False) for k, v in enumerate(values)
        ]

    def test_bounded(self):
        assert classify_growth(self._records([3.0, 3.05])).verdict == "bounded"

    def test_growing(self):
        verdict = classify_growth(self._records([5.0, 12.0, 30.0]))
        assert verdict.verdict == "growing"
        assert verdict.ratios == (2.4, 2.5)

    def test_inconclusive(self):
        assert classify_growth(self._records([5.0, 6.2])).verdict == "inconclusive"

    def test_needs_two_records(self):
        with pytest.raises(UnsupportedParameterError):
            classify_growth(self._records([5.0]))
