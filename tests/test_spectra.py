import logging

import numpy as np
import pytest
from scipy.linalg import svdvals

from ceslab import (
    GridSpec,
    InvalidConfigError,
    NormOptions,
    SweepRecord,
    UnsupportedParameterError,
    apply,
    ces,
    ces0,
    cesaro_matrix,
    classify_growth,
    dual_exponent,
    in_spectrum,
    linf,
    lp,
    modulus,
    norm,
    operator_norm_estimate,
    operator_norm_report,
    regular_norm_estimate,
    resolvent_operator,
    spectrum_disk,
    sweep,
)
from conftest import random_triangular, sample_lambda


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
        value = operator_norm_estimate(linf(), cesaro_matrix(50))
        assert value == pytest.approx(1.0, rel=1e-14)

    def test_l2_matches_svd_oracle_two_by_two(self):
        C = cesaro_matrix(2)
        oracle = svdvals(C.dense())[0]
        assert operator_norm_estimate(lp(2), C) == pytest.approx(oracle, rel=1e-14)

    def test_l2_sections_increase_below_two(self):
        values = [operator_norm_estimate(lp(2), cesaro_matrix(n)) for n in (16, 64, 256)]
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
        from ceslab.spectra import _ascent_lp

        C = cesaro_matrix(6)
        oracle = svdvals(C.dense())[0]
        est = _ascent_lp(C, 2.0, NormOptions(), ()).value
        assert est == pytest.approx(oracle, rel=1e-8)

    def test_ces0_norm_of_averaging_matrix(self):
        value = operator_norm_estimate(ces0(), cesaro_matrix(40))
        assert value == pytest.approx(1.0, rel=1e-12)

    def test_lanczos_branch_matches_svd(self, rng):
        A = random_triangular(rng, 48)
        exact = operator_norm_estimate(lp(2), A)
        report = operator_norm_report(lp(2), A, NormOptions(svd_cutoff=16))
        assert report.method == "lanczos"
        assert report.converged
        assert report.value == pytest.approx(exact, rel=1e-12)
        assert report.value <= report.upper * (1 + 1e-12)
        ratio = np.linalg.norm(A.dense() @ report.best_vector)
        assert ratio == pytest.approx(report.value, rel=1e-12)

    def test_lanczos_without_convergence_is_reported(self, rng, monkeypatch):
        from scipy.sparse.linalg import ArpackNoConvergence

        import ceslab.spectra

        def fail(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((48, 0)))

        monkeypatch.setattr(ceslab.spectra, "svds", fail)
        A = random_triangular(rng, 48)
        report = operator_norm_report(lp(2), A, NormOptions(svd_cutoff=16))
        assert report.method == "lanczos" and not report.converged
        # the value is the norm ratio at an actual unit vector
        assert np.linalg.norm(report.best_vector) == pytest.approx(1.0)
        assert report.value == pytest.approx(
            np.linalg.norm(A.dense() @ report.best_vector), rel=1e-12
        )
        assert report.value <= svdvals(A.dense())[0] * (1 + 1e-12)

    def test_ces_norm_bounded_by_hardy_constant(self):
        value = operator_norm_estimate(ces(2), cesaro_matrix(64))
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
        A = random_triangular(rng, 20, real=True)
        A = modulus(A)  # force positivity
        for space in (lp(2), lp(3), linf(), ces(2), ces0()):
            assert regular_norm_estimate(space, A) == operator_norm_estimate(space, A)

    def test_diagonal_signs_wash_out(self):
        from ceslab import LowerTriangularMatrix

        D = LowerTriangularMatrix.diagonal([-1.0, 1j])
        for space in (lp(2), linf()):
            assert regular_norm_estimate(space, D) == pytest.approx(1.0, rel=1e-14)
            assert operator_norm_estimate(space, D) == pytest.approx(1.0, rel=1e-14)

    def test_resolvent_regular_at_least_operator(self):
        R = resolvent_operator(-1.0, 64)
        op = operator_norm_estimate(lp(2), R)
        reg = regular_norm_estimate(lp(2), R)
        assert op <= reg + 1e-9


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

    def test_deterministic_given_seed(self):
        grid = GridSpec(1.5, 2.5, 0.5, 1.5, 0.5)
        first = sweep(ces(2), grid, [8, 16], NormOptions(seed=42))
        second = sweep(ces(2), grid, [8, 16], NormOptions(seed=42))
        assert first == second

    def test_worker_count_does_not_change_results(self, monkeypatch):
        grid = GridSpec(1.5, 2.5, 0.5, 1.5, 0.5)
        pooled = sweep(lp(3), grid, [8, 16], NormOptions(seed=9))
        monkeypatch.setenv("CESLAB_THREADS", "1")
        serial = sweep(lp(3), grid, [8, 16], NormOptions(seed=9))
        assert pooled == serial

    def test_rejects_bad_sizes(self):
        with pytest.raises(InvalidConfigError):
            sweep(lp(2), [2 + 2j], [64, 64])
        with pytest.raises(InvalidConfigError):
            sweep(lp(2), [2 + 2j], [])

    def test_rejects_empty_grid(self):
        with pytest.raises(InvalidConfigError):
            sweep(lp(2), [], [16])


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
