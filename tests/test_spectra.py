import logging

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
    ces,
    ces0,
    cesaro_matrix,
    classify_growth,
    diag_operator,
    dual_exponent,
    in_spectrum,
    linf,
    lp,
    norm,
    operator_norm_report,
    resolvent_operator,
    spectrum_disk,
    sweep,
)
from ceslab.spectra import (
    ASCENT_RTOL,
    _ascent_starts,
    _lockstep_ascent,
    _norm_reports,
)
from conftest import random_triangular, sample_lambda

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
        est = _lockstep_ascent(lp(2), [C], [_ascent_starts(lp(2), 6, 0, ())])[0][0]
        assert est == pytest.approx(oracle, rel=1e-8)

    def test_ces0_norm_of_averaging_matrix(self):
        value = operator_norm_report(ces0(), cesaro_matrix(40)).value
        assert value == pytest.approx(1.0, rel=1e-12)

    def test_lanczos_branch_matches_svd(self, rng, monkeypatch):
        import ceslab.spectra

        A = random_triangular(rng, 48, blocks=2)
        exact = operator_norm_report(lp(2), A).value
        monkeypatch.setattr(ceslab.spectra, "SVD_CUTOFF", 16)
        report = operator_norm_report(lp(2), A)
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
        monkeypatch.setattr(ceslab.spectra, "SVD_CUTOFF", 16)
        A = random_triangular(rng, 48)
        report = operator_norm_report(lp(2), A)
        assert report.method == "lanczos" and not report.converged
        # the value is the norm ratio at an actual unit vector
        assert np.linalg.norm(report.best_vector) == pytest.approx(1.0)
        assert report.value == pytest.approx(
            np.linalg.norm(A.dense() @ report.best_vector), rel=1e-12
        )
        assert report.value <= svdvals(A.dense())[0] * (1 + 1e-12)

    def test_large_p_report_is_finite_and_below_its_upper_bound(self):
        # the plain 50-norm of R x overflows here; the estimate must not
        space, R = lp(50), resolvent_operator(0.34 + 0.002j, 256)
        report = operator_norm_report(space, R)
        rows, cols = R.abs_row_sums().max(), R.abs_col_sums().max()
        upper = cols ** (1 / 50) * rows ** (1 / dual_exponent(50))
        assert report.upper == pytest.approx(upper, rel=1e-14)
        assert np.isfinite(report.value) and 0 < report.value <= report.upper
        x = report.best_vector
        assert report.value == pytest.approx(norm(space, R.matvec(x)) / norm(space, x), rel=1e-12)

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
            regular = operator_norm_report(space, A.modulus()).value
            assert regular == operator_norm_report(space, A).value

    def test_diagonal_signs_wash_out(self):
        D = diag_operator([-1.0, 1j])
        for space in (lp(2), linf()):
            regular = operator_norm_report(space, D.modulus()).value
            assert regular == pytest.approx(1.0, rel=1e-14)
            assert operator_norm_report(space, D).value == pytest.approx(1.0, rel=1e-14)

    def test_resolvent_regular_at_least_operator(self):
        R = resolvent_operator(-1.0, 64)
        op = operator_norm_report(lp(2), R).value
        reg = operator_norm_report(lp(2), R.modulus()).value
        assert op <= reg + 1e-9


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
        # an escort start for every other operator, so the blocks differ in k
        extra = [
            (np.abs(rng.standard_normal(n)),) if i % 2 == 0 else ()
            for i in range(len(operators))
        ]
        block = _norm_reports(space, operators, seeds, extra)
        single = [
            operator_norm_report(space, A, s, e) for A, s, e in zip(operators, seeds, extra)
        ]
        assert {r.converged for r in single} == {True, False}
        for b, s in zip(block, single):
            assert b.value == pytest.approx(s.value, rel=4 * EPS, abs=0)
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
        starts = [_ascent_starts(space, 20, 0, ()) for _ in operators]
        block = _lockstep_ascent(space, operators, starts)
        assert {converged for *_, converged in block} == {True, False}
        for A, s, (value, vector, converged) in zip(operators, starts, block):
            ref_value, ref_converged = sequential_ascent(space, A, s, max_iter)
            assert value == pytest.approx(ref_value, rel=1e-12)
            assert converged == ref_converged
            ratio = norm(space, A.matvec(vector)) / norm(space, vector)
            assert value == pytest.approx(ratio, rel=1e-12)

    def test_values_are_ratios_at_their_vectors(self, rng):
        operators = [random_triangular(rng, 16, blocks=2) for _ in range(4)]
        for space in (lp(3), ces(2), ces0()):
            reports = _norm_reports(space, operators, range(4), [()] * 4)
            for A, r in zip(operators, reports):
                ratio = norm(space, A.matvec(r.best_vector)) / norm(space, r.best_vector)
                assert r.value == pytest.approx(ratio, rel=1e-12)


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
        first = sweep(ces(2), grid, [8, 16], seed=42)
        second = sweep(ces(2), grid, [8, 16], seed=42)
        assert first == second

    # chunks over 9 lambdas whose (k, L, n) iterate block fits 8192 bytes:
    # k = 6 starts in l^p, l-infinity and ces(p), 13 (n = 8) or 14 (n = 16)
    # in ces(0)
    CHUNKS = {
        "lp": [(8, 9), (16, 5), (16, 4)],
        "linf": [(8, 9), (16, 5), (16, 4)],
        "ces": [(8, 9), (16, 5), (16, 4)],
        "ces0": [(8, 4), (8, 4), (8, 1)] + [(16, 2)] * 4 + [(16, 1)],
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
                R = resolvent_operator(lam, n)
                op = operator_norm_report(space, R, seed)
                escort = () if op.best_vector is None else (np.abs(op.best_vector),)
                reg = operator_norm_report(space, R.modulus(), seed, escort)
                expected.append((lam, n, op.value, reg.value))
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
