import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ceslab import (
    InvalidConfigError,
    Space,
    UnsupportedExponentError,
    apply,
    c0,
    ces,
    ces0,
    cesaro_matrix,
    dual_exponent,
    linf,
    lp,
    norm,
    parse_space,
)
from ceslab.spaces import _norming_functionals, _norms
from conftest import random_vector

ALL_SPACES = [lp(1.2), lp(2), lp(3), linf(), c0(), ces(1.5), ces(2), ces0()]


class TestDualExponent:
    def test_self_dual(self):
        assert dual_exponent(2) == 2.0

    def test_infinity(self):
        assert dual_exponent(math.inf) == 1.0

    def test_three_halves(self):
        assert dual_exponent(1.5) == 3.0

    @pytest.mark.parametrize("p", [1.0, 0.5, -2.0, 1.0 + 1e-9])
    def test_rejects_bad_exponents(self, p):
        with pytest.raises(UnsupportedExponentError):
            dual_exponent(p)

    def test_conjugacy(self):
        for p in (1.25, 1.5, 2.0, 3.0, 10.0):
            q = dual_exponent(p)
            assert 1 / p + 1 / q == pytest.approx(1.0, abs=1e-15)


class TestSpaceFactories:
    def test_lp_infinity_collapses_to_linf(self):
        assert lp(math.inf) == linf()

    def test_ces_rejects_infinity(self):
        with pytest.raises(UnsupportedExponentError):
            ces(math.inf)

    @pytest.mark.parametrize("text,space", [
        ("lp:2", lp(2)),
        ("Lp:1.5", lp(1.5)),
        ("linf", linf()),
        ("c0", c0()),
        ("ces:2", ces(2)),
        ("ces0", ces0()),
    ])
    def test_parse_round_trip(self, text, space):
        assert parse_space(text) == space

    def test_parse_rejects_garbage(self):
        with pytest.raises(InvalidConfigError):
            parse_space("banach")

    @pytest.mark.parametrize("kind, p, error, message", [
        ("foo", None, InvalidConfigError, "no space 'foo' with exponent None"),
        ("LP", 2.0, InvalidConfigError, "no space 'LP' with exponent 2.0"),
        ("lp", 1.0, UnsupportedExponentError, "got 1.0"),
        ("lp", 1.0 + 1e-9, UnsupportedExponentError, "too close to 1"),
        ("lp", None, TypeError, "NoneType"),
        ("lp", math.inf, UnsupportedExponentError, "lp(p) requires finite p"),
        ("ces", math.inf, UnsupportedExponentError, "ces(p) requires finite p"),
        ("ces", math.nan, UnsupportedExponentError, "got nan"),
        ("linf", 2.0, InvalidConfigError, "no space 'linf' with exponent 2.0"),
        ("ces0", 2, InvalidConfigError, "no space 'ces0' with exponent 2"),
    ])
    def test_space_refuses_a_bad_kind_or_exponent(self, kind, p, error, message):
        with pytest.raises(error, match=re.escape(message)):
            Space(kind, p)

    @pytest.mark.parametrize("space, exponent", [
        (lp(3), 3.0), (ces(1.5), 1.5), (linf(), math.inf), (c0(), math.inf), (ces0(), math.inf),
    ])
    def test_exponent(self, space, exponent):
        assert space.exponent == exponent
        assert Space(space.kind, space.p) == space

    @pytest.mark.parametrize("space, label", [
        (lp(2), "lp(2)"), (lp(1.5), "lp(1.5)"), (ces(3), "ces(3)"), (lp(50), "lp(50)"),
        (linf(), "linf"), (ces0(), "ces0"),
        (lp(1.000001), "lp(1.000001)"), (lp(2.0000001), "lp(2.0000001)"),
        (ces(1234567.0), "ces(1234567.0)"), (lp(1 / 3 + 2), "lp(2.3333333333333335)"),
    ])
    def test_label_keeps_the_exponent(self, space, label):
        # two spaces never share a label: its exponent reads back as p
        assert space.label() == str(space) == label
        if space.p is not None:
            assert float(label[label.index("(") + 1 : -1]) == space.p


class TestNormValues:
    def test_euclidean(self):
        assert norm(lp(2), [3.0, 4.0]) == 5.0

    def test_ces_two_constant(self):
        assert norm(ces(2), [1.0, 1.0]) == pytest.approx(math.sqrt(2), rel=1e-15)

    def test_ces0_spike(self):
        # averages of (2, 0, 0) are (2, 1, 2/3)
        assert norm(ces0(), [2.0, 0.0, 0.0]) == 2.0

    def test_max_norms_agree(self, rng):
        x = random_vector(rng, 17)
        assert norm(linf(), x) == norm(c0(), x) == np.abs(x).max()

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            norm(lp(2), [1.0, np.nan])

    def test_empty_vector(self):
        assert norm(lp(2), []) == 0.0

    @pytest.mark.parametrize("space", ALL_SPACES + [lp(50), ces(50), lp(400)])
    def test_stacked_rows_match_the_public_norm_bitwise(self, space, rng):
        # a (k, L, n) stack whose rows span scales where the plain p-norm
        # overflows or underflows, plus a zero row
        k, L, n = 3, 4, 9
        scales = 10.0 ** rng.uniform(-300, 300, size=(k, L, 1))
        stack = np.stack([random_vector(rng, n) for _ in range(k * L)]).reshape(k, L, n)
        stack *= scales
        stack[0, 0] = 0.0
        values, averages = _norms(space, stack)
        assert values.shape == (k, L)
        assert (averages is None) == (space.kind in ("lp", "linf", "c0"))
        for j in range(k):
            for i in range(L):
                assert values[j, i] == norm(space, stack[j, i])
        assert np.all(np.isfinite(values)) and np.all(values[stack.any(axis=-1)] > 0)

    @pytest.mark.parametrize("space, x, expected", [
        (lp(50), [1e7] * 4, 1e7 * 4 ** (1 / 50)),
        (ces(50), [1e7] * 4, 1e7 * 4 ** (1 / 50)),
        (lp(400), [0.1] * 4, 0.1 * 4 ** (1 / 400)),
        (lp(2), [3e200, 4e200], 5e200),
        (lp(2), [3e-200, 4e-200], 5e-200),
        # finite averages whose running sum overflows
        (ces(2), [1e308, 1e308], math.sqrt(2) * 1e308),
        (ces0(), [1e308, 1e308], 1e308),
    ])
    def test_large_p_neither_overflows_nor_underflows(self, space, x, expected):
        assert norm(space, x) == pytest.approx(expected, rel=1e-14)


class TestNormCalculus:
    @pytest.mark.parametrize("space, power", [
        (lp(1.5), 1.5),
        (lp(3), 3.0),
        (ces(1.5), 1.0),
        (ces(2), 1.0),
        (ces(3.5), 1.0),
        (ces0(), 1.0),
    ], ids=str)
    def test_norming_functional_pairs_to_the_norm(self, space, power, rng):
        # sum(conj(g) y) is ||y||^p in lp(p) and ||y|| in the ces spaces
        k, L, n = 3, 4, 17
        y = rng.standard_normal((k, L, n)) + 1j * rng.standard_normal((k, L, n))
        y[1, 2, 5:] = 0.0
        y[2, 1] = 0.0
        values, averages = _norms(space, y)
        g = _norming_functionals(space, y, values, averages)
        assert g.shape == y.shape
        assert np.all(g[2, 1] == 0.0)
        pairing = np.sum(np.conj(g) * y, axis=-1)
        np.testing.assert_allclose(pairing, values**power, rtol=1e-12, atol=0)


class TestLatticeNorm:
    @pytest.mark.parametrize("space", ALL_SPACES)
    def test_norm_of_modulus_equal(self, space, rng):
        x = random_vector(rng, 23)
        assert norm(space, x) == pytest.approx(norm(space, np.abs(x)), rel=1e-15)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_monotone_under_domination(self, seed):
        r = np.random.default_rng(seed)
        y = random_vector(r, 12)
        x = y * r.uniform(0.0, 1.0, size=12)  # |x| <= |y| coordinatewise
        for space in ALL_SPACES:
            assert norm(space, x) <= norm(space, y) * (1 + 1e-12)


class TestTruncationMonotonicity:
    @pytest.mark.parametrize("space", [lp(1.2), lp(2), linf(), c0(), ces0()])
    def test_appending_zeros_keeps_norm(self, space, rng):
        x = random_vector(rng, 11)
        padded = np.concatenate([x, np.zeros(4, dtype=complex)])
        assert norm(space, padded) == norm(space, x)

    def test_appending_zeros_never_decreases_ces_p(self, rng):
        # the averaging norm keeps summing outer terms past the support,
        # so zero-padding can only grow it (toward the infinite-sequence value)
        x = random_vector(rng, 11)
        padded = np.concatenate([x, np.zeros(4, dtype=complex)])
        assert norm(ces(2), padded) >= norm(ces(2), x)

    @pytest.mark.parametrize("space", ALL_SPACES)
    def test_appending_mass_never_decreases(self, space, rng):
        x = random_vector(rng, 11)
        extended = np.concatenate([x, random_vector(rng, 3)])
        assert norm(space, extended) >= norm(space, x) * (1 - 1e-12)


class TestCesConsistency:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("n", [5, 64, 256])
    def test_matches_matrix_route(self, p, n, rng):
        x = random_vector(rng, n)
        via_matrix = norm(lp(p), apply(cesaro_matrix(n), np.abs(x)))
        assert norm(ces(p), x) == pytest.approx(via_matrix, rel=1e-14)

    def test_ces0_matches_matrix_route(self, rng):
        n = 100
        x = random_vector(rng, n)
        averaged = apply(cesaro_matrix(n), np.abs(x)).real
        assert norm(ces0(), x) == pytest.approx(averaged.max(), rel=1e-14)
