import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindqc import angles
import oracles

PI = math.pi


class TestPrecisionBits:
    def test_reference_values(self):
        assert angles.precision_bits(PI / 8) == 3
        assert angles.precision_bits(1e-2) == 9
        assert angles.precision_bits(PI / 2) == 1

    def test_bound_holds(self):
        for eps in (1e-1, 1e-2, 1e-4, 1e-6, PI / 2, PI / 1024):
            m = angles.precision_bits(eps)
            assert PI / 2**m <= eps * (1 + 1e-9)
            assert m == 1 or PI / 2 ** (m - 1) > eps

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            angles.precision_bits(0.0)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, epsilon):
        with pytest.raises(ValueError, match="positive and finite"):
            angles.precision_bits(epsilon)

    def test_rejects_epsilon_whose_ratio_overflows(self):
        with pytest.raises(ValueError, match="too small"):
            angles.precision_bits(5e-324)


class TestFloorExtractor:
    def test_reference_digits_for_one_radian(self):
        d = angles.digitize(1.0, 9)
        assert d.half_turns == 0
        assert d.digits == (0, 1, 0, 1, 0, 0, 0, 1, 0)
        assert oracles.reconstruct(d) == pytest.approx(81 * PI / 256)
        err = abs(1.0 - oracles.reconstruct(d))
        assert err == pytest.approx(1.0 - 81 * PI / 256, abs=1e-12)
        assert err <= PI / 2**9

    def test_digits_are_bits(self):
        for theta in (-7.3, -0.1, 0.0, 2.6, 11.0):
            d = angles.digitize(theta, 12)
            assert set(d.digits) <= {0, 1}
            assert oracles.nonzero_flags(d) == d.digits
            assert oracles.negative_flags(d) == (0,) * 12

    def test_negative_angle_uses_negative_half_turns(self):
        d = angles.digitize(-PI / 2, 3)
        assert d.half_turns == -1
        assert oracles.reconstruct(d) == pytest.approx(-PI / 2)
        assert d.parity == 1


class TestBalancedExtractor:
    def test_signed_digits(self):
        d = angles.digitize(1.0, 9, extractor="balanced")
        assert set(d.digits) <= {-1, 0, 1}
        assert abs(1.0 - oracles.reconstruct(d)) <= PI / 2**9

    def test_flags_split_sign_and_magnitude(self):
        d = angles.AngleDigits(0.0, 3, 0, (1, -1, 0))
        assert oracles.nonzero_flags(d) == (1, 1, 0)
        assert oracles.negative_flags(d) == (0, 1, 0)

    def test_unknown_extractor(self):
        with pytest.raises(ValueError):
            angles.digitize(1.0, 4, extractor="stochastic")


@settings(max_examples=300)
@given(
    theta=st.floats(min_value=-4 * PI, max_value=4 * PI),
    n=st.integers(min_value=1, max_value=20),
    extractor=st.sampled_from(["floor", "balanced"]),
)
def test_remainder_bound(theta, n, extractor):
    d = angles.digitize(theta, n, extractor)
    assert abs(oracles.remainder(d)) <= PI / 2**n + 1e-12


@settings(max_examples=300)
@given(
    theta=st.floats(min_value=-4 * PI, max_value=4 * PI),
    n=st.integers(min_value=1, max_value=20),
    extractor=st.sampled_from(["floor", "balanced"]),
)
def test_rotation_plus_impurity_is_digit_independent(theta, n, extractor):
    d = angles.digitize(theta, n, extractor)
    total = oracles.reconstruct(d) + oracles.impurity(d)
    assert total == pytest.approx(oracles.delegation_angle(d.half_turns, n), abs=1e-12)
    # the digit-free part alone is pi - pi/2^n
    assert total - d.half_turns * PI == pytest.approx(PI - PI / 2**n, abs=1e-12)


class TestImpurity:
    def test_reference_values(self):
        d = angles.AngleDigits(PI / 2, 3, 0, (1, 0, 0))
        assert oracles.impurity(d) == pytest.approx(3 * PI / 8)
        assert oracles.reconstruct(d) + oracles.impurity(d) == pytest.approx(7 * PI / 8)

    def test_delegation_angle_values(self):
        assert oracles.delegation_angle(1, 3) == pytest.approx(PI + 7 * PI / 8)
        assert oracles.delegation_angle(0, 9) == pytest.approx(PI - PI / 512)

    def test_all_ones_has_zero_impurity(self):
        d = angles.AngleDigits(0.0, 4, 0, (1, 1, 1, 1))
        assert oracles.impurity(d) == 0.0


def test_digit_container_validation():
    with pytest.raises(ValueError):
        angles.AngleDigits(0.0, 2, 0, (0, 2))
    with pytest.raises(ValueError):
        angles.AngleDigits(0.0, 2, 0, (0,))
    with pytest.raises(ValueError):
        angles.digitize(1.0, 0)
