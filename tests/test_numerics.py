from fractions import Fraction

import pytest

from homlab.numerics import binomial, falling_factorial, parse_fraction


class TestFallingFactorial:
    def test_empty_product(self):
        assert falling_factorial(5, 0) == 1
        assert falling_factorial(0, 0) == 1
        assert falling_factorial(-3, 0) == 1

    def test_known_values(self):
        # hand-computed: 5*4*3 = 60, 3*2*1 = 6, 7*6 = 42
        assert falling_factorial(5, 3) == 60
        assert falling_factorial(3, 3) == 6
        assert falling_factorial(7, 2) == 42

    def test_zero_when_q_exceeds_x(self):
        assert falling_factorial(2, 3) == 0
        assert falling_factorial(0, 1) == 0

    def test_negative_x_total(self):
        # (-2)(-3) = 6, (-1)(-2)(-3) = -6
        assert falling_factorial(-2, 2) == 6
        assert falling_factorial(-1, 3) == -6

    def test_rejects_negative_q(self):
        with pytest.raises(ValueError):
            falling_factorial(3, -1)


class TestBinomial:
    def test_known(self):
        assert binomial(5, 2) == 10
        assert binomial(6, 3) == 20

    def test_out_of_range_is_zero(self):
        assert binomial(3, -1) == 0
        assert binomial(3, 4) == 0

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)


def test_parse_fraction():
    assert parse_fraction("1/2") == Fraction(1, 2)
    assert parse_fraction(" 3/4 ") == Fraction(3, 4)
    assert parse_fraction("0.25") == Fraction(1, 4)
