"""The exact primitives under the zero polynomial: the falling factorial of
``nodal`` and the rational parsing of beam-splitter settings."""

from fractions import Fraction

import pytest

from homlab.bs_core import BeamSplitterSetting
from homlab.nodal import _falling


class TestFallingFactorial:
    def test_empty_product(self):
        assert _falling(5, 0) == 1
        assert _falling(0, 0) == 1
        assert _falling(-3, 0) == 1

    def test_known_values(self):
        # hand-computed: 5*4*3 = 60, 3*2*1 = 6, 7*6 = 42
        assert _falling(5, 3) == 60
        assert _falling(3, 3) == 6
        assert _falling(7, 2) == 42

    def test_zero_when_q_exceeds_x(self):
        assert _falling(2, 3) == 0
        assert _falling(0, 1) == 0

    def test_negative_x_total(self):
        # (-2)(-3) = 6, (-1)(-2)(-3) = -6
        assert _falling(-2, 2) == 6
        assert _falling(-1, 3) == -6

    def test_rejects_negative_q(self):
        with pytest.raises(ValueError):
            _falling(3, -1)


def test_parse_fraction():
    assert BeamSplitterSetting.parse("1/2").exact_t == Fraction(1, 2)
    assert BeamSplitterSetting.parse(" 3/4 ").exact_t == Fraction(3, 4)
    assert BeamSplitterSetting.parse("0.25").exact_t == Fraction(1, 4)
