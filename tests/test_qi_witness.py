"""Tests for the Gaussian-rational arithmetic of the test-side reference."""

import pytest

from qi_witness import QI, unit_ipow


class TestQI:
    def test_arithmetic(self):
        z = QI(1, 2) * QI(3, -1)
        assert z == QI(5, 5)
        assert QI(5, 5) / QI(1, 2) == QI(3, -1)
        assert QI(0, 1) * QI(0, 1) == QI(-1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QI(1) / QI(0)

    def test_unit_powers(self):
        assert unit_ipow(0) == QI(1)
        assert unit_ipow(1) == QI(0, 1)
        assert unit_ipow(2) == QI(-1)
        assert unit_ipow(3) == QI(0, -1)
        assert unit_ipow(-1) == QI(0, -1)
        assert unit_ipow(7) == unit_ipow(3)
