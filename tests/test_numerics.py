import math

import numpy as np
import pytest

from spherepack.errors import ConvergenceError, DomainError
from spherepack.numerics import ROOT_XTOL, matrix_game, monotone_root

from .conftest import game_value_lp


def assert_tight_bracket(x: float, bracket: tuple[float, float]) -> None:
    a, b = bracket
    assert a <= x <= b
    eps = np.finfo(float).eps
    assert b - a <= ROOT_XTOL * max(1.0, abs(x)) + 4 * eps * abs(x)


class TestMonotoneRoot:
    def test_increasing(self):
        x, bracket = monotone_root(lambda v: v**3 - 2.0 * v - 5.0, 2.0, 3.0)
        assert x == pytest.approx(2.0945514815423265, abs=1e-14)
        assert_tight_bracket(x, bracket)

    def test_decreasing(self):
        x, bracket = monotone_root(lambda v: math.exp(-v) - v, 0.0, 1.0)
        assert x == pytest.approx(0.5671432904097838, abs=1e-15)
        assert_tight_bracket(x, bracket)

    def test_large_root_on_wide_bracket(self):
        x, bracket = monotone_root(lambda v: math.log(v / 3.0e6), 1.0, 1.0e9)
        assert x == pytest.approx(3.0e6, rel=1e-14)
        assert_tight_bracket(x, bracket)

    @pytest.mark.parametrize("lo, hi", [(1.0, 2.0), (0.0, 1.0)])
    def test_exact_root_at_endpoint(self, lo, hi):
        x, bracket = monotone_root(lambda v: v - 1.0, lo, hi)
        assert x == 1.0
        assert bracket == (1.0, 1.0)

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (1.0, 0.0), (3.0, 4.0)])
    def test_no_sign_change_raises(self, lo, hi):
        with pytest.raises(ConvergenceError, match="straddle"):
            monotone_root(lambda v: v + 1.0, lo, hi)

    @pytest.mark.parametrize("nan_at", [0.0, 1.0])
    def test_nan_end_value_raises(self, nan_at):
        with pytest.raises(ConvergenceError, match="straddle"):
            monotone_root(lambda v: float("nan") if v == nan_at else v - 0.5, 0.0, 1.0)

    def test_nan_inside_bracket_raises(self):
        with pytest.raises(ConvergenceError, match="NaN"):
            monotone_root(lambda v: float("nan") if 0.0 < v < 1.0 else v - 0.5, 0.0, 1.0)


class TestMatrixGame:
    @pytest.mark.parametrize(
        "a, value",
        [
            (np.eye(3), 1.0 / 3.0),
            ([[3.0, 1.0], [1.0, 2.0]], 5.0 / 3.0),
            ([[1.0, 2.0, 0.0], [0.0, 1.0, 2.0], [2.0, 0.0, 1.0]], 1.0),  # rock-paper-scissors + 1
            ([[1.0, 1.0], [1.0, 1.0]], 1.0),
            ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 1.0]], 0.5),
            ([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]], 0.5),
        ],
    )
    def test_known_values(self, a, value):
        a = np.asarray(a, dtype=float)
        v, p, q = matrix_game(a)
        assert v == pytest.approx(value, rel=1e-14)
        assert p.min() >= 0.0 and q.min() >= 0.0
        assert p.sum() == pytest.approx(1.0, abs=1e-15) and q.sum() == pytest.approx(1.0, abs=1e-15)
        assert (p @ a).max() == pytest.approx(value, rel=1e-14)
        assert (a @ q).min() == pytest.approx(value, rel=1e-14)

    def test_strategies_certify_the_value_on_random_games(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            m, n = (int(k) for k in rng.integers(1, 9, size=2))
            a = np.where(rng.random((m, n)) < 0.5, rng.random((m, n)), 0.0)
            if rng.random() < 0.5:
                a = (a > 0).astype(float)
            a[np.arange(m), rng.integers(0, n, m)] = 1.0
            v, p, q = matrix_game(a)
            assert (p @ a).max() <= v * (1 + 1e-13)
            assert (a @ q).min() >= v * (1 - 1e-13)
            assert v == pytest.approx(game_value_lp(a), rel=1e-12)

    @pytest.mark.parametrize("a", [[[1.0, -0.1], [0.5, 0.5]], [[1.0, 0.0], [0.0, 0.0]], np.zeros((0, 2))])
    def test_rejects_payoffs_without_a_positive_value(self, a):
        with pytest.raises(DomainError):
            matrix_game(np.asarray(a, dtype=float))
