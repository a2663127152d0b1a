import math

import numpy as np
import pytest

from spherepack.errors import ConvergenceError, DomainError
from spherepack.numerics import ROOT_XTOL, log_path, matrix_game, monotone_root, tilt

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


def tilt_longdouble(logb: np.ndarray, t: np.ndarray, lam: float) -> list[tuple]:
    """Row by row, on the support only: (log Z, law, mean, var, m3) in long double."""
    out = []
    for lb, tr in zip(logb, t):
        on = lb > -np.inf
        tt = tr[on].astype(np.longdouble)
        logits = lb[on].astype(np.longdouble) + np.longdouble(lam) * tt
        top = logits.max()
        z = np.exp(logits - top)
        law = z / z.sum()
        mean = law @ tt
        cen = np.abs(tt - mean)
        full = np.zeros(lb.size, dtype=np.longdouble)
        full[on] = law
        out.append((top + np.log(z.sum()), full, mean, law @ cen**2, law @ cen**3))
    return out


class TestTilt:
    LAMS = [-1e6, 1e6, 0.0] + [float(v) for v in np.random.default_rng(11).uniform(-50.0, 50.0, 12)]

    @staticmethod
    def ragged_rows(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Log-masses of rows of 2..6 outcomes padded to 6, some with an exact
        zero inside, then a one-atom row; and a statistic on the same grid,
        NaN off the supports."""
        rows, n = [], 6
        for k in rng.integers(2, n + 1, size=5):
            b = np.zeros(n)
            b[:k] = rng.dirichlet(np.ones(k) * 0.7)
            if k > 2:
                b[rng.integers(0, k)] = 0.0  # an exact zero inside the row
            rows.append(b)
        atom = np.zeros(n)
        atom[rng.integers(0, n)] = 1.0
        rows.append(atom)
        base = np.array(rows)
        stat = rng.standard_normal(base.shape) * rng.uniform(0.1, 5.0)
        stat[base == 0] = np.nan  # the kernel must not read t off the support
        return np.log(base, out=np.full(base.shape, -np.inf), where=base > 0), stat

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_long_double_evaluation(self, seed):
        rng = np.random.default_rng(seed)
        logb, stat = self.ragged_rows(rng)
        for lam in self.LAMS:
            got = tilt(logb, stat, lam)
            eps = np.finfo(float).eps
            for i, (log_z, law, mean, var, m3) in enumerate(tilt_longdouble(logb, stat, lam)):
                on = logb[i] > -np.inf
                # rounding of the exponents: eps times their magnitude, then
                # one factor |t| per power of t in the moment
                scale = 64 * eps * (1.0 + np.abs(logb[i][on]).max() + abs(lam) * np.abs(stat[i][on]).max())
                tmax = 1.0 + np.abs(stat[i][on]).max()
                assert abs(got.log_norm[i] - float(log_z)) <= scale
                assert np.abs(got.law[i] - law.astype(float)).max() <= scale
                assert np.all(got.law[i][~on] == 0.0)
                assert abs(got.mean[i] - float(mean)) <= scale * tmax
                assert abs(got.var[i] - float(var)) <= scale * tmax**2
                assert abs(got.m3[i] - float(m3)) <= scale * tmax**3
            atom = logb.shape[0] - 1
            assert got.law[atom].max() == 1.0
            assert got.mean[atom] == stat[atom][logb[atom] > -np.inf][0]
            assert got.var[atom] == 0.0 and got.m3[atom] == 0.0

    def test_one_row_input_and_unnormalized_base(self):
        got = tilt(np.log([2.0, 6.0]), np.array([0.0, 1.0]), np.log(1.0 / 3.0))
        assert got.law.shape == (1, 2)
        assert got.law[0] == pytest.approx([0.5, 0.5], abs=1e-15)
        assert got.log_norm[0] == pytest.approx(np.log(4.0), abs=1e-15)
        assert got.mean[0] == pytest.approx(0.5, abs=1e-15)
        assert got.var[0] == pytest.approx(0.25, abs=1e-15)
        assert got.m3[0] == pytest.approx(0.125, abs=1e-15)

    def test_log_path_is_zero_and_minus_inf_off_the_mask(self):
        base = np.array([[0.5, 0.5, 0.0], [0.0, 0.25, 0.75]])
        other = np.array([0.2, 0.0, 0.8])
        on = (base > 0) & (other > 0)
        logb, t = log_path(base, other, on)
        assert np.all(logb[~on] == -np.inf) and np.all(t[~on] == 0.0)
        assert logb[on] == pytest.approx(np.log(base[on]), abs=0)
        assert t[on] == pytest.approx(np.log(np.broadcast_to(other, base.shape)[on] / base[on]), abs=1e-15)


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
