"""Small deterministic numeric kernels shared across modules.

Everything here is dependency-light and purely functional: the log-domain
exponential tilt of finite laws (`tilt`, the one place that exponentiates
and normalizes a log-linear combination), golden-section maximization on a
bracket, a bracketed Brent-Dekker root finder for monotone functions,
simplex grids, a coordinate-ascent refiner over the probability simplex,
and an exact simplex-method solve of small matrix games.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable

import numpy as np

from .errors import ConvergenceError, DomainError

INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0  # 1/phi
INV_PHI2 = (3.0 - np.sqrt(5.0)) / 2.0  # 1/phi^2
ROOT_XTOL = 1e-14  # relative width of the final root bracket
ROOT_MAX_ITER = 500
GOLDEN_MAX_ITER = 500
_EPS = float(np.finfo(float).eps)
GAME_PIVOT_TOL = 1e-12  # tableau entries this close to 0 count as 0


@dataclass(frozen=True)
class Tilted:
    """Per-row results of one exponential tilt (see `tilt`).

    law[i] is row i's tilted law (exactly 0 off its support); log_norm,
    mean, var and m3 are per-row arrays: log Z, and the tilted mean,
    variance and third absolute central moment of the statistic.
    """

    log_norm: np.ndarray
    law: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    m3: np.ndarray


def tilt(logb: np.ndarray, t: np.ndarray, lam: float) -> Tilted:
    """Exponential tilt of finite laws by a statistic, in the log domain.

    logb is a (rows, outcomes) array of base log-masses, -inf off each
    row's support (which must be non-empty), and t the statistic on the
    same grid (its entries off the support are ignored). Row i's tilted law
    is proportional to exp(logb[i] + lam t[i]) and its log-normalizer is
    log Z_i = log sum exp(logb[i] + lam t[i]) for any finite real lam; a
    1-d logb is one row. The base need not be normalized. Pure numpy, one
    vectorized pass, and no floating-point warning: every exponent is
    shifted by its row maximum, and off-support entries are masked before
    they meet lam.
    """
    logb = np.atleast_2d(logb)
    on = logb > -np.inf
    ts = np.where(on, np.atleast_2d(t), 0.0)
    logits = logb + lam * ts
    top = logits.max(axis=1)
    z = np.exp(logits - top[:, None])
    s = z.sum(axis=1)
    law = z / s[:, None]
    mean = (law * ts).sum(axis=1)
    cen = np.abs(ts - mean[:, None])
    var = (law * cen**2).sum(axis=1)
    return Tilted(top + np.log(s), law, mean, var, (law * cen**3).sum(axis=1))


def log_path(base: np.ndarray, other: np.ndarray, on: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The `tilt` inputs (log base, log(other / base)) of the geometric path
    base^(1-lam) other^lam, restricted to the mask `on` (-inf and 0 off it).

    base and other broadcast to on.shape and are positive wherever on is set.
    """
    logb = np.log(base, out=np.zeros(on.shape), where=on)
    t = np.log(other, out=np.zeros(on.shape), where=on) - logb
    logb[~on] = -np.inf
    return logb, t


def golden_max(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    width: float = 1e-10,
) -> tuple[float, float, tuple[float, float]]:
    """Maximize a unimodal f on [lo, hi] by golden-section search.

    Returns (x_star, f(x_star), final_bracket). Deterministic; shrinks the
    bracket below `width` (or exhausts GOLDEN_MAX_ITER, which for sane
    brackets never happens before the width stop).
    """
    a, b = float(lo), float(hi)
    h = b - a
    if h <= width:
        x = 0.5 * (a + b)
        return x, f(x), (a, b)
    c = a + INV_PHI2 * h
    d = a + INV_PHI * h
    fc, fd = f(c), f(d)
    for _ in range(GOLDEN_MAX_ITER):
        if h <= width:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + INV_PHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + INV_PHI * h
            fd = f(d)
    if fc >= fd:
        x, fx = c, fc
    else:
        x, fx = d, fd
    return x, fx, (a, b)


def monotone_root(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, tuple[float, float]]:
    """Root of a monotone f on [lo, hi] by the Brent-Dekker method.

    f(lo) and f(hi) must have opposite signs or be zero; f may increase or
    decrease. Each step takes an inverse quadratic or secant interpolation
    step when it stays well inside the bracket and shrinks fast enough, and
    bisects otherwise (Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4). Returns (x, bracket): the bracket contains x
    and a sign change of f and is at most ROOT_XTOL * max(1, |x|) +
    4 * eps * |x| wide; it is (x, x) when f(x) is exactly 0. A bracket
    without a sign change, a NaN value of f, or a run past ROOT_MAX_ITER
    raises ConvergenceError.
    """
    b, c = float(lo), float(hi)
    fb, fc = f(b), f(c)
    if not (fb <= 0.0 <= fc or fc <= 0.0 <= fb):
        raise ConvergenceError(f"root bracket does not straddle a sign change: f({b})={fb}, f({c})={fc}")
    # b is the best estimate, c the other end of the bracket, a the previous b
    a, fa = c, fc
    step = prev_step = b - c
    for _ in range(ROOT_MAX_ITER):
        if abs(fc) < abs(fb):
            a, fa = b, fb
            b, fb, c, fc = c, fc, b, fb
        tol = 2.0 * _EPS * abs(b) + 0.5 * ROOT_XTOL * max(1.0, abs(b))
        half = 0.5 * (c - b)
        if fb == 0.0:
            return b, (b, b)
        if abs(half) <= tol:
            return b, (min(b, c), max(b, c))
        if abs(prev_step) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                num, den = 2.0 * half * s, 1.0 - s
            else:
                qa, rb = fa / fc, fb / fc
                num = s * (2.0 * half * qa * (qa - rb) - (b - a) * (rb - 1.0))
                den = (qa - 1.0) * (rb - 1.0) * (s - 1.0)
            if num > 0.0:
                den = -den
            num = abs(num)
            if 2.0 * num < min(3.0 * half * den - abs(tol * den), abs(prev_step * den)):
                prev_step, step = step, num / den
            else:
                prev_step = step = half
        else:
            prev_step = step = half
        a, fa = b, fb
        b += step if abs(step) > tol else (tol if half > 0.0 else -tol)
        fb = f(b)
        if fb != fb:
            raise ConvergenceError(f"root finder met f({b}) = NaN")
        if (fb > 0.0) == (fc > 0.0) and fb != 0.0 and fc != 0.0:
            c, fc = a, fa
            step = prev_step = b - a
    raise ConvergenceError(f"root finder did not converge in {ROOT_MAX_ITER} steps; bracket ({b}, {c})")


def matrix_game(a: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Value and optimal mixed strategies of the zero-sum game a[x, y] >= 0.

    The row player picks x and pays a[x, y] to the column player, who picks
    y: value = min_p max_y (p^T a)_y = max_q min_x (a q)_x. Every row needs a
    positive entry, so the value is positive. The game is solved as the
    linear program max 1^T z s.t. a^T z <= 1, z >= 0, whose optimum is
    1 / value, with p = value * z and q = value * u for the optimal dual u
    (the reduced costs of the slack columns). The dense tableau starts at
    the slack basis, so no phase one is needed, and Bland's smallest-index
    rule keeps degenerate pivots, common on 0/1 payoffs, from cycling.
    Returns (value, p, q); p and q are exact up to rounding, so
    max_y (p^T a)_y and min_x (a q)_x bracket the value to working precision.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.size == 0 or np.any(a < 0) or not np.all(a.max(axis=1) > 0):
        raise DomainError("a matrix game needs a non-negative payoff with a positive entry in every row")
    m, n = a.shape
    scale = float(a.max())
    tab = np.zeros((n + 1, m + n + 1))
    tab[:n, :m] = a.T / scale
    tab[:n, m : m + n] = np.eye(n)
    tab[:n, -1] = 1.0
    tab[n, :m] = -1.0
    basis = np.arange(m, m + n)
    # Bland's rule ends in at most C(m + n, n) pivots; far fewer in practice
    for _ in range(100 * (m + n)):
        entering = np.flatnonzero(tab[n, :-1] < -GAME_PIVOT_TOL)
        if entering.size == 0:
            break
        j = entering[0]
        rows = np.flatnonzero(tab[:n, j] > GAME_PIVOT_TOL)
        if rows.size == 0:
            raise ConvergenceError("matrix game: the simplex method met an unbounded column")
        ratios = tab[rows, -1] / tab[rows, j]
        ties = rows[ratios <= ratios.min() + GAME_PIVOT_TOL]
        i = ties[np.argmin(basis[ties])]
        tab[i] /= tab[i, j]
        pivot_col = tab[:, j].copy()
        pivot_col[i] = 0.0
        tab -= np.outer(pivot_col, tab[i])
        basis[i] = j
    else:
        raise ConvergenceError("matrix game: the simplex method did not terminate")
    z = np.zeros(m)
    primal = basis < m
    z[basis[primal]] = np.maximum(tab[:n, -1][primal], 0.0)
    u = np.maximum(tab[n, m : m + n], 0.0)
    return scale / float(tab[n, -1]), z / z.sum(), u / u.sum()


def simplex_grid(k: int, resolution: int) -> np.ndarray:
    """All compositions with denominator `resolution` on the k-simplex.

    Returns an array of shape (n_points, k) with rows summing to 1.
    n_points = C(resolution + k - 1, k - 1); callers guard the blow-up.
    """
    if k == 1:
        return np.ones((1, 1))
    pts = []
    # stars and bars: positions of k-1 bars among resolution + k - 1 slots
    for bars in combinations(range(resolution + k - 1), k - 1):
        prev = -1
        counts = []
        for b in bars:
            counts.append(b - prev - 1)
            prev = b
        counts.append(resolution + k - 1 - prev - 1)
        pts.append(counts)
    return np.asarray(pts, dtype=float) / float(resolution)


def refine_simplex_max(
    f: Callable[[np.ndarray], float],
    p0: np.ndarray,
    f0: float | None = None,
    step0: float = 0.02,
    min_step: float = 1e-9,
    feasible: Callable[[np.ndarray], bool] | None = None,
) -> tuple[np.ndarray, float]:
    """Coordinate ascent with shrinking steps on the probability simplex.

    Moves mass between coordinate pairs (p + s(e_i - e_j)), halving the step
    whenever no move improves. Stops below `min_step`. `feasible` can veto
    candidates (used to stay inside constraint sets like {E_SP >= nu}).
    """
    p = np.asarray(p0, dtype=float).copy()
    k = p.size
    best = f(p) if f0 is None else f0
    step = step0
    while step >= min_step:
        improved = False
        for i in range(k):
            for j in range(k):
                if i == j or p[j] < step - 1e-15:
                    continue
                q = p.copy()
                q[i] += step
                q[j] -= step
                if q[j] < 0:
                    continue
                q /= q.sum()
                if feasible is not None and not feasible(q):
                    continue
                val = f(q)
                if val > best + 1e-15:
                    p, best = q, val
                    improved = True
        if not improved:
            step *= 0.5
    return p, best


def strictly_increasing(xs: Iterable[float]) -> bool:
    xs = list(xs)
    return all(b > a for a, b in zip(xs, xs[1:]))
