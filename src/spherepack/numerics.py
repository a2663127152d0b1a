"""Small deterministic numeric search utilities shared across modules.

Everything here is dependency-light and purely functional: golden-section
maximization on a bracket, a bracketed Brent-Dekker root finder for
monotone functions, simplex grids, and a coordinate-ascent refiner over the
probability simplex.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable

import numpy as np

from .errors import ConvergenceError

INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0  # 1/phi
INV_PHI2 = (3.0 - np.sqrt(5.0)) / 2.0  # 1/phi^2
ROOT_XTOL = 1e-14  # relative width of the final root bracket
ROOT_MAX_ITER = 500
_EPS = float(np.finfo(float).eps)


def golden_max(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    width: float = 1e-10,
    max_iter: int = 500,
) -> tuple[float, float, tuple[float, float]]:
    """Maximize a unimodal f on [lo, hi] by golden-section search.

    Returns (x_star, f(x_star), final_bracket). Deterministic; shrinks the
    bracket below `width` (or exhausts max_iter, which for sane brackets
    never happens before the width stop).
    """
    a, b = float(lo), float(hi)
    h = b - a
    if h <= width:
        x = 0.5 * (a + b)
        return x, f(x), (a, b)
    c = a + INV_PHI2 * h
    d = a + INV_PHI * h
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
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
