"""Saddle-point machinery for the sphere-packing exponent.

For a channel W, rate R and composition P, the function

    K(rho, Q) = -rho R - (1+rho) * Lambda(Q, P, rho/(1+rho)),
    Lambda(Q, P, lam) = sum_x P(x) log sum_y W(y|x)^(1-lam) Q(y)^lam,

has a unique saddle point (rho*, Q*) over R_+ x P(Y) whose value is the
sphere-packing exponent E_SP(R, P), provided R_inf < R < C and
E_SP(R, P) > 0. rho* is also the slope magnitude -dE_SP(R,P)/dR, and Q*
solves the fixed-point (KKT) equation

    Q*(y) = sum_x P(x) Wtilde_{lam, Q*}(y|x),   lam = rho*/(1+rho*).

The solver pairs a damped fixed-point iteration for the inner minimum over Q
with a root solve for the concave outer maximum over rho: bracket doubling
on the sign of the envelope derivative g'(rho) = -R - Lambda - Lambda'/(1+rho)
at Q_rho, then a Brent-Dekker root of g' on that bracket.
`esp_primal_oracle` solves the primal problem min { D(V||W|P) : I(P;V) <= R }
independently along the tilted-channel path, checking objective and
constraint directly; it is the pre-build oracle the test suite leans on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .errors import ConvergenceError, DomainError
from .numerics import monotone_root, refine_simplex_max, simplex_grid
from .probability import (
    ZERO_TOL,
    Channel,
    Distribution,
    capacity,
    conditional_kl,
    mutual_information,
    r_infinity,
)

ESP_ZERO_TOL = 1e-10  # below this the saddle is reported degenerate (rho* = 0)
INNER_TOL = 1e-12
INNER_MAX_ITER = 100_000


@dataclass(frozen=True)
class SaddlePoint:
    """The saddle point (rho*, Q*) with value E_SP(R,P) and diagnostics.

    `ternary_bracket` is the root finder's final bracket for rho* (a sign
    change of g'); `degenerate` marks the E_SP = 0 branch where rho* = 0 is
    allowed.
    """

    rho_star: float
    q_star: Distribution
    value: float
    fixed_point_residual: float
    ternary_bracket: tuple[float, float]
    degenerate: bool = False


def lambda_qp(w: Channel, q: Distribution, p: Distribution, lam: float) -> float:
    """Lambda(Q,P,lam); exactly 0 at lam = 0, -inf iff Q misses the support
    of some used input row entirely."""
    if q.size != w.ny or p.size != w.nx:
        raise DomainError("incompatible alphabets")
    if not (0.0 <= lam < 1.0):
        raise DomainError(f"lambda must lie in [0,1), got {lam}")
    if lam == 0.0:
        return 0.0
    total = 0.0
    qp = q.probs
    for x in np.flatnonzero(p.support):
        common = (w.rows[x] > ZERO_TOL) & (qp > ZERO_TOL)
        if not common.any():
            return float("-inf")
        terms = (1.0 - lam) * np.log(w.rows[x][common]) + lam * np.log(qp[common])
        m = terms.max()
        total += p.probs[x] * (m + np.log(np.exp(terms - m).sum()))
    return total


def k_rp(w: Channel, rho: float, q: Distribution, R: float, p: Distribution) -> float:
    """K_{R,P}(rho, Q); +inf when rho > 0 and Q is outside P_{P,W}(Y)."""
    if rho < 0:
        raise DomainError("rho must be non-negative")
    if rho == 0.0:
        return 0.0
    lam = rho / (1.0 + rho)
    lv = lambda_qp(w, q, p, lam)
    if lv == float("-inf"):
        return float("inf")
    return -rho * R - (1.0 + rho) * lv


def _active_parts(w: Channel, p: Distribution) -> tuple[np.ndarray, np.ndarray]:
    sup = p.support
    return w.rows[sup], p.probs[sup]


def _fixed_point(
    rows: np.ndarray, weights: np.ndarray, lam: float, q0: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The Q* fixed point Q <- sum_x P(x) Wtilde_{lam,Q}(.|x) from q0.

    Damped (0.5) for the first 10 sweeps, then undamped. Returns
    (q, t, z, resid) for the first iterate q whose undamped sweep moves it
    by resid <= INNER_TOL in L1; t = W^(1-lam) q^lam row-wise and z its row
    sums, so Lambda(q) = weights @ log z. From an iterate that already
    passes, the result is q0 itself with its measured residual.
    """
    wpow = np.where(rows > 0, rows ** (1.0 - lam), 0.0)
    q = q0
    resid = float("inf")
    for it in range(INNER_MAX_ITER):
        t = wpow * q**lam
        z = t.sum(axis=1)
        sweep = (weights / z) @ t
        resid = float(np.abs(sweep - q).sum())
        if resid <= INNER_TOL:
            return q, t, z, resid
        q = 0.5 * (q + sweep) if it < 10 else sweep
    raise ConvergenceError("inner fixed point for Q* did not converge", resid)


def inner_opt_q(w: Channel, rho: float, p: Distribution) -> Distribution:
    """Maximizer of Lambda(.,P,lam) over Q for lam = rho/(1+rho).

    Runs the saddle solver's Q* fixed point (damped for 10 sweeps, then
    undamped, to an L1 sweep residual <= 1e-12) from the W-output marginal
    under P, which is guaranteed inside P_{P,W}(Y).
    """
    if rho <= 0:
        raise DomainError("inner_opt_q needs rho > 0")
    rows, weights = _active_parts(w, p)
    q, _, _, _ = _fixed_point(rows, weights, rho / (1.0 + rho), weights @ rows)
    return Distribution(q)


def _check_rate_domain(w: Channel, R: float) -> None:
    c, _ = capacity(w)
    rinf = r_infinity(w)
    if not (rinf < R < c):
        raise DomainError(f"rate {R} nats outside (R_inf, C) = ({rinf:.6g}, {c:.6g}) nats")


def _degenerate_point(w: Channel, p: Distribution) -> SaddlePoint:
    q = w.output_marginal(p)
    return SaddlePoint(0.0, q, 0.0, 0.0, (0.0, 0.0), degenerate=True)


@lru_cache(maxsize=200_000)
def _saddle_cached(w: Channel, R: float, p: Distribution) -> SaddlePoint:
    if R >= mutual_information(p, w):
        return _degenerate_point(w, p)
    rows, weights = _active_parts(w, p)
    log_rows = np.log(np.where(rows > 0, rows, 1.0))
    q_warm = weights @ rows  # last inner solution, the next solve's start

    def g_prime(rho: float) -> float:
        # envelope theorem at the inner maximizer Q_rho: Lambda' is the
        # derivative in the tilt at fixed Q, E_tilted[log(Q/W)] weighted by P
        nonlocal q_warm
        q, t, z, _ = _fixed_point(rows, weights, rho / (1.0 + rho), q_warm)
        q_warm = q
        with np.errstate(divide="ignore"):
            ratio = np.where((rows > 0) & (q > 0), np.log(q) - log_rows, 0.0)
        lam_der = float(weights @ ((t * ratio).sum(axis=1) / z))
        return -R - float(weights @ np.log(z)) - lam_der / (1.0 + rho)

    # g is concave with g'(0) = I(P;W) - R > 0: double until g' turns negative
    lo, hi = 0.0, 1.0
    for _ in range(80):
        if g_prime(hi) < 0:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise ConvergenceError("outer bracket for rho* did not close")
    rho_star, bracket = monotone_root(g_prime, lo, hi)

    lam = rho_star / (1.0 + rho_star)
    q, _, _, _ = _fixed_point(rows, weights, lam, q_warm)
    q_star = Distribution(q)
    # measured residual of the returned Q* under one more fixed-point sweep
    _, _, z, residual = _fixed_point(rows, weights, lam, q_star.probs)
    value = -rho_star * R - (1.0 + rho_star) * float(weights @ np.log(z))
    if value <= ESP_ZERO_TOL:
        return _degenerate_point(w, p)
    return SaddlePoint(float(rho_star), q_star, float(value), residual, bracket)


def saddle_point(w: Channel, R: float, p: Distribution) -> SaddlePoint:
    """The unique saddle point of K_{R,P} with value E_SP(R,P).

    rho* is the root of the envelope derivative g'(rho) of the concave outer
    maximization, bracketed by doubling and solved by Brent-Dekker to a
    relative bracket width of 1e-14, with an inner Q* fixed point per
    evaluation. Degenerate instances (R >= I(P;W), or a value below 1e-10 at
    the root) report rho* = 0 with the output marginal as Q*.

    R is in nats and must lie in the open interval (R_inf, C); any other
    rate raises DomainError.
    """
    _check_rate_domain(w, R)
    if p.size != w.nx:
        raise DomainError("composition does not match the input alphabet")
    return _saddle_cached(w, R, p)


def esp_value(w: Channel, R: float, p: Distribution) -> float:
    """E_SP(R,P) (0 on the degenerate branch)."""
    return saddle_point(w, R, p).value


def esp_primal_oracle(
    w: Channel,
    R: float,
    p: Distribution,
    grid_points: int = 24,
    bisect_tol: float = 1e-11,
) -> float:
    """Primal solution of min { D(V||W|P) : I(P;V) <= R }.

    Traces the tilted-channel path V_rho (rows Wtilde_{rho/(1+rho), Q_rho})
    evaluating the true objective and the true constraint at each point:
    a rho-grid locates the feasibility boundary, bisection on rho refines it.
    Serves as the independent check of `saddle_point.value`.
    """
    _check_rate_domain(w, R)
    if R >= mutual_information(p, w):
        return 0.0

    sup = p.support

    def v_of(rho: float) -> Channel:
        q = inner_opt_q(w, rho, p)
        lam = rho / (1.0 + rho)
        rows = w.rows.copy()
        for x in np.flatnonzero(sup):
            common = (w.rows[x] > ZERO_TOL) & (q.probs > ZERO_TOL)
            terms = np.zeros(w.ny)
            vals = (1.0 - lam) * np.log(w.rows[x][common]) + lam * np.log(q.probs[common])
            vals = np.exp(vals - vals.max())
            terms[common] = vals / vals.sum()
            rows[x] = terms
        return Channel(rows)

    def slack(rho: float) -> float:
        return R - mutual_information(p, v_of(rho))

    # doubling until the constraint becomes feasible
    hi = 1.0
    for _ in range(60):
        if slack(hi) >= 0:
            break
        hi *= 2.0
    else:
        raise ConvergenceError("primal oracle found no feasible tilt")
    lo = 0.0 if hi == 1.0 else hi / 2.0

    best = float("inf")
    for rho in np.linspace(lo, hi, grid_points)[1:]:
        v = v_of(float(rho))
        if mutual_information(p, v) <= R:
            best = min(best, conditional_kl(v, w, p))

    # bisection on the constraint boundary: slack is negative below, positive above
    a, b = lo, hi
    for _ in range(200):
        m = 0.5 * (a + b)
        if slack(m) < 0:
            a = m
        else:
            b = m
        if b - a <= bisect_tol * max(1.0, b):
            break
    v = v_of(b)
    if mutual_information(p, v) <= R:
        best = min(best, conditional_kl(v, w, p))
    return best


_GRID_POINT_CAP = 300_000


@lru_cache(maxsize=4096)
def _esp_of_r_cached(
    w: Channel, R: float, resolution: int, refine: bool
) -> tuple[float, tuple[Distribution, ...]]:
    grid = simplex_grid(w.nx, resolution)
    vals = np.array([esp_value(w, R, Distribution(g)) for g in grid])
    vmax = float(vals.max())
    cand_idx = np.flatnonzero(vals >= vmax - 1e-8)

    if not refine:
        argmax = tuple(Distribution(grid[i]) for i in cand_idx)
        return vmax, argmax

    def objective(arr: np.ndarray) -> float:
        return esp_value(w, R, Distribution(arr))

    refined: list[tuple[np.ndarray, float]] = []
    for i in cand_idx:
        # 1e-6 composition steps already pin the value far below the 1e-8
        # argmax tolerance (the maximum is quadratic in P)
        p_ref, v_ref = refine_simplex_max(
            objective, grid[i], float(vals[i]), step0=1.0 / resolution, min_step=1e-6
        )
        refined.append((p_ref, v_ref))
    best = max(v for _, v in refined)
    keep: list[np.ndarray] = []
    for p_ref, v_ref in refined:
        if v_ref >= best - 1e-8 and all(np.abs(p_ref - k).sum() > 1e-6 for k in keep):
            keep.append(p_ref)
    return float(best), tuple(Distribution(k) for k in keep)


def esp_of_r(
    w: Channel, R: float, resolution: int = 64, refine: bool = True
) -> tuple[float, list[Distribution]]:
    """E_SP(R) = max_P E_SP(R,P) with the set of maximizing compositions.

    Simplex grid (default 1/64 per coordinate) plus coordinate-ascent
    refinement; argmax_set keeps every refined maximizer within 1e-8 of the
    maximum. Refuses |X| > 6 and grids past ~3e5 points; lower `resolution`
    for larger input alphabets.

    R is in nats and must lie in the open interval (R_inf, C); any other
    rate raises DomainError.
    """
    _check_rate_domain(w, R)
    if w.nx > 6:
        raise DomainError("input alphabet too large for the simplex grid; use a coarser resolution")
    if comb(resolution + w.nx - 1, w.nx - 1) > _GRID_POINT_CAP:
        raise DomainError("simplex grid too large; use a coarser resolution")
    value, argmax = _esp_of_r_cached(w, R, resolution, refine)
    return value, list(argmax)


def rho_star_r(w: Channel, R: float, resolution: int = 64) -> float:
    """Maximum |E_SP'(R,P)| over the exponent-maximizing compositions.

    R is in nats and must lie in the open interval (R_inf, C); any other
    rate raises DomainError, as does a rate where E_SP(R) vanishes.
    """
    value, argmax = esp_of_r(w, R, resolution)
    if value <= ESP_ZERO_TOL:
        raise DomainError("E_SP(R) vanishes here; rho*_R undefined")
    return max(saddle_point(w, R, p).rho_star for p in argmax)
