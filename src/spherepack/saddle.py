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

The maximum over compositions, E_SP(R) = max_P E_SP(R,P), is taken in
Gallager's form max_{rho >= 0} [E_0(rho) - rho R] (`esp_of_r`): a root
solve on rho over the certified convex solve of E_0(rho) in P
(`probability.gallager_e0`), with no grid over compositions, checked
against `saddle_point` at the maximizer it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError, InvariantViolationError
from .numerics import log_path, monotone_root, tilt
from .probability import (
    ZERO_TOL,
    Channel,
    Distribution,
    capacity,
    conditional_kl,
    gallager_e0,
    mutual_information,
    r_infinity,
)

ESP_ZERO_TOL = 1e-10  # below this the saddle is reported degenerate (rho* = 0)
INNER_TOL = 1e-12
INNER_MAX_ITER = 100_000
EMPTY_DOMAIN_TOL = 1e-9  # (R_inf, C) is empty when R_inf >= C - this; C is certified to 1e-10


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
    rows, weights = _active_parts(w, p)
    common = (rows > ZERO_TOL) & (q.probs > ZERO_TOL)
    if not common.any(axis=1).all():
        return float("-inf")
    return float(weights @ tilt(*log_path(rows, q.probs, common), lam).log_norm)


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
    if rinf >= c - EMPTY_DOMAIN_TOL:
        raise DomainError(
            f"the rate domain (R_inf, C) is empty for this channel: R_inf = {rinf:.9g} nats"
            f" is not below C = {c:.9g} nats by more than {EMPTY_DOMAIN_TOL:g}"
        )
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


def esp_primal_oracle(w: Channel, R: float, p: Distribution) -> float:
    """Primal solution of min { D(V||W|P) : I(P;V) <= R }.

    Traces the tilted-channel path V_rho (rows Wtilde_{rho/(1+rho), Q_rho}),
    along which the objective D(V_rho||W|P) and the constraint slack
    R - I(P;V_rho) both rise: a Brent-Dekker root of the slack on rho finds
    the feasibility boundary, and the true objective is evaluated at the
    bracket's feasible end. Serves as the independent check of
    `saddle_point.value`.
    """
    _check_rate_domain(w, R)
    slack0 = R - mutual_information(p, w)  # the slack at rho = 0, where V = W
    if slack0 >= 0:
        return 0.0

    sup = p.support
    used = w.rows[sup]

    def v_of(rho: float) -> Channel:
        q = inner_opt_q(w, rho, p).probs
        rows = w.rows.copy()
        common = (used > ZERO_TOL) & (q > ZERO_TOL)
        rows[sup] = tilt(*log_path(used, q, common), rho / (1.0 + rho)).law
        return Channel(rows)

    def slack(rho: float) -> float:
        # inner_opt_q rejects rho = 0, so the known slack there is used
        return slack0 if rho == 0.0 else R - mutual_information(p, v_of(rho))

    # doubling until the constraint becomes feasible
    hi = 1.0
    for _ in range(60):
        if slack(hi) >= 0:
            break
        hi *= 2.0
    else:
        raise ConvergenceError("primal oracle found no feasible tilt")
    lo = 0.0 if hi == 1.0 else hi / 2.0

    # the slack increases along the path, so the bracket's upper end is feasible
    _, (_, b) = monotone_root(slack, lo, hi)
    v = v_of(b)
    return conditional_kl(v, w, p) if mutual_information(p, v) <= R else float("inf")


ESP_CHECK_TOL = 1e-10  # E_SP(R) against the saddle value at its maximizer
# rho*_R against the saddle's rho* there, relative above rho = 1: where rho is
# large, E_0'' is small and a rounding of E_0' moves the root by far more
RHO_CHECK_TOL = 1e-8


@lru_cache(maxsize=4096)
def _esp_of_r_cached(w: Channel, R: float) -> tuple[float, Distribution, float]:
    c, p_cap = capacity(w)
    solves: dict[float, tuple[float, Distribution, float]] = {}
    p_warm = None  # the last maximizer, the next solve's start

    def slope(rho: float) -> float:
        # E_0'(0) = C, where E_0 needs no solve
        nonlocal p_warm
        if rho == 0.0:
            return c - R
        if rho not in solves:
            solves[rho] = gallager_e0(w, rho, p_warm)
            p_warm = solves[rho][1].probs
        return solves[rho][2] - R

    # E_0 is concave with E_0'(0) = C > R: double until E_0' falls below R
    lo, hi = 0.0, 1.0
    for _ in range(80):
        if slope(hi) < 0:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise ConvergenceError("outer bracket for rho*_R did not close")
    rho, _ = monotone_root(slope, lo, hi)
    if rho == 0.0:  # R within rounding of C: the root is the bracket's end
        return 0.0, p_cap, 0.0
    e0, p_star, _ = solves[rho]
    value = max(e0 - rho * R, 0.0)  # E_SP(R) >= 0; only rounding goes below
    sp = _saddle_cached(w, R, p_star)
    if abs(sp.value - value) > ESP_CHECK_TOL or (
        not sp.degenerate and abs(sp.rho_star - rho) > RHO_CHECK_TOL * max(1.0, rho)
    ):
        raise InvariantViolationError(
            f"E_SP(R) = {value!r} with rho*_R = {rho!r} from E_0 disagrees with the saddle"
            f" point at its maximizer: E_SP(R,P*) = {sp.value!r}, rho* = {sp.rho_star!r}"
        )
    return float(value), p_star, float(rho)


def esp_of_r(w: Channel, R: float, resolution: int = 64) -> tuple[float, list[Distribution]]:
    """E_SP(R) = max_P E_SP(R,P) with a maximizing composition, as a
    one-element list.

    E_SP(R) = max_{rho >= 0} [E_0(rho) - rho R] for Gallager's E_0 (Gallager,
    Information Theory and Reliable Communication, 1968, 5.6-5.8): rho*_R
    is the Brent-Dekker root of E_0'(rho) = R, bracketed by doubling from
    rho = 1, and each E_0'(rho) is the envelope derivative at the maximizer
    of `gallager_e0`, which is certified to a 1e-12 Frank-Wolfe gap and
    warm-started from the previous one. The returned composition is the
    E_0 maximizer at rho*_R. The result is checked against
    `saddle_point(w, R, P*)`: its value must agree within 1e-10 and, off
    the degenerate branch, its rho* within 1e-8 max(1, rho*_R), or
    InvariantViolationError is raised. No alphabet size limit.

    `resolution` is accepted and unused; it is kept for callers that pass
    the constants-ledger grid along.

    R is in nats and must lie in the open interval (R_inf, C); any other
    rate raises DomainError.
    """
    _check_rate_domain(w, R)
    value, p_star, _ = _esp_of_r_cached(w, R)
    return value, [p_star]


def rho_star_r(w: Channel, R: float, resolution: int = 64) -> float:
    """rho*_R = |E_SP'(R)|, the maximizing rho of E_0(rho) - rho R.

    Read from the same cached solve as `esp_of_r`; `resolution` is accepted
    and unused. R is in nats and must lie in the open interval (R_inf, C);
    any other rate raises DomainError, as does a rate where E_SP(R)
    vanishes.
    """
    _check_rate_domain(w, R)
    value, _, rho = _esp_of_r_cached(w, R)
    if value <= ESP_ZERO_TOL:
        raise DomainError("E_SP(R) vanishes here; rho*_R undefined")
    return rho
