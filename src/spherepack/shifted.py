"""Support-reduced channel W^-, shifted exponent, cumulants and transforms.

Given a non-degenerate saddle point (rho*, Q*) at (R, P):

  W^-(y|x) = Q*(y) / Q*{S(W(.|x))} on S(W(.|x)) for x in S(P)  (W rows else),
  r(R,P)   = R - D(W^- || Q* | P) > 0,
  D(W^- || Q* | P) = -sum_x P(x) log Q*{S(W(.|x))}.

The per-letter log-likelihood ratio t = log(W^-/W) drives everything else:

  Lambda0(lam) = sum_x P(x) log E_{W(.|x)}[e^{lam t}]     (Lambda1(lam) = Lambda0(1-lam)),
  e0(s)        = -(1+s) sum_x P(x) log sum_y W^{1/(1+s)} (W^-)^{s/(1+s)},
  etilde(r)    = max_{s >= 0} { -s r + e0(s) }            (strictly concave dual),
  Lambda0*(z)  = sup_lam { lam z - Lambda0(lam) }          (solved via Lambda0' = z).

All evaluations are exact finite sums; the lam = 1 endpoint is literally the
W^- law, no limits needed numerically.

The same dual solves e_SP(Q,P,r) = inf { D(V||W|P) : D(V||Q|P) <= r } for an
arbitrary output law Q (`esp_q_dual`): a `ShiftedContext` built from Q in
place of Q*, over the rows of W conditioned on S(Q). `esp_q_primal` is its
independent primal oracle: exact row-level solves combined through a convex
budget allocation by pairwise golden-section transfers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError, InvariantViolationError
from .numerics import golden_max, log_path, monotone_root, tilt
from .probability import (
    ZERO_TOL,
    Channel,
    Distribution,
    conditional_kl,
)
from .saddle import SaddlePoint, saddle_point


@dataclass(frozen=True)
class CumulantPair:
    """Lambda0 and its first two derivatives plus the third absolute moment
    m03 of the tilted log-likelihood ratio, at one tilt parameter."""

    lam: float
    lambda0: float
    d1: float
    d2: float
    m03: float


@dataclass(frozen=True)
class ShiftedExponent:
    """Value of the shifted exponent with its dual maximizer."""

    value: float
    s_star: float
    eta: float
    stationarity_gap: float


class ShiftedContext:
    """Everything derived from one non-degenerate saddle point (R, P).

    Given an output law q positive on every used row support, W^- is built
    from q in place of Q*: no saddle is solved (`saddle` is None) and
    r = R - D(W^-||q|P) may take either sign.

    Immutable after construction; operations on it are pure functions.
    """

    def __init__(self, w: Channel, R: float, p: Distribution, q: Distribution | None = None):
        self.saddle: SaddlePoint | None = None
        if q is None:
            sp = saddle_point(w, R, p)
            if sp.degenerate:
                raise DomainError("shifted machinery needs E_SP(R,P) > 0 (non-degenerate saddle)")
            self.saddle, q = sp, sp.q_star
            for x in np.flatnonzero(p.support):
                if np.any(q.probs[w.rows[x] > ZERO_TOL] == 0.0):
                    # the true Q* is positive on every used row support; a zero
                    # is Q*(y) decaying below the 1e-14 zero rule at large rho*
                    raise InvariantViolationError(
                        f"Q* underflows to 0 (below {ZERO_TOL:g}) on the support of used input {x} "
                        f"(rho* = {sp.rho_star:.6g}); the rate is too close to R_inf for W^-"
                    )
        self.channel = w
        self.R = float(R)
        self.P = p
        self.w_minus: Channel = _w_minus(w, p, q)
        self.d_wm_qstar = float(_d_wminus_qstar(w, p, q))
        self.r = self.R - self.d_wm_qstar
        if self.saddle is not None and self.r <= 0:
            raise InvariantViolationError(
                f"r(R,P) = {self.r} <= 0; upstream saddle computation failed"
            )
        # per active input letter, padded to |Y| on the row supports `_on`:
        # log W (-inf off S(W(.|x))) and the log-likelihood ratio t = log(W^-/W)
        xs = np.flatnonzero(p.support)
        self._wx = p.probs[xs]
        self._on = w.rows[xs] > ZERO_TOL
        self._logw, self._t = log_path(w.rows[xs], self.w_minus.rows[xs], self._on)

    # -- divergences between W and W^- ------------------------------------
    @property
    def d_w_wminus(self) -> float:
        """D(W || W^- | P) = -Lambda0'(0)."""
        return conditional_kl(self.channel, self.w_minus, self.P)

    @property
    def d_wminus_w(self) -> float:
        """D(W^- || W | P) = Lambda0'(1)."""
        return conditional_kl(self.w_minus, self.channel, self.P)

    def gradient_range(self) -> tuple[float, float]:
        """Closure limits of Lambda0' over all real tilts."""
        return float(self._wx @ self._t_ext(False)), float(self._wx @ self._t_ext(True))

    def _t_ext(self, upper: bool) -> np.ndarray:
        """Per active letter, the largest (upper) or smallest t on the row support."""
        if upper:
            return np.where(self._on, self._t, -np.inf).max(axis=1)
        return np.where(self._on, self._t, np.inf).min(axis=1)


def _w_minus(w: Channel, p: Distribution, q: Distribution) -> Channel:
    rows = w.rows.copy()
    for x in np.flatnonzero(p.support):
        mask = w.rows[x] > ZERO_TOL
        rows[x] = np.where(mask, q.probs, 0.0) / q.probs[mask].sum()
    return Channel(rows)


def _d_wminus_qstar(w: Channel, p: Distribution, q_star: Distribution) -> float:
    total = 0.0
    for x in np.flatnonzero(p.support):
        mask = w.rows[x] > ZERO_TOL
        total -= p.probs[x] * np.log(q_star.probs[mask].sum())
    return total


def w_minus(w: Channel, R: float, p: Distribution) -> Channel:
    """The support-reduced output channel W^-_{R,P} (rows of Q* renormalized
    on each used row support; untouched W rows off S(P)); DomainError on the
    degenerate branch (E_SP = 0)."""
    return shifted_context(w, R, p).w_minus


def r_of(w: Channel, R: float, p: Distribution) -> float:
    """r(R,P) = R - D(W^-||Q*|P), asserted positive."""
    ctx = ShiftedContext(w, R, p)
    return ctx.r


def cumulants(ctx: ShiftedContext, lam: float) -> CumulantPair:
    """Lambda0(lam), Lambda0'(lam), Lambda0''(lam) and m03(lam, P) by exact
    finite sums under the tilted laws; valid for any real lam."""
    k = tilt(ctx._logw, ctx._t, lam)
    wx = ctx._wx
    return CumulantPair(
        lam=float(lam),
        lambda0=float(wx @ k.log_norm),
        d1=float(wx @ k.mean),
        d2=float(wx @ k.var),
        m03=float(wx @ k.m3),
    )


def lambda0(ctx: ShiftedContext, lam: float) -> float:
    if lam == 0.0:
        return 0.0
    return cumulants(ctx, lam).lambda0


def lambda1(ctx: ShiftedContext, lam: float) -> float:
    """Lambda1(lam) = Lambda0(1 - lam)."""
    return lambda0(ctx, 1.0 - lam)


def m13(ctx: ShiftedContext, lam: float) -> float:
    """m13(lam, P) = m03(1 - lam, P)."""
    return cumulants(ctx, 1.0 - lam).m03


def e0(ctx: ShiftedContext, s: float) -> float:
    """e0(s, P) = -(1+s) sum_x P(x) log sum_y W^{1/(1+s)} (W^-)^{s/(1+s)}."""
    if s < 0:
        raise DomainError("e0 needs s >= 0")
    if s == 0.0:
        return 0.0
    return -(1.0 + s) * cumulants(ctx, s / (1.0 + s)).lambda0


def _e0_prime(ctx: ShiftedContext, s: float) -> float:
    lam = s / (1.0 + s)
    c = cumulants(ctx, lam)
    return -c.lambda0 - c.d1 / (1.0 + s)


def tilde_esp(ctx: ShiftedContext, r: float) -> ShiftedExponent:
    """The shifted exponent inf { D(V||W|P) : D(V||W^-|P) <= r } via its
    strictly concave 1-d dual max_{s>=0} { -s r + e0(s,P) }, whose maximizer
    s* is the Brent-Dekker root of the decreasing derivative e0'(s) - r.

    For r >= D(W||W^-|P) the channel itself is feasible and the value is 0.
    Post-condition: Lambda0'(eta) = value - r within 1e-8 (regularity).
    """
    if r <= 0:
        raise DomainError("shifted exponent needs budget r > 0")
    if r >= ctx.d_w_wminus:
        return ShiftedExponent(0.0, 0.0, 0.0, 0.0)

    def phi_prime(s: float) -> float:
        return _e0_prime(ctx, s) - r

    # phi is concave with phi'(0) = D(W||W^-|P) - r > 0: double until
    # phi' turns negative, then take the root of phi' on that bracket
    lo, hi = 0.0, 1.0
    for _ in range(200):
        if phi_prime(hi) < 0:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise ConvergenceError("dual bracket for s* did not close")
    s_star, _ = monotone_root(phi_prime, lo, hi)
    value = -s_star * r + e0(ctx, s_star)
    eta = s_star / (1.0 + s_star)
    gap = abs(cumulants(ctx, eta).d1 - (value - r))
    if gap > 1e-8:
        raise InvariantViolationError(
            f"stationarity residual {gap:.3e} exceeds 1e-8; dual solve failed"
        )
    return ShiftedExponent(float(value), float(s_star), float(eta), float(gap))


# ---------------------------------------------------------------------------
# Fenchel-Legendre transforms
# ---------------------------------------------------------------------------


def _boundary_value(ctx: ShiftedContext, upper: bool) -> float:
    # lim lam -> +-inf of lam z - Lambda0(lam) at z equal to the gradient-range
    # endpoint: -sum_x P(x) log W{argmax/argmin of t | x}
    at_ext = ctx._on & (np.abs(ctx._t - ctx._t_ext(upper)[:, None]) <= 1e-12)
    mass = np.where(at_ext, np.exp(ctx._logw), 0.0).sum(axis=1)
    return float(-(ctx._wx @ np.log(mass)))


def fenchel0(ctx: ShiftedContext, z: float) -> float:
    """Lambda0*(z) = sup_lam { lam z - Lambda0(lam) }.

    The maximizer is the root of the strictly increasing Lambda0'(lam) - z
    (positive variance), bracketed by expansion and solved by Brent-Dekker;
    +inf outside the closure of the gradient range, boundary points by
    continuity.
    """
    gmin, gmax = ctx.gradient_range()
    scale = max(1.0, abs(gmin), abs(gmax))
    if z >= gmax - 1e-13 * scale:
        if z <= gmax + 1e-13 * scale:
            return _boundary_value(ctx, upper=True)
        return float("inf")
    if z <= gmin + 1e-13 * scale:
        if z >= gmin - 1e-13 * scale:
            return _boundary_value(ctx, upper=False)
        return float("inf")

    lo, hi = 0.0, 1.0
    for _ in range(200):
        if cumulants(ctx, lo).d1 <= z:
            break
        lo = lo * 2.0 - 1.0  # 0 -> -1 -> -3 -> ...
    for _ in range(200):
        if cumulants(ctx, hi).d1 >= z:
            break
        hi = hi * 2.0 + 1.0
    lam, _ = monotone_root(lambda v: cumulants(ctx, v).d1 - z, lo, hi)
    return lam * z - lambda0(ctx, lam)


def fenchel1(ctx: ShiftedContext, z: float) -> float:
    """Lambda1*(z) via the reflection Lambda1(lam) = Lambda0(1-lam), which
    gives Lambda1*(z) = z + Lambda0*(-z) exactly."""
    v = fenchel0(ctx, -z)
    return float("inf") if v == float("inf") else z + v


# ---------------------------------------------------------------------------
# e_SP(Q,P,r) = inf { D(V||W|P) : D(V||Q|P) <= r }: the dual and its primal oracle
# ---------------------------------------------------------------------------


def esp_q_dual(w: Channel, q: Distribution, p: Distribution, r: float) -> float:
    """e_SP(Q,P,r) = inf { D(V||W|P) : D(V||Q|P) <= r } by the shifted dual.

    V(.|x) lives on T_x = S(W(.|x)) & S(Q); conditioning each used row on T_x
    adds -sum_x P(x) log W(T_x|x). With t_x = -log Q(T_x), D(V||Q|P) =
    D(V||W^-_Q|P) + sum_x P(x) t_x, so the value is `tilde_esp` of the context
    built from Q and the conditioned rows, at the budget r - sum_x P(x) t_x:
    D(W^-_Q||W|P) at budget 0, +inf below it or when some used T_x is empty.
    """
    if r < 0:
        raise DomainError("budget must be non-negative")
    xs = np.flatnonzero(p.support)
    common = (w.rows[xs] > ZERO_TOL) & (q.probs > ZERO_TOL)
    if not common.any(axis=1).all():
        return float("inf")
    on_t = np.where(common, w.rows[xs], 0.0)
    mass = on_t.sum(axis=1)  # W(T_x|x)
    rows = w.rows.copy()
    rows[xs] = on_t / mass[:, None]
    ctx = ShiftedContext(Channel(rows), r, p, q)
    const = -float(p.probs[xs] @ np.log(mass))
    if ctx.r < -1e-12:
        return float("inf")
    if ctx.r <= 1e-15:
        return const + ctx.d_wminus_w
    return const + tilde_esp(ctx, ctx.r).value


def _path_point(logw: np.ndarray, t: np.ndarray, u: float) -> tuple[np.ndarray, np.ndarray]:
    """Per row, (D(v_u || q), D(v_u || w)) on the geometric path
    v_u ~ w^{1-u} q^u, from the `log_path` inputs logw and t = log(q/w).

    log v_u = log w + u t - log Z, so both divergences are affine in the
    tilted mean of t and the tilted law is never logged.
    """
    k = tilt(logw, t, u)
    return (u - 1.0) * k.mean - k.log_norm, u * k.mean - k.log_norm


def _row_budget_min(w_row: np.ndarray, q: np.ndarray, budget: float) -> float:
    """Exact min of D(v || w_row) over v with D(v || q) <= budget.

    v must live on T = S(w_row) & S(q). The minimizer follows the geometric
    path v_u ~ w^{1-u} q^u on T, whose q-divergence decreases continuously
    from D(w|T || q) at u=0 to -log q{T} at u=1; a Brent-Dekker root on u
    hits the budget. Returns +inf when even v = q|T exceeds the budget.
    """
    T = (w_row > ZERO_TOL) & (q > ZERO_TOL)
    if not T.any():
        return float("inf")
    logw, t = log_path(w_row, q, T)

    def point(u: float) -> tuple[float, float]:
        d_q, d_w = _path_point(logw, t, u)
        return float(d_q[0]), float(d_w[0])

    t_min, h_at_tmin = point(1.0)
    if budget < t_min - 1e-13:
        return float("inf")
    if budget <= t_min + 1e-15:
        return h_at_tmin
    b0, d0 = point(0.0)
    if budget >= b0:
        return d0
    u, _ = monotone_root(lambda u: point(u)[0] - budget, 0.0, 1.0)
    return point(u)[1]


def esp_q_primal(
    w: Channel,
    q: Distribution,
    p: Distribution,
    r: float,
) -> float:
    """Primal value of inf { D(V||W|P) : D(V||Q|P) <= r }.

    Decomposes across input letters: with t_x the per-row share of the
    budget, the objective is sum_x P(x) h_x(t_x) where each h_x is the exact
    convex row value function (solved to machine precision). The allocation
    over { sum P(x) t_x = r } is itself convex and is minimized by pairwise
    budget transfers with golden-section line searches from the point where
    every row takes the same share of the way from floor to corner.
    """
    if r < 0:
        raise DomainError("budget must be non-negative")
    xs = np.flatnonzero(p.support)
    weights = p.probs[xs]
    rows = w.rows[xs]
    qp = q.probs
    common = (rows > ZERO_TOL) & (qp > ZERO_TOL)
    if not common.any(axis=1).all():
        return float("inf")
    # budget floor (v = q|T, u = 1) and unconstrained corner (v = w|T, u = 0)
    logw, llr = log_path(rows, qp, common)
    t_floor, d_floor = _path_point(logw, llr, 1.0)
    b0, d_corner = _path_point(logw, llr, 0.0)
    t_corner = np.maximum(b0, t_floor)

    if float(weights @ t_corner) <= r:
        return float(weights @ d_corner)
    floor_total = float(weights @ t_floor)
    if floor_total > r + 1e-12:
        return float("inf")
    if floor_total >= r - 1e-15:
        return float(weights @ d_floor)

    def h(i: int, t: float) -> float:
        return _row_budget_min(rows[i], qp, t)

    def objective(ts: np.ndarray) -> float:
        return float(sum(wx * h(i, t) for i, (wx, t) in enumerate(zip(weights, ts))))

    # feasible start on the budget hyperplane
    theta = (r - floor_total) / float(weights @ (t_corner - t_floor))
    ts = t_floor + theta * (t_corner - t_floor)

    best = objective(ts)
    k = len(xs)
    if k == 1:
        return best
    for _ in range(200):
        improved = False
        for i in range(k):
            for j in range(i + 1, k):
                # transfer delta of budget mass from row j to row i
                d_lo = max(
                    weights[i] * (t_floor[i] - ts[i]),
                    weights[j] * (ts[j] - t_corner[j]),
                )
                d_hi = min(
                    weights[i] * (t_corner[i] - ts[i]),
                    weights[j] * (ts[j] - t_floor[j]),
                )
                if d_hi - d_lo <= 1e-15:
                    continue

                def line(delta: float) -> float:
                    ti = ts[i] + delta / weights[i]
                    tj = ts[j] - delta / weights[j]
                    return -(weights[i] * h(i, ti) + weights[j] * h(j, tj))

                delta, neg_val, _ = golden_max(line, d_lo, d_hi, width=1e-13)
                rest = best - (weights[i] * h(i, ts[i]) + weights[j] * h(j, ts[j]))
                cand_val = rest - neg_val
                if cand_val < best - 1e-14:
                    ts[i] += delta / weights[i]
                    ts[j] -= delta / weights[j]
                    best = cand_val
                    improved = True
        if not improved:
            break
    return best


@lru_cache(maxsize=65536)
def _ctx_cached(w: Channel, R: float, p: Distribution) -> ShiftedContext:
    return ShiftedContext(w, R, p)


def shifted_context(w: Channel, R: float, p: Distribution) -> ShiftedContext:
    """Cached ShiftedContext constructor."""
    return _ctx_cached(w, R, p)
