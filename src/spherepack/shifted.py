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
W^- law, no limits needed numerically. `esp_q_primal` is the independent
primal oracle for inf { D(V||W|P) : D(V||Q|P) <= r }: exact row-level
solves combined through a convex budget allocation, seeded by per-row
simplex-grid scans and refined by coordinate descent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError, InvariantViolationError
from .numerics import golden_max, monotone_root, simplex_grid
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

    Immutable after construction; operations on it are pure functions.
    """

    def __init__(self, w: Channel, R: float, p: Distribution):
        sp = saddle_point(w, R, p)
        if sp.degenerate:
            raise DomainError("shifted machinery needs E_SP(R,P) > 0 (non-degenerate saddle)")
        self.channel = w
        self.R = float(R)
        self.P = p
        self.saddle: SaddlePoint = sp
        self.w_minus: Channel = _w_minus_from_saddle(w, p, sp)
        self.d_wm_qstar = float(_d_wminus_qstar(w, p, sp.q_star))
        self.r = self.R - self.d_wm_qstar
        if self.r <= 0:
            raise InvariantViolationError(
                f"r(R,P) = {self.r} <= 0; upstream saddle computation failed"
            )
        # per active input letter: log W, log-likelihood ratio t = log(W^-/W)
        self._xs = np.flatnonzero(p.support)
        self._wx = p.probs[self._xs]
        self._logw = []
        self._t = []
        for x in self._xs:
            mask = w.rows[x] > ZERO_TOL
            lw = np.log(w.rows[x][mask])
            lwm = np.log(self.w_minus.rows[x][mask])
            self._logw.append(lw)
            self._t.append(lwm - lw)

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
        gmin = sum(wx * t.min() for wx, t in zip(self._wx, self._t))
        gmax = sum(wx * t.max() for wx, t in zip(self._wx, self._t))
        return float(gmin), float(gmax)


def _w_minus_from_saddle(w: Channel, p: Distribution, sp: SaddlePoint) -> Channel:
    q = sp.q_star.probs
    rows = w.rows.copy()
    for x in np.flatnonzero(p.support):
        mask = w.rows[x] > ZERO_TOL
        if np.any(q[mask] == 0.0):
            # the true Q* is positive on every used row support; a zero is
            # Q*(y) decaying below the 1e-14 zero rule at large rho*
            raise InvariantViolationError(
                f"Q* underflows to 0 (below {ZERO_TOL:g}) on the support of used input {x} "
                f"(rho* = {sp.rho_star:.6g}); the rate is too close to R_inf for W^-"
            )
        rows[x] = np.where(mask, q, 0.0) / q[mask].sum()
    return Channel(rows)


def _d_wminus_qstar(w: Channel, p: Distribution, q_star: Distribution) -> float:
    total = 0.0
    for x in np.flatnonzero(p.support):
        mask = w.rows[x] > ZERO_TOL
        total -= p.probs[x] * np.log(q_star.probs[mask].sum())
    return total


def w_minus(w: Channel, R: float, p: Distribution) -> Channel:
    """The support-reduced output channel W^-_{R,P} (rows of Q* renormalized
    on each used row support; untouched W rows off S(P))."""
    sp = saddle_point(w, R, p)
    if sp.degenerate:
        raise DomainError("W^- undefined on the degenerate branch (E_SP = 0)")
    return _w_minus_from_saddle(w, p, sp)


def r_of(w: Channel, R: float, p: Distribution) -> float:
    """r(R,P) = R - D(W^-||Q*|P), asserted positive."""
    ctx = ShiftedContext(w, R, p)
    return ctx.r


def cumulants(ctx: ShiftedContext, lam: float) -> CumulantPair:
    """Lambda0(lam), Lambda0'(lam), Lambda0''(lam) and m03(lam, P) by exact
    finite sums under the tilted laws; valid for any real lam."""
    l0 = 0.0
    d1 = 0.0
    d2 = 0.0
    m3 = 0.0
    for wx, lw, t in zip(ctx._wx, ctx._logw, ctx._t):
        logits = lw + lam * t
        m = logits.max()
        z = np.exp(logits - m)
        s = z.sum()
        probs = z / s
        l0x = m + np.log(s)
        mean = float(probs @ t)
        cen = t - mean
        var = float(probs @ cen**2)
        l0 += wx * l0x
        d1 += wx * mean
        d2 += wx * var
        m3 += wx * float(probs @ np.abs(cen) ** 3)
    return CumulantPair(lam=float(lam), lambda0=float(l0), d1=float(d1), d2=float(d2), m03=float(m3))


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
    total = 0.0
    for wx, lw, t in zip(ctx._wx, ctx._logw, ctx._t):
        t_ext = t.max() if upper else t.min()
        mass = np.exp(lw[np.abs(t - t_ext) <= 1e-12]).sum()
        total -= wx * np.log(mass)
    return total


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
# the Def.-1 primal grid oracle: inf { D(V||W|P) : D(V||Q|P) <= r }
# ---------------------------------------------------------------------------


def _row_budget_min(
    w_row: np.ndarray, q: np.ndarray, budget: float, tol: float = 1e-14
) -> float:
    """Exact min of D(v || w_row) over v with D(v || q) <= budget.

    v must live on T = S(w_row) & S(q). The minimizer follows the geometric
    path v_u ~ w^{1-u} q^u on T, whose q-divergence decreases continuously
    from D(w|T || q) at u=0 to -log q{T} at u=1; bisection on u hits the
    budget exactly. Returns +inf when even v = q|T exceeds the budget.
    """
    T = (w_row > ZERO_TOL) & (q > ZERO_TOL)
    if not T.any():
        return float("inf")
    lw = np.log(w_row[T])
    lq = np.log(q[T])

    def point(u: float) -> tuple[float, float]:
        logits = (1.0 - u) * lw + u * lq
        m = logits.max()
        zv = np.exp(logits - m)
        v = zv / zv.sum()
        d_q = float(v @ (np.log(v) - lq))
        d_w = float(v @ (np.log(v) - lw))
        return d_q, d_w

    t_min, h_at_tmin = point(1.0)
    if budget < t_min - 1e-13:
        return float("inf")
    if budget <= t_min + 1e-15:
        return h_at_tmin
    b0, d0 = point(0.0)
    if budget >= b0:
        return d0
    a, b = 0.0, 1.0
    while b - a > tol:
        m = 0.5 * (a + b)
        if point(m)[0] > budget:
            a = m
        else:
            b = m
    return point(0.5 * (a + b))[1]


def _row_curve_grid(w_row: np.ndarray, q: np.ndarray, resolution: int = 80) -> np.ndarray:
    """Simplex-grid samples of one row's (D(v||q), D(v||w)) trade-off,
    reduced to the Pareto staircase. Used to seed (and in tests to verify)
    the exact row solver."""
    T = (w_row > ZERO_TOL) & (q > ZERO_TOL)
    k = int(T.sum())
    if k == 0:
        return np.zeros((0, 2))
    pts = simplex_grid(k, resolution)
    pts = pts[np.all(pts > 0, axis=1)]  # interior points have finite divergences
    lw = np.log(w_row[T])
    lq = np.log(q[T])
    logs = np.log(pts)
    d_q = np.einsum("ij,ij->i", pts, logs - lq[None, :])
    d_w = np.einsum("ij,ij->i", pts, logs - lw[None, :])
    order = np.argsort(d_q)
    d_q, d_w = d_q[order], d_w[order]
    # value at budget t = min over all points with d_q <= t: prefix minimum
    best = np.minimum.accumulate(d_w)
    return np.column_stack([d_q, best])


def esp_q_primal(
    w: Channel,
    q: Distribution,
    p: Distribution,
    r: float,
    row_resolution: int = 80,
) -> float:
    """Primal value of inf { D(V||W|P) : D(V||Q|P) <= r }.

    Decomposes across input letters: with t_x the per-row share of the
    budget, the objective is sum_x P(x) h_x(t_x) where each h_x is the exact
    convex row value function (solved to machine precision). The allocation
    over { sum P(x) t_x = r } is itself convex and is minimized by pairwise
    budget transfers with golden-section line searches, seeded for small
    alphabets by the per-row simplex-grid staircases.
    """
    if r < 0:
        raise DomainError("budget must be non-negative")
    xs = np.flatnonzero(p.support)
    weights = p.probs[xs]
    rows = [w.rows[x] for x in xs]
    qp = q.probs

    infos = []
    for row in rows:
        T = (row > ZERO_TOL) & (qp > ZERO_TOL)
        if not T.any():
            return float("inf")
        lw = np.log(row[T])
        lq = np.log(qp[T])
        # budget floor (v = q|T) and unconstrained corner (v = w|T)
        vq = np.exp(lq - lq.max())
        vq /= vq.sum()
        t_min = float(vq @ (np.log(vq) - lq))
        vw = np.exp(lw - lw.max())
        vw /= vw.sum()
        b0 = float(vw @ (np.log(vw) - lq))
        d0 = float(vw @ (np.log(vw) - lw))
        infos.append((row, t_min, b0, d0))

    t_floor = np.array([i[1] for i in infos])
    t_corner = np.array([max(i[2], i[1]) for i in infos])
    d_corner = np.array([i[3] for i in infos])

    if float(weights @ t_corner) <= r:
        return float(weights @ d_corner)
    floor_total = float(weights @ t_floor)
    if floor_total > r + 1e-12:
        return float("inf")
    if floor_total >= r - 1e-15:
        return float(
            sum(wx * _row_budget_min(row, qp, tf) for wx, (row, tf, _, _) in zip(weights, infos))
        )

    def h(i: int, t: float) -> float:
        return _row_budget_min(infos[i][0], qp, t)

    def objective(ts: np.ndarray) -> float:
        return float(sum(wx * h(i, t) for i, (wx, t) in enumerate(zip(weights, ts))))

    # feasible start on the budget hyperplane
    theta = (r - floor_total) / float(weights @ (t_corner - t_floor))
    ts = t_floor + theta * (t_corner - t_floor)

    # seed from the first row's simplex-grid staircase when cheap
    k = len(infos)
    small_supports = all(
        int(((row > ZERO_TOL) & (qp > ZERO_TOL)).sum()) <= 3 for row, *_ in infos
    )
    if k == 2 and small_supports:
        curve = _row_curve_grid(infos[0][0], qp, row_resolution)
        best_seed = objective(ts)
        for t0 in curve[:: max(1, len(curve) // 64), 0]:
            t1 = (r - weights[0] * t0) / weights[1]
            if t0 < t_floor[0] - 1e-12 or t1 < t_floor[1] - 1e-12:
                continue
            cand = np.array([max(t0, t_floor[0]), max(t1, t_floor[1])])
            val = objective(cand)
            if val < best_seed:
                ts, best_seed = cand, val

    best = objective(ts)
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
