"""Alphabets, distributions, channels and the information measures on them.

Conventions
-----------
- All logarithms are natural; divergences and rates are in nats.
- A probability entry is treated as zero iff it is <= ZERO_TOL after
  normalization; supports are computed with that rule so that support sets
  are discrete and stable.
- Products of probabilities are always accumulated in the log domain;
  blocklengths of interest (~1e4) underflow the linear domain.

Types are immutable values after construction and every operation is a pure
function of its inputs, so everything here is safe to evaluate concurrently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import AlphabetMismatchError, ConfigError, ConvergenceError, DomainError
from .numerics import log_path, matrix_game, monotone_root, tilt

ZERO_TOL = 1e-14
SUM_TOL = 1e-12


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Distribution:
    """A probability vector on a finite alphabet.

    Entries must be non-negative and sum to 1 within 1e-12; the stored vector
    is renormalized exactly so the zero rule (<= 1e-14 is zero) is stable.
    """

    probs: np.ndarray

    def __init__(self, probs) -> None:
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise DomainError("a distribution is a non-empty 1-d vector")
        if np.any(p < -SUM_TOL):
            raise DomainError(f"negative probability entry: {p.min()}")
        p = np.where(p < 0, 0.0, p)
        s = p.sum()
        if abs(s - 1.0) > SUM_TOL:
            raise DomainError(f"probabilities sum to {s}, not 1 (tol 1e-12)")
        p = p / s
        p = np.where(p <= ZERO_TOL, 0.0, p)
        p = p / p.sum()
        object.__setattr__(self, "probs", _frozen(p))

    @property
    def size(self) -> int:
        return self.probs.size

    @property
    def support(self) -> np.ndarray:
        """Boolean mask of {x : P(x) > 0} under the zero-tolerance rule."""
        return self.probs > ZERO_TOL

    def __hash__(self) -> int:
        return hash(self.probs.tobytes())

    def __eq__(self, other) -> bool:
        return isinstance(other, Distribution) and np.array_equal(self.probs, other.probs)

    @staticmethod
    def uniform(k: int) -> "Distribution":
        return Distribution(np.full(k, 1.0 / k))

    @staticmethod
    def point_mass(k: int, x: int) -> "Distribution":
        p = np.zeros(k)
        p[x] = 1.0
        return Distribution(p)


def _check_same_alphabet(p: Distribution, q: Distribution) -> None:
    if p.size != q.size:
        raise AlphabetMismatchError(f"alphabet sizes differ: {p.size} vs {q.size}")


@dataclass(frozen=True)
class Channel:
    """A stochastic matrix W(y|x): one Distribution per input letter.

    Also used for conditional channels appearing as optimization variables
    (V) and for support-reduced channels (the lambda -> 1 tilt limit): the
    shape and invariants are identical, only the role differs.
    """

    rows: np.ndarray
    input_alphabet: tuple = field(default=())
    output_alphabet: tuple = field(default=())

    def __init__(self, rows, input_alphabet=None, output_alphabet=None) -> None:
        r = np.asarray(rows, dtype=float)
        if r.ndim != 2 or r.shape[0] < 1 or r.shape[1] < 2:
            raise DomainError("a channel needs |X| >= 1 rows and |Y| >= 2 columns")
        rows_norm = np.stack([Distribution(row).probs for row in r])
        object.__setattr__(self, "rows", _frozen(rows_norm))
        ia = tuple(input_alphabet) if input_alphabet is not None else tuple(range(r.shape[0]))
        oa = tuple(output_alphabet) if output_alphabet is not None else tuple(range(r.shape[1]))
        if len(ia) != r.shape[0] or len(oa) != r.shape[1]:
            raise AlphabetMismatchError("alphabet labels do not match matrix shape")
        object.__setattr__(self, "input_alphabet", ia)
        object.__setattr__(self, "output_alphabet", oa)

    @property
    def nx(self) -> int:
        return self.rows.shape[0]

    @property
    def ny(self) -> int:
        return self.rows.shape[1]

    @property
    def supports(self) -> np.ndarray:
        """Boolean (|X|, |Y|) mask of the row supports S(W(.|x))."""
        return self.rows > ZERO_TOL

    def row(self, x: int) -> Distribution:
        return Distribution(self.rows[x])

    def output_marginal(self, p: Distribution) -> Distribution:
        if p.size != self.nx:
            raise AlphabetMismatchError("composition does not match the input alphabet")
        return Distribution(p.probs @ self.rows)

    def is_dominated_by(self, w: "Channel", p_support: np.ndarray | None = None, tol: float = ZERO_TOL) -> bool:
        """True iff V(.|x) << W(.|x) for all x in the designated support set."""
        if self.rows.shape != w.rows.shape:
            raise AlphabetMismatchError("channel shapes differ")
        mask = np.ones(self.nx, dtype=bool) if p_support is None else np.asarray(p_support, bool)
        bad = (self.rows > tol) & ~w.supports
        return not bad[mask].any()

    def __hash__(self) -> int:
        return hash(self.rows.tobytes())

    def __eq__(self, other) -> bool:
        return isinstance(other, Channel) and np.array_equal(self.rows, other.rows)


def channel_from_json(text: str) -> Channel:
    """Parse the channel JSON format.

    {"input_alphabet": [...], "output_alphabet": [...], "rows": [[...], ...]}
    Row order follows input_alphabet. Rows are normalized after validation;
    a row whose sum is off by more than 1e-6 is rejected.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid channel JSON: {exc}") from exc
    for key in ("input_alphabet", "output_alphabet", "rows"):
        if key not in doc:
            raise ConfigError(f"channel JSON missing key {key!r}")
    rows = np.asarray(doc["rows"], dtype=float)
    if rows.ndim != 2:
        raise ConfigError("channel JSON rows must form a matrix")
    if rows.shape != (len(doc["input_alphabet"]), len(doc["output_alphabet"])):
        raise ConfigError("channel JSON rows do not match the alphabets")
    if np.any(rows < 0):
        raise ConfigError("channel JSON has negative probabilities")
    sums = rows.sum(axis=1)
    off = np.abs(sums - 1.0)
    if np.any(off > 1e-6):
        raise ConfigError(f"channel row sums off by up to {off.max():.3g} (tol 1e-6)")
    rows = rows / sums[:, None]
    return Channel(rows, doc["input_alphabet"], doc["output_alphabet"])


def load_channel(path: str) -> Channel:
    with open(path, "r", encoding="utf-8") as fh:
        return channel_from_json(fh.read())


def channel_to_json(w: Channel) -> str:
    return json.dumps(
        {
            "input_alphabet": list(w.input_alphabet),
            "output_alphabet": list(w.output_alphabet),
            "rows": [[float(v) for v in row] for row in w.rows],
        }
    )


# ---------------------------------------------------------------------------
# divergences and mutual information
# ---------------------------------------------------------------------------


def _kl_arrays(p: np.ndarray, q: np.ndarray) -> float:
    """KL divergence of raw probability vectors with 0 log(0/.) = 0."""
    sp = p > ZERO_TOL
    if np.any(sp & (q <= ZERO_TOL)):
        return float("inf")
    pa, qa = p[sp], q[sp]
    return float(np.dot(pa, np.log(pa) - np.log(qa)))


def kl_divergence(p: Distribution, q: Distribution) -> float:
    """D(p || q) in nats; +inf iff p is not absolutely continuous w.r.t. q."""
    _check_same_alphabet(p, q)
    return _kl_arrays(p.probs, q.probs)


def conditional_kl(v: Channel, w: Channel, p: Distribution) -> float:
    """D(V || W | P) = sum_x P(x) D(V(.|x) || W(.|x)).

    Rows with P(x) = 0 contribute 0 even when their row divergence is +inf.
    """
    if v.rows.shape != w.rows.shape:
        raise AlphabetMismatchError("channel shapes differ")
    if p.size != v.nx:
        raise AlphabetMismatchError("composition does not match the channels")
    total = 0.0
    for x in np.flatnonzero(p.support):
        d = _kl_arrays(v.rows[x], w.rows[x])
        if d == float("inf"):
            return float("inf")
        total += p.probs[x] * d
    return total


def divergence_to_output(v: Channel, q: Distribution, p: Distribution) -> float:
    """D(V || Q | P) = sum_x P(x) D(V(.|x) || Q) for an output law Q."""
    if q.size != v.ny or p.size != v.nx:
        raise AlphabetMismatchError("incompatible alphabets")
    total = 0.0
    for x in np.flatnonzero(p.support):
        d = _kl_arrays(v.rows[x], q.probs)
        if d == float("inf"):
            return float("inf")
        total += p.probs[x] * d
    return total


def mutual_information(p: Distribution, v: Channel) -> float:
    """I(P;V) = min_Q D(V||Q|P), attained at the output marginal PV."""
    q = v.output_marginal(p)
    return divergence_to_output(v, q, p)


# ---------------------------------------------------------------------------
# tilting
# ---------------------------------------------------------------------------


def tilted_channel_row(w_row: Distribution, q: Distribution, lam: float) -> Distribution:
    """The tilted row: proportional to w(y)^(1-lam) q(y)^lam on the common support.

    Defined for lam in (0,1); at lam = 0 exactly, the convention is that the
    caller uses w_row itself, so lam = 0 is rejected here. As lam -> 0 the
    result tends to w_row restricted to S(q) & S(w_row), renormalized.
    """
    _check_same_alphabet(w_row, q)
    if not (0.0 < lam < 1.0):
        raise DomainError(f"tilt parameter must lie in (0,1), got {lam}")
    common = w_row.support & q.support
    if not common.any():
        raise DomainError("tilt undefined: disjoint supports (zero normalizer)")
    return Distribution(tilt(*log_path(w_row.probs, q.probs, common), lam).law[0])


# ---------------------------------------------------------------------------
# capacity and R_infinity
# ---------------------------------------------------------------------------


CAPACITY_GAP = 1e-10  # duality gap certified on the returned input law
CAPACITY_MAX_STEPS = 500  # also the step cap of the E_0 solve
GALLAGER_GAP = 1e-12  # Frank-Wolfe gap certified on the returned E_0 maximizer
_WARM_SWEEPS = 5  # multiplicative sweeps before the first Newton step
# Inputs with at most this mass are moved only by sweeps and revivals, and
# a revival gives at least this much; it is above ZERO_TOL, so it is kept.
_LIGHT_MASS = 1e-12
_FLAT_RTOL = 1e-12  # relative singular value below which a face direction is flat
_BACKTRACKS = 30  # tries of a line-searched Newton step, halved each time


def _divergences(rows: np.ndarray, logw: np.ndarray, sup: np.ndarray, p: np.ndarray):
    """(q, D) with q = pW and D[x] = D(W(.|x) || q); +inf where W(.|x) reaches
    an output that q gives no mass."""
    q = p @ rows
    with np.errstate(divide="ignore"):
        logq = np.where(q > 0, np.log(q), 0.0)
    d = np.where(sup, rows * (logw - logq), 0.0).sum(axis=1)
    return q, np.where((sup & (q <= 0)).any(axis=1), np.inf, d)


def _newton_step(b: np.ndarray, p: np.ndarray, d: np.ndarray, face: np.ndarray):
    """Newton step for a concave f(P) on the inputs of `face`, clipped to P >= 0.

    On the face, grad f = d (up to a constant, which the step ignores) and
    Hess f = -B B^T, bordered by sum dP = 0; for I(P;W), d = D and
    B = W diag(q^-1/2). With Z an orthonormal basis of {sum v = 0}, the step
    is Z (Z^T B B^T Z)^-1 Z^T d, taken through the SVD of Z^T B. A (near)
    zero singular value is a direction along which f is linear to second
    order: the step follows it, uphill, to the boundary. An input whose mass
    reaches 0 leaves the face with exact 0.
    """
    ia = np.flatnonzero(face)
    k = ia.size
    if k < 2:
        return None
    z = np.linalg.qr(np.column_stack([np.ones(k), np.eye(k)[:, : k - 1]]))[0][:, 1:]
    u, s, _ = np.linalg.svd(z.T @ b[ia])
    s = np.concatenate([s, np.zeros(k - 1 - s.size)])
    flat = s <= _FLAT_RTOL * s[0]
    if flat.any():
        step = z @ u[:, np.flatnonzero(flat)[0]]
        if step @ d[ia] < 0:
            step = -step
        t = np.inf
    else:
        step = z @ (u @ ((u.T @ (z.T @ d[ia])) / s**2))
        t = 1.0
    shrink = np.flatnonzero(step < 0)
    if shrink.size == 0:
        return None
    ratios = p[ia[shrink]] / -step[shrink]
    j = int(np.argmin(ratios))
    t = min(t, ratios[j])
    out = p.copy()
    out[ia] += t * step
    if t == ratios[j]:
        out[ia[shrink[j]]] = 0.0
    out = np.maximum(out, 0.0)
    return out / out.sum()


def _revive(grad, p: np.ndarray, x: int) -> np.ndarray:
    """Move mass toward input x along P + t(e_x - P), t by exact line search.

    `grad(P)` is the gradient of a concave f(P), up to a positive factor and
    an additive constant. The slope grad(P_t) . v, v = e_x - P, decreases in
    t, so its root is found in log t on [1e-12, 1]. An input whose optimal
    mass is below that gets 1e-12, where f is at most ~1e-12 short of the
    line's maximum.
    """
    v = -p
    v[x] += 1.0
    moved = v != 0

    def slope(log_t: float) -> float:
        return float(v[moved] @ grad(p + np.exp(log_t) * v)[moved])

    lo = float(np.log(_LIGHT_MASS))
    if slope(0.0) >= 0:
        t = 1.0
    elif slope(lo) <= 0:
        t = _LIGHT_MASS
    else:
        t = float(np.exp(monotone_root(slope, lo, 0.0)[0]))
    out = p + t * v
    return out / out.sum()


class _Iterate(NamedTuple):
    """One input law of a KKT ascent (see `_kkt_ascent`) and what it needs."""

    value: float  # the concave objective f at dist
    dist: Distribution
    d: np.ndarray  # grad f at dist, up to an additive constant
    gap: float  # certified bound on max f - value
    b: np.ndarray  # Hess f = -b b^T
    sweep: np.ndarray  # the next law of a multiplicative sweep, which never decreases f


def _kkt_ascent(
    point, grad, p0: np.ndarray, tol: float, max_steps: int, what: str, line_search: bool
) -> _Iterate:
    """Maximize a concave f(P) over the simplex to a certified gap <= tol.

    `point(P)` evaluates f, its gradient, Hessian factor, gap and sweep on
    Distribution(P), so the certificate holds after the zero rule; `grad(P)`
    is the gradient on a raw P, up to a positive factor. Five multiplicative
    sweeps, then Newton steps on the inputs with mass, a line-searched move
    toward the input with the largest gradient when the face is near its own
    optimum but an input off it breaks the KKT conditions, and a sweep
    whenever the Newton step lowers f. With `line_search`, a step that
    lowers f is first halved toward P, 30 tries in all, and one that meets
    the gap is taken even when rounding puts f an ulp lower. After
    max_steps, raises ConvergenceError carrying the gap.
    """
    cur = point(p0)
    for step in range(max_steps):
        if cur.gap <= tol:
            return cur
        p, d = cur.dist.probs, cur.d
        nxt = None
        if step >= _WARM_SWEEPS:
            used = p > 0
            level = float(p[used] @ d[used])
            face = p > _LIGHT_MASS
            inside = float(d[face].max()) - level
            rest = np.flatnonzero(~face)
            if rest.size and float(d[rest].max()) - level > 2.0 * max(inside, 0.0):
                nxt = point(_revive(grad, p, int(rest[np.argmax(d[rest])])))
            else:
                cand = _newton_step(cur.b, p, d, face)
                for _ in range(0 if cand is None else _BACKTRACKS if line_search else 1):
                    trial = point(cand)
                    # near the maximum the values tie to rounding; the gap decides
                    if trial.value >= cur.value or (line_search and trial.gap <= tol):
                        nxt = trial
                        break
                    cand = 0.5 * (p + cand)
        cur = point(cur.sweep) if nxt is None else nxt
    raise ConvergenceError(f"{what} did not certify a {tol:g} gap in {max_steps} steps", cur.gap)


@lru_cache(maxsize=256)
def _capacity_cached(w: Channel) -> tuple[float, Distribution]:
    rows = w.rows
    sup = w.supports
    logw = np.where(sup, np.log(np.where(sup, rows, 1.0)), 0.0)

    def point(p: np.ndarray) -> _Iterate:
        dist = Distribution(p)
        q, d = _divergences(rows, logw, sup, dist.probs)
        used = dist.probs > 0
        info = float(dist.probs[used] @ d[used])
        cols = q > 0
        ba = dist.probs * np.exp(np.where(used, d - d[used].max(), 0.0))  # Blahut-Arimoto
        return _Iterate(info, dist, d, float(d.max()) - info, rows[:, cols] / np.sqrt(q[cols]), ba / ba.sum())

    best = _kkt_ascent(
        point,
        lambda p: _divergences(rows, logw, sup, p)[1],
        np.full(w.nx, 1.0 / w.nx),
        CAPACITY_GAP,
        CAPACITY_MAX_STEPS,
        "capacity",
        line_search=False,
    )
    return best.value, best.dist


def capacity(w: Channel) -> tuple[float, Distribution]:
    """Channel capacity C = max_P I(P;W) and a maximizing input law.

    Newton's method on the KKT system (`_kkt_ascent`): five Blahut-Arimoto
    sweeps from the uniform law, then Newton steps on the inputs with mass
    (grad I = D(W(.|x)||PW) - 1, Hess I = -W diag(1/PW) W^T; an input leaves
    the face when its mass reaches 0, and the step goes to the boundary
    where the face's rows are linearly dependent), a line-searched move
    toward the input with the largest D(W(.|x)||PW) when the face is optimal
    but the KKT conditions fail, and a Blahut-Arimoto sweep whenever a
    Newton step does not ascend. Returns (C, P) only when
    the duality gap max_x D(W(.|x)||PW) - I(P;W) on the returned P is at
    most 1e-10, so C is within 1e-10 below the true capacity; otherwise,
    after 500 steps, raises ConvergenceError carrying the gap.
    """
    return _capacity_cached(w)


def _e0_parts(ws: np.ndarray, rho: float, p: np.ndarray):
    """(log G, a, on, q, c) for G = sum_y a_y^(1+rho), a = P W^(1/(1+rho)).

    `on` marks the outputs with a > 0, q = a^(1+rho) / G on them (the tilted
    output law), and c_x = sum_y W(y|x)^(1/(1+rho)) a_y^rho / G, so that
    dG/dP(x) = (1+rho) G c_x and sum_x P(x) c_x = 1.
    """
    a = p @ ws
    on = a > 0
    s = (1.0 + rho) * np.log(a[on])
    top = float(s.max())
    e = np.exp(s - top)
    total = float(e.sum())
    q = e / total
    return top + np.log(total), a, on, q, ws[:, on] @ (q / a[on])


def gallager_e0(w: Channel, rho: float, p0: np.ndarray | None = None) -> tuple[float, Distribution, float]:
    """Gallager's E_0(rho) = max_P -log sum_y (sum_x P(x) W(y|x)^(1/(1+rho)))^(1+rho).

    Returns (E_0(rho), a maximizing P, E_0'(rho)). G(P) = sum_y a_y^(1+rho)
    is convex in P, so this is `_kkt_ascent` on -G: Arimoto's sweep
    P <- P c^(-1/rho) (Arimoto, IEEE T-IT 1976) from p0 (default uniform),
    then Newton steps with grad = (1 - c) / rho and Hessian factor
    W^(1/(1+rho)) diag(q^(1/2) / a), all scaled by 1/G; rho -> 0 gives the
    capacity iteration. Returns only when the Frank-Wolfe gap
    -log(1 - (1+rho)(1 - min_x c_x)), a bound on E_0(rho) minus the value
    at the returned P, is at most 1e-12, and raises ConvergenceError
    carrying it otherwise. E_0'(rho) is the envelope derivative: the rho
    derivative of -log G at the returned P.
    """
    if not rho > 0:
        raise DomainError(f"Gallager's E_0 solve needs rho > 0, got {rho}")
    beta = 1.0 / (1.0 + rho)
    sup = w.supports
    ws = np.where(sup, w.rows, 0.0) ** beta
    wl = np.where(sup, ws * np.log(np.where(sup, w.rows, 1.0)), 0.0)

    def point(p: np.ndarray) -> _Iterate:
        dist = Distribution(p)
        pp = dist.probs
        log_g, a, on, q, c = _e0_parts(ws, rho, pp)
        fw = (1.0 + rho) * (1.0 - float(c.min()))
        gap = float(-np.log1p(-fw)) if fw < 1.0 else float("inf")
        used = pp > 0
        step = np.log(c, out=np.zeros_like(c), where=used) / -rho
        ar = pp * np.exp(np.where(used, step - step[used].max(), 0.0))  # Arimoto
        b = ws[:, on] * (np.sqrt(q) / a[on])
        return _Iterate(-float(log_g), dist, (1.0 - c) / rho, gap, b, ar / ar.sum())

    start = np.full(w.nx, 1.0 / w.nx) if p0 is None else p0
    # at large rho whole Newton steps overshoot and Arimoto sweeps crawl
    best = _kkt_ascent(
        point, lambda p: -_e0_parts(ws, rho, p)[4], start, GALLAGER_GAP, CAPACITY_MAX_STEPS, "E_0",
        line_search=True,
    )
    _, a, on, q, _ = _e0_parts(ws, rho, best.dist.probs)
    slope = -float(q @ np.log(a[on])) + float((best.dist.probs @ wl)[on] @ (q / a[on])) * beta
    return best.value, best.dist, slope


@lru_cache(maxsize=256)
def _r_infinity_cached(w: Channel) -> float:
    a = w.supports.astype(float)
    value, p, q = matrix_game(a)
    hi = float((p @ a).max())  # >= value, so -log hi <= R_inf
    lo = float((a @ q).min())  # <= value, so -log lo >= R_inf
    gap = abs(float(np.log(hi / lo))) if lo > 0 else float("inf")
    if not gap <= 1e-12:
        raise ConvergenceError(f"R_inf game: primal and dual bounds disagree by {gap:.3g} nats", gap)
    return float(-np.log(value))


def r_infinity(w: Channel) -> float:
    """R_inf = max_P min {I(P;V) : V(.|x) << W(.|x) on S(P)}, in nats.

    For fixed P the inner minimum is min_Q -sum_x P(x) log Q(S_x), with S_x
    the support of W(.|x), so by Sion's minimax theorem
    R_inf = -log max_Q min_x Q(S_x): minus the log of the value of the 0/1
    matrix game A[x, y] = 1{W(y|x) > 0} (Csiszar-Korner). The game is solved
    exactly by the simplex method; the result is returned only when the
    primal bound -log max_y (A^T P)_y and the dual bound -log min_x Q(S_x)
    agree within 1e-12, and ConvergenceError is raised otherwise.

    Exactly 0 when some output is reachable from every input (strictly
    positive channels among them), log k for the k-ary identity channel.
    """
    if w.supports.all(axis=0).any():
        return 0.0
    return _r_infinity_cached(w)
