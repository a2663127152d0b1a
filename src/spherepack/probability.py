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

import numpy as np

from .errors import AlphabetMismatchError, ConfigError, ConvergenceError, DomainError
from .numerics import refine_simplex_max, simplex_grid

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


def _tilt_row_raw(w_row: np.ndarray, q: np.ndarray, lam: float) -> np.ndarray:
    """Normalized w^(1-lam) q^lam computed in the log domain.

    Invariant under rescaling of q. Entries off S(w) or S(q) are exactly 0.
    """
    common = (w_row > ZERO_TOL) & (q > ZERO_TOL)
    if not common.any():
        raise DomainError("tilt undefined: disjoint supports (zero normalizer)")
    logt = (1.0 - lam) * np.log(w_row[common]) + lam * np.log(q[common])
    logt -= logt.max()
    t = np.exp(logt)
    out = np.zeros_like(w_row)
    out[common] = t / t.sum()
    return out


def tilted_channel_row(w_row: Distribution, q: Distribution, lam: float) -> Distribution:
    """The tilted row: proportional to w(y)^(1-lam) q(y)^lam on the common support.

    Defined for lam in (0,1); at lam = 0 exactly, the convention is that the
    caller uses w_row itself, so lam = 0 is rejected here. As lam -> 0 the
    result tends to w_row restricted to S(q) & S(w_row), renormalized.
    """
    _check_same_alphabet(w_row, q)
    if not (0.0 < lam < 1.0):
        raise DomainError(f"tilt parameter must lie in (0,1), got {lam}")
    return Distribution(_tilt_row_raw(w_row.probs, q.probs, lam))


# ---------------------------------------------------------------------------
# capacity and R_infinity
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _capacity_cached(w: Channel) -> tuple[float, Distribution]:
    rows = w.rows
    sup = w.supports
    logw = np.where(sup, np.log(np.where(sup, rows, 1.0)), 0.0)
    p = np.full(w.nx, 1.0 / w.nx)
    gap = float("inf")
    c_lo = 0.0
    for _ in range(100_000):
        q = p @ rows
        # per-input divergence D(W(.|x) || q); q > 0 on every used column
        with np.errstate(divide="ignore"):
            logq = np.where(q > 0, np.log(np.where(q > 0, q, 1.0)), -np.inf)
        d = np.where(sup, logw - logq[None, :], 0.0)
        dx = (rows * d).sum(axis=1)
        c_lo = float(p @ dx)
        c_up = float(dx.max())
        gap = c_up - c_lo
        if gap <= 1e-10:
            break
        p_new = p * np.exp(dx - c_up)
        p_new /= p_new.sum()
        if np.abs(p_new - p).sum() <= 1e-12 * max(1.0, np.abs(p).sum()):
            p = p_new
            break
        p = p_new
    if gap > 1e-9:
        raise ConvergenceError("capacity iteration did not certify a 1e-9 duality gap", gap)
    return c_lo, Distribution(p)


def capacity(w: Channel) -> tuple[float, Distribution]:
    """Channel capacity by alternating maximization.

    Returns (C, capacity-achieving input distribution); the duality-gap
    certificate max_x D(W(.|x)||q) - I(P;W) is driven below 1e-9.
    """
    return _capacity_cached(w)


def _min_dominated_information(w: Channel, p: Distribution, tol: float = 1e-13) -> float:
    """min I(P;V) over V with V(.|x) << W(.|x) on S(P), by alternating minimization.

    Alternates the exact partial minimizers of D(V||Q|P): V-rows are Q
    restricted to S(W(.|x)) and renormalized, Q is the output marginal.
    """
    sup_p = p.support
    if not sup_p.any():
        return 0.0
    masks = w.supports[sup_p]
    weights = p.probs[sup_p]
    q = weights @ w.rows[sup_p]
    prev = float("inf")
    for _ in range(100_000):
        v = np.where(masks, q[None, :], 0.0)
        norm = v.sum(axis=1)
        if np.any(norm <= 0):
            # a row lost all mass: restart that row from the channel row
            v = np.where(norm[:, None] > 0, v, w.rows[sup_p])
            norm = v.sum(axis=1)
        v = v / norm[:, None]
        q = weights @ v
        cur = 0.0
        for i in range(v.shape[0]):
            cur += weights[i] * _kl_arrays(v[i], q)
        if prev - cur <= tol:
            return max(cur, 0.0)
        prev = cur
    return max(prev, 0.0)


@lru_cache(maxsize=256)
def _r_infinity_cached(w: Channel, resolution: int) -> float:
    # I(P;V) is concave in P for each V, so the minimum over dominated V is
    # concave in P and grid + coordinate ascent finds the global maximum.
    grid = simplex_grid(w.nx, resolution)
    vals = [
        _min_dominated_information(w, Distribution(g)) for g in grid
    ]
    i0 = int(np.argmax(vals))
    p0, best = grid[i0], vals[i0]

    def objective(arr: np.ndarray) -> float:
        return _min_dominated_information(w, Distribution(arr))

    p_ref, best_ref = refine_simplex_max(objective, p0, best, step0=1.0 / resolution)
    return float(max(best, best_ref, 0.0))


def r_infinity(w: Channel, resolution: int = 16) -> float:
    """max_P min {I(P;V) : V(.|x) << W(.|x) on S(P)}.

    0 for strictly positive channels (identical dominated rows exist),
    log k for the k-ary identity channel.
    """
    if w.nx == 1:
        return 0.0
    # strictly positive channels admit identical dominated rows immediately
    if w.supports.all():
        return 0.0
    # a globally shared output letter also forces R_inf = 0
    if w.supports.all(axis=0).any():
        return 0.0
    return _r_infinity_cached(w, resolution)
