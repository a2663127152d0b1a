"""Exact Neyman-Pearson machinery for product measures.

The law of the total log-likelihood ratio t = sum_n log(alt/null) under the
null is built from type classes. For a letter used m times whose merged
single-letter law has d distinct values t_j with masses p_j, every count
vector (n_1..n_d) with sum n_j = m is one atom: value sum n_j t_j and
log-mass log m! - sum log n_j! + sum n_j log p_j. A composition of several
letters then takes one cross-letter convolution per further letter. Where
values coincide (lattice-valued letters, values shared between letters) so
that few atoms survive, the builder convolves one copy at a time instead,
choosing by the number of products each path forms. Atom
values are float64; probabilities are 80-bit long-double logs (thousand-fold
products underflow the linear domain), combined on merge by segment
log-sum-exp.

Mass off the common support is tracked by two scalars per law:
- null-only mass (strings with a letter where only the null has support):
  any admissible test accepts these as null, they cost nothing;
- alt-only mass: always rejected, costs nothing on the alt side.

`alpha_star` is the deterministic Neyman-Pearson rule over the merged
atoms: sort by t ascending (smaller t = more null-like) and accept atoms
greedily while the accumulated alt mass fits the e^{-r} budget. Ties do not
arise after merging (values within 1e-12 are one atom); the result is the
best deterministic threshold test, a step function of r.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import AtomBudgetError, DomainError
from .probability import ZERO_TOL, Channel, Distribution, r_infinity
from .shifted import ShiftedContext, tilde_esp

ATOM_CAP = 2_000_000
VALUE_MERGE_TOL = 1e-12
# atoms per enumerated block and the least pooled before a merge: bounds the
# transient arrays when type classes or products far outnumber distinct values
MERGE_BLOCK = 1 << 17
LD = np.longdouble


def _merge_atoms(t: np.ndarray, logp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort by value and merge atoms closer than the value tolerance.

    Probabilities are combined by segment log-sum-exp in long double;
    merged values are probability-weighted means (drift is below the
    tolerance by construction).
    """
    order = np.argsort(t, kind="stable")
    t = t[order]
    logp = logp[order]
    if t.size <= 1:
        return t, logp
    starts = np.flatnonzero(np.concatenate(([True], np.diff(t) > VALUE_MERGE_TOL)))
    if starts.size == t.size:
        return t, logp
    seg_max = np.maximum.reduceat(logp, starts)
    rep = np.diff(np.concatenate((starts, [t.size])))
    scaled = np.exp(logp - np.repeat(seg_max, rep))
    seg_sum = np.add.reduceat(scaled, starts)
    merged_logp = seg_max + np.log(seg_sum)
    weighted_t = np.add.reduceat(np.asarray(t, dtype=LD) * scaled, starts) / seg_sum
    return np.asarray(weighted_t, dtype=float), merged_logp


@dataclass(frozen=True)
class LogLrLaw:
    """Atoms of the total per-string log-likelihood ratio under the null.

    t holds log(alt/null); logp_null the long-double log of the null mass;
    the alt mass of an atom is recovered exactly as exp(logp_null + t).
    """

    t: np.ndarray
    logp_null: np.ndarray
    null_only_mass: float
    alt_only_mass: float

    @property
    def logp_alt(self) -> np.ndarray:
        return self.logp_null + np.asarray(self.t, dtype=LD)

    def null_common_mass(self) -> float:
        return float(np.exp(self.logp_null).sum()) if self.t.size else 0.0

    def alt_common_mass(self) -> float:
        return float(np.exp(self.logp_alt).sum()) if self.t.size else 0.0


@dataclass(frozen=True)
class TradeoffPoint:
    """One deterministic test on the likelihood-ratio scale.

    alpha: null mass rejected, beta: alt mass accepted, threshold: largest
    accepted atom value (-inf if nothing is accepted). Log-domain copies are
    carried for blocklengths where the linear values underflow float64.
    """

    alpha: float
    beta: float
    threshold: float
    log_alpha: float
    log_beta: float


def _letter_law(null_row: Distribution, alt_row: Distribution) -> tuple[np.ndarray, np.ndarray, LD, LD]:
    if null_row.size != alt_row.size:
        raise DomainError("letter laws need matching alphabets")
    # a float64 row sums to 1 only to ~1e-17 (0.9 + 0.1 = 1 + 2.8e-17), and
    # m copies of a letter multiply that drift by m: normalize and take the
    # logs in long double, so logp and t are each rounded once
    n, a = (np.asarray(r.probs, dtype=LD) for r in (null_row, alt_row))
    n /= n.sum()
    a /= a.sum()
    common = (n > ZERO_TOL) & (a > ZERO_TOL)
    logp = np.log(n[common])
    t = np.asarray(np.log(a[common]) - logp, dtype=float)
    null_common = n[common].sum()
    alt_common = a[common].sum()
    return t, logp, null_common, alt_common


def _merge_checked(ts: list[np.ndarray], logps: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    t, logp = _merge_atoms(np.concatenate(ts), np.concatenate(logps))
    if t.size > ATOM_CAP:
        raise AtomBudgetError(f"the law grew to {t.size} atoms (cap {ATOM_CAP}); coarsen the instance")
    return t, logp


def _merge_blocks(blocks: Iterator[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Merge a stream of atom blocks into one law.

    Blocks are pooled until the pool holds MERGE_BLOCK atoms and at least
    as many as the merged law, then merged into it. Each atom so takes part
    in O(1) sorts on average, and the pool stays within one block of
    max(MERGE_BLOCK, merged law size). A merged law past the atom cap raises.
    """
    ts, logps = [np.zeros(0)], [np.zeros(0, dtype=LD)]  # the merged law, then the pool
    pooled = 0
    for block_t, block_logp in blocks:
        ts.append(block_t)
        logps.append(block_logp)
        pooled += block_t.size
        if pooled >= max(MERGE_BLOCK, ts[0].size):
            t, logp = _merge_checked(ts, logps)
            ts, logps, pooled = [t], [logp], 0
    return _merge_checked(ts, logps)


def _type_classes(m: int, d: int, prefix: np.ndarray | None = None) -> Iterator[np.ndarray]:
    """Every count vector (n_1..n_d) with sum m (stars and bars), in blocks
    of at most max(MERGE_BLOCK, m + 1) rows.

    `prefix` holds the leading coordinates fixed so far; each level appends
    one coordinate, expanding a chunk of rows at a time.
    """
    if prefix is None:
        prefix = np.zeros((1, 0), dtype=np.int64)
    room = m - prefix.sum(axis=1)
    if prefix.shape[1] == d - 1:
        yield np.column_stack((prefix, room))
        return
    ends = np.cumsum(room + 1)
    start = 0
    while start < room.size:
        base = ends[start - 1] if start else 0
        stop = max(int(np.searchsorted(ends, base + MERGE_BLOCK, side="right")), start + 1)
        sizes = room[start:stop] + 1
        rows = np.repeat(prefix[start:stop], sizes, axis=0)
        nxt = np.arange(rows.shape[0]) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        yield from _type_classes(m, d, np.column_stack((rows, nxt)))
        start = stop


def _power_blocks(
    t: np.ndarray, logp: np.ndarray, m: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Atoms of the m-fold law of one merged letter law, one block of type
    classes at a time: value sum n_j t_j, log-mass
    log m! - sum log n_j! + sum n_j log p_j (sums in long double)."""
    log_fact = np.concatenate(([LD(0.0)], np.cumsum(np.log(np.arange(1, m + 1, dtype=LD)))))
    t_ld = np.asarray(t, dtype=LD)
    for counts in _type_classes(m, t.size):
        yield (
            np.asarray(counts @ t_ld, dtype=float),
            log_fact[m] - log_fact[counts].sum(axis=1) + counts @ logp,
        )


def _product_blocks(
    t_a: np.ndarray, logp_a: np.ndarray, t_b: np.ndarray, logp_b: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Atoms of the convolution of two laws, a chunk of rows of the first at
    a time (at most max(MERGE_BLOCK, |b|) atoms per block)."""
    rows = max(1, MERGE_BLOCK // t_b.size)
    for i in range(0, t_a.size, rows):
        yield (
            (t_a[i : i + rows, None] + t_b[None, :]).ravel(),
            (logp_a[i : i + rows, None] + logp_b[None, :]).ravel(),
        )


def _copies(
    t: np.ndarray, logp: np.ndarray, lt: np.ndarray, llogp: np.ndarray, m: int, budget: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """The law (t, logp) convolved with m copies of a merged letter law, one
    copy at a time with a merge after each.

    Returns None, having formed at most `budget` products, as soon as the
    products formed plus the fewest still needed (copies left x letter atoms
    x current atoms; a merged law does not shrink under a convolution)
    exceed `budget`: the caller then takes the other path.
    """
    spent = 0
    for left in range(m, 0, -1):
        step = lt.size * t.size
        if spent + left * step > budget:
            return None
        spent += step
        t, logp = _merge_blocks(_product_blocks(t, logp, lt, llogp))
    return t, logp


def build_loglr_law(
    pairs: list[tuple[Distribution, Distribution, int]],
) -> LogLrLaw:
    """Exact law of the total log-likelihood ratio of a product of letters.

    `pairs` lists (null row, alt row, multiplicity). Each letter's law is
    merged to its d distinct values and raised to its multiplicity m by
    type classes (one atom per count vector, multinomial log-mass); the
    letters are then combined by one convolution each. Both steps pay off
    when the values are in general position, so that type classes and
    cross-letter products are nearly all distinct atoms. When values are
    integer multiples of a few constants, or shared between letters, far
    fewer atoms survive the merge, and one-copy-at-a-time convolution is
    cheaper. Each step therefore counts its work in products formed: the
    power is built copy by copy while that can still finish within
    C(m+d-1, d-1) products (its type classes), else by type classes; the
    join convolves the running law copy by copy while that can still finish
    within |law| x |power| products, else takes that one product. Either way
    a step forms at most about twice the products of the cheaper path.

    Type classes and products are enumerated in blocks merged into the
    running law, atoms are merged at 1e-12 value tolerance, and a merged
    law past the atom cap raises (coarsen the instance). Masses off the
    common support accumulate into the two scalar fields.
    """
    t_tot = np.zeros(1)
    logp_tot = np.zeros(1, dtype=LD)
    log_null_common = LD(0.0)
    log_alt_common = LD(0.0)
    for null_row, alt_row, mult in pairs:
        if isinstance(mult, (bool, np.bool_)) or not isinstance(mult, (int, np.integer)):
            raise DomainError(f"multiplicities must be integers, got {mult!r}")
        if mult < 0:
            raise DomainError("multiplicities must be non-negative")
        if mult == 0:
            continue
        lt, llogp, n_common, a_common = _letter_law(null_row, alt_row)
        if lt.size == 0:
            # no common support at this letter: the product common region is empty
            return LogLrLaw(
                t=np.zeros(0),
                logp_null=np.zeros(0, dtype=LD),
                null_only_mass=1.0,
                alt_only_mass=1.0,
            )
        log_null_common += LD(mult) * np.log(n_common)
        log_alt_common += LD(mult) * np.log(a_common)
        lt, llogp = _merge_atoms(lt, llogp)
        m, d = int(mult), lt.size
        power = _copies(np.zeros(1), np.zeros(1, dtype=LD), lt, llogp, m, comb(m + d - 1, d - 1))
        if power is None:
            power = _merge_blocks(_power_blocks(lt, llogp, m))
        joined = None
        if t_tot.size > 1:  # against one atom the product is a shift of the power
            joined = _copies(t_tot, logp_tot, lt, llogp, m, t_tot.size * power[0].size)
        if joined is None:
            joined = _merge_blocks(_product_blocks(t_tot, logp_tot, *power))
        t_tot, logp_tot = joined
    null_only = float(LD(1.0) - np.exp(log_null_common))
    alt_only = float(LD(1.0) - np.exp(log_alt_common))
    return LogLrLaw(
        t=t_tot,
        logp_null=logp_tot,
        null_only_mass=max(null_only, 0.0),
        alt_only_mass=max(alt_only, 0.0),
    )


def _log_from_ld(x: LD) -> float:
    return float(np.log(x)) if x > 0 else float("-inf")


def _budget_pass(law: LogLrLaw, r: float) -> tuple[LD, np.ndarray, np.ndarray, int, LD]:
    """The cumulative pass both Neyman-Pearson values share.

    Returns the budget e^{-r}, the null and alt atom masses, the number k of
    atoms (ascending t) whose accumulated alt mass fits the budget, and that
    accumulated mass.
    """
    if not r >= 0:  # also rejects NaN; +inf is a valid (zero) budget
        raise DomainError(f"the rate budget r must be non-negative, got {r!r}")
    budget = np.exp(LD(-r))
    p_alt = np.exp(law.logp_alt)
    cum_alt = np.cumsum(p_alt)
    k = int(np.searchsorted(cum_alt, budget * (LD(1.0) + LD(1e-15)), side="right"))
    # t is rounded to float64, so alt masses close to 1 only to ~1e-16 per letter
    spent = min(cum_alt[k - 1], LD(1.0)) if k > 0 else LD(0.0)
    return budget, np.exp(law.logp_null), p_alt, k, spent


def alpha_star(law: LogLrLaw, r: float) -> TradeoffPoint:
    """Minimum type-I error over deterministic threshold tests with type-II
    error at most e^{-r}.

    Null-only mass is always accepted (contributes to neither error);
    alt-only mass is always rejected. Atoms enter the accept region in
    ascending t order while the accumulated alt mass stays within budget.
    """
    _, p_null, _, k, beta_ld = _budget_pass(law, r)
    alpha_ld = p_null[k:][::-1].sum() if k < p_null.size else LD(0.0)
    threshold = float(law.t[k - 1]) if k > 0 else float("-inf")
    return TradeoffPoint(
        alpha=float(alpha_ld),
        beta=float(beta_ld),
        threshold=threshold,
        log_alpha=_log_from_ld(alpha_ld),
        log_beta=_log_from_ld(beta_ld),
    )


def alpha_star_fractional(law: LogLrLaw, r: float) -> float:
    """The randomized-boundary Neyman-Pearson value: pack atoms by ascending
    t and split the boundary atom so the alt budget is consumed exactly.

    This is a true lower bound on the type-I error of *every* test
    (deterministic or not) with type-II error at most e^{-r}; the
    deterministic `alpha_star` is >= this value, with equality whenever the
    budget boundary falls between atoms.
    """
    budget, p_null, p_alt, k, spent = _budget_pass(law, r)
    if k == p_null.size:
        return 0.0
    frac = (budget - spent) / p_alt[k]
    alpha = p_null[k:].sum() - min(max(frac, LD(0.0)), LD(1.0)) * p_null[k]
    return float(max(alpha, LD(0.0)))


def round_to_type(p: Distribution, n: int) -> np.ndarray:
    """Nearest n-type to p in L1 (largest-remainder rounding of n*p)."""
    if n < 0:
        raise DomainError(f"a type needs a non-negative length, got n = {n}")
    raw = p.probs * n
    base = np.floor(raw).astype(int)
    short = n - int(base.sum())
    if short > 0:
        order = np.argsort(-(raw - base), kind="stable")
        base[order[:short]] += 1
    return base


def np_alpha_for_composition(
    w: Channel, q: Distribution, p: Distribution, n: int, rate: float
) -> TradeoffPoint:
    """alpha*_{W(.|x^N), q^N}(n*rate) for a length-n string of composition p
    (rounded to the nearest n-type)."""
    counts = round_to_type(p, n)
    pairs = [
        (w.row(x), q, int(counts[x]))
        for x in range(w.nx)
        if counts[x] > 0
    ]
    law = build_loglr_law(pairs)
    return alpha_star(law, n * rate)


@dataclass(frozen=True)
class ThresholdTestResult:
    """Exact error probabilities of the varying-threshold likelihood test."""

    alpha: float
    beta: float
    log_alpha: float
    log_beta: float
    r_n: float
    e_tilde_rn: float
    threshold: float
    counts: tuple[int, ...]


def threshold_test_alpha_beta(
    ctx: ShiftedContext, n: int, zeta: float
) -> ThresholdTestResult:
    """Exact alpha_N, beta_N of the test that accepts the channel when the
    per-letter average of log(W^-/W) falls below etilde(r_N) - r_N.

    eps_N = (1/2 + zeta) log(N)/N and r_N = r(R,P) - eps_N. The composition
    is rounded to the nearest n-type; the returned counts say which.
    """
    if n < 2 or zeta <= 0:
        raise DomainError("need n >= 2 and zeta > 0")
    eps_n = (0.5 + zeta) * np.log(n) / n
    if ctx.R - eps_n <= r_infinity(ctx.channel):
        raise DomainError("N too small: R_N has fallen to R_inf")
    r_n = ctx.r - eps_n
    if r_n <= 0:
        raise DomainError("N too small: the shifted budget r_N is not positive")
    e_tilde = tilde_esp(ctx, r_n).value
    thr = n * (e_tilde - r_n)

    counts = round_to_type(ctx.P, n)
    pairs = [
        (ctx.channel.row(x), ctx.w_minus.row(x), int(counts[x]))
        for x in range(ctx.channel.nx)
        if counts[x] > 0
    ]
    law = build_loglr_law(pairs)
    # W and W^- are mutually absolutely continuous row-wise: no off-support mass
    tol = 1e-11 * max(1.0, abs(thr))
    reject = law.t >= thr - tol
    p_null = np.exp(law.logp_null)
    p_alt = np.exp(law.logp_alt)
    alpha_ld = p_null[reject].sum() if reject.any() else LD(0.0)
    beta_ld = p_alt[~reject].sum() if (~reject).any() else LD(0.0)
    return ThresholdTestResult(
        alpha=float(alpha_ld),
        beta=float(beta_ld),
        log_alpha=_log_from_ld(alpha_ld),
        log_beta=_log_from_ld(beta_ld),
        r_n=float(r_n),
        e_tilde_rn=float(e_tilde),
        threshold=float(thr),
        counts=tuple(int(c) for c in counts),
    )
