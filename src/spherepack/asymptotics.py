"""Sharp (Bahadur-Ranga Rao style) lower bound for independent sums.

For independent finite-support real random variables Z_1..Z_n with cgf's
Lambda_i and a level q admitting a tilt eta in (0,1] with
(1/n) sum_i Lambda_i'(eta) = q, the tail of the empirical mean S_n obeys

    P(S_n >= q) >= exp(-n Lambda_n*(q)) * exp(-K_n(eta)) / (2 sqrt(2 pi m2n))

provided sqrt(m2n) >= 1 + (1 + K_n(eta))^2, where m2n / m3n are the summed
tilted variances / third absolute central moments,
K_n(eta) = 2 sqrt(2 pi) c m3n / m2n with the Berry-Esseen constant c = 30/4,
and Lambda_n*(q) = q eta - (1/n) sum_i Lambda_i(eta).

The eta <= 1 cap is an application-specific convention: `eta_cap` widens it
explicitly for other uses, a root past the cap always raises. The constant
c is fixed at 30/4; `berry_esseen_c` exists for tests only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import monotone_root

BERRY_ESSEEN_C = 30.0 / 4.0
ATOM_MERGE_TOL = 1e-12


@dataclass(frozen=True)
class FiniteSupportRV:
    """Atoms (value, probability) of a real random variable.

    Values closer than 1e-12 are merged (probabilities added) at
    construction so supports stay well-defined under convolution.
    """

    values: np.ndarray
    probs: np.ndarray

    def __init__(self, values, probs) -> None:
        v = np.asarray(values, dtype=float)
        p = np.asarray(probs, dtype=float)
        if v.ndim != 1 or v.shape != p.shape or v.size == 0:
            raise DomainError("atoms must be matching non-empty 1-d arrays")
        if np.any(p <= 0):
            raise DomainError("atom probabilities must be positive")
        if abs(p.sum() - 1.0) > 1e-12:
            raise DomainError(f"atom probabilities sum to {p.sum()}, not 1")
        order = np.argsort(v)
        v, p = v[order], p[order]
        merged_v, merged_p = [], []
        for val, pr in zip(v, p):
            if merged_v and val - merged_v[-1] <= ATOM_MERGE_TOL:
                tot = merged_p[-1] + pr
                merged_v[-1] = (merged_v[-1] * merged_p[-1] + val * pr) / tot
                merged_p[-1] = tot
            else:
                merged_v.append(val)
                merged_p.append(pr)
        v = np.asarray(merged_v)
        p = np.asarray(merged_p)
        p = p / p.sum()
        v.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "probs", p)

    def mean(self) -> float:
        return float(self.probs @ self.values)

    def max_value(self) -> float:
        return float(self.values[-1])

    def cgf(self, eta: float) -> float:
        """Lambda(eta) = log E[e^{eta Z}]."""
        logits = np.log(self.probs) + eta * self.values
        m = logits.max()
        return float(m + np.log(np.exp(logits - m).sum()))

    def cgf_prime(self, eta: float) -> float:
        """Lambda'(eta), the tilted mean."""
        logits = np.log(self.probs) + eta * self.values
        z = np.exp(logits - logits.max())
        return float((z @ self.values) / z.sum())


def tilt_rv(rv: FiniteSupportRV, eta: float) -> FiniteSupportRV:
    """Exponential tilt: atom probabilities reweighted by e^{eta z}, exactly
    renormalized. The tilted mean is Lambda'(eta)."""
    logits = np.log(rv.probs) + eta * rv.values
    z = np.exp(logits - logits.max())
    return FiniteSupportRV(rv.values, z / z.sum())


@dataclass(frozen=True)
class SlbReport:
    """The sharp-lower-bound decomposition for one (rvs, q) instance.

    `condition_ok` reflects sqrt(m2n) >= 1 + (1 + K_n(eta))^2; when it fails
    the bound is reported as 0 (with all intermediate quantities intact) so
    callers can see that n is too small rather than receive a wrong number.
    `log_bound` carries the log-domain value of the bound (-inf when 0).
    """

    eta: float
    m2n: float
    m3n: float
    kn: float
    lambda_star: float
    bound: float
    condition_ok: bool
    log_bound: float


def solve_eta(
    rvs: list[FiniteSupportRV],
    q: float,
    eta_cap: float = 1.0,
) -> float:
    """The tilt eta in (0, eta_cap] with (1/n) sum_i Lambda_i'(eta) = q.

    The map is strictly increasing; its root is solved by Brent-Dekker on
    [0, eta_cap]. q at or below the mean has no positive tilt; a root beyond
    the cap raises rather than silently exceeding it.
    """
    if not rvs:
        raise DomainError("need at least one random variable")
    n = len(rvs)

    def mean_tilted(eta: float) -> float:
        return sum(rv.cgf_prime(eta) for rv in rvs) / n

    m0 = mean_tilted(0.0)
    if q <= m0 + 1e-15:
        raise DomainError(f"no positive tilt: q = {q} is not above the mean {m0}")
    vmax = sum(rv.max_value() for rv in rvs) / n
    if q >= vmax:
        raise DomainError(f"q = {q} is at or beyond the maximum {vmax}")
    if mean_tilted(eta_cap) < q:
        raise DomainError(f"eta out of range: the root exceeds the cap {eta_cap}")
    eta, _ = monotone_root(lambda eta: mean_tilted(eta) - q, 0.0, eta_cap)
    return eta


def slb_bound(
    rvs: list[FiniteSupportRV],
    q: float,
    eta_cap: float = 1.0,
    berry_esseen_c: float = BERRY_ESSEEN_C,
) -> SlbReport:
    """Sharp lower bound on P((1/n) sum Z_i >= q) with explicit constants."""
    n = len(rvs)
    eta = solve_eta(rvs, q, eta_cap=eta_cap)
    m2n = 0.0
    m3n = 0.0
    cgf_sum = 0.0
    for rv in rvs:
        tilted = tilt_rv(rv, eta)
        mu = tilted.mean()
        cen = tilted.values - mu
        m2n += float(tilted.probs @ cen**2)
        m3n += float(tilted.probs @ np.abs(cen) ** 3)
        cgf_sum += rv.cgf(eta)
    kn = 2.0 * np.sqrt(2.0 * np.pi) * berry_esseen_c * m3n / m2n
    lambda_star = q * eta - cgf_sum / n
    condition_ok = bool(np.sqrt(m2n) >= 1.0 + (1.0 + kn) ** 2)
    if condition_ok:
        log_bound = -n * lambda_star - kn - np.log(2.0 * np.sqrt(2.0 * np.pi * m2n))
        bound = float(np.exp(log_bound))
    else:
        log_bound = float("-inf")
        bound = 0.0
    return SlbReport(
        eta=float(eta),
        m2n=float(m2n),
        m3n=float(m3n),
        kn=float(kn),
        lambda_star=float(lambda_star),
        bound=bound,
        condition_ok=condition_ok,
        log_bound=float(log_bound),
    )
