"""Shared fixtures and independent oracle helpers for the test suite."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from spherepack.errors import AtomBudgetError, DomainError
from spherepack.nptest import ATOM_CAP, LD, LogLrLaw, _letter_law, _merge_atoms
from spherepack.numerics import refine_simplex_max, simplex_grid
from spherepack.probability import Channel, Distribution, capacity, r_infinity
from spherepack.saddle import esp_value


@pytest.fixture(scope="session")
def bsc01() -> Channel:
    return Channel([[0.9, 0.1], [0.1, 0.9]])


@pytest.fixture(scope="session")
def zchannel03() -> Channel:
    return Channel([[1.0, 0.0], [0.3, 0.7]])


@pytest.fixture(scope="session")
def uniform2() -> Distribution:
    return Distribution([0.5, 0.5])


def bsc(p: float) -> Channel:
    return Channel([[1 - p, p], [p, 1 - p]])


def bsc_esp_closed_form(p: float, rate: float) -> float:
    """D(delta || p) with h(delta) = log 2 - rate, delta in (p, 1/2)."""
    target = np.log(2.0) - rate
    lo, hi = 1e-14, 0.5 - 1e-14
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        h = -mid * np.log(mid) - (1 - mid) * np.log1p(-mid)
        if h < target:
            lo = mid
        else:
            hi = mid
    d = 0.5 * (lo + hi)
    return float(d * np.log(d / p) + (1 - d) * np.log((1 - d) / (1 - p)))


def random_channel(
    rng: np.random.Generator,
    nx: int,
    ny: int,
    sparse: bool = False,
    min_gap: float = 0.05,
) -> Channel:
    """A random channel with C - R_inf >= min_gap (resampled until true)."""
    for _ in range(200):
        rows = rng.dirichlet(np.ones(ny) * 2.0, size=nx)
        if sparse:
            mask = rng.random((nx, ny)) < 0.3
            keep = rows.argmax(axis=1)
            mask[np.arange(nx), keep] = False
            rows = np.where(mask, 0.0, rows)
            rows = rows / rows.sum(axis=1, keepdims=True)
        w = Channel(rows)
        c, _ = capacity(w)
        if c - r_infinity(w) >= min_gap:
            return w
    raise RuntimeError("could not sample a usable channel")


def blahut_arimoto(w: Channel, sweeps: int = 100_000) -> tuple[float, float, Distribution]:
    """Reference capacity by the Blahut-Arimoto loop that `capacity` replaced.

    Uniform start, at most `sweeps` sweeps (the library used 100,000), stops
    at a 1e-10 duality gap or an L1 step below 1e-12. Returns (lower, upper,
    P) from the last sweep: I(P;W) <= C <= max_x D(W(.|x) || PW), whether or
    not it converged. The library loop returned the lower end, and raised
    ConvergenceError when upper - lower > 1e-9.
    """
    rows = w.rows
    sup = w.supports
    logw = np.where(sup, np.log(np.where(sup, rows, 1.0)), 0.0)
    p = np.full(w.nx, 1.0 / w.nx)
    c_lo = c_up = 0.0
    for _ in range(sweeps):
        q = p @ rows
        with np.errstate(divide="ignore"):
            logq = np.where(q > 0, np.log(np.where(q > 0, q, 1.0)), -np.inf)
        d = np.where(sup, logw - logq[None, :], 0.0)
        dx = (rows * d).sum(axis=1)
        c_lo = float(p @ dx)
        c_up = float(dx.max())
        if c_up - c_lo <= 1e-10:
            break
        p_new = p * np.exp(dx - c_up)
        p_new /= p_new.sum()
        if np.abs(p_new - p).sum() <= 1e-12 * max(1.0, np.abs(p).sum()):
            p = p_new
            break
        p = p_new
    return c_lo, c_up, Distribution(p)


def esp_of_r_grid(w: Channel, R: float, resolution: int) -> tuple[float, list[Distribution]]:
    """Reference E_SP(R) by the simplex search that `esp_of_r` replaced.

    E_SP(R,P) at every composition with denominator `resolution`, then
    coordinate ascent (steps 1/resolution down to 1e-6) from every grid
    point within 1e-8 of the grid maximum. Returns the best refined value, a
    lower bound on E_SP(R), and the distinct refined maximizers within 1e-8
    of it.
    """
    grid = simplex_grid(w.nx, resolution)
    vals = np.array([esp_value(w, R, Distribution(g)) for g in grid])
    refined = [
        refine_simplex_max(
            lambda arr: esp_value(w, R, Distribution(arr)),
            grid[i], float(vals[i]), step0=1.0 / resolution, min_step=1e-6,
        )
        for i in np.flatnonzero(vals >= float(vals.max()) - 1e-8)
    ]
    best = max(v for _, v in refined)
    keep: list[np.ndarray] = []
    for p_ref, v_ref in refined:
        if v_ref >= best - 1e-8 and all(np.abs(p_ref - k).sum() > 1e-6 for k in keep):
            keep.append(p_ref)
    return float(best), [Distribution(k) for k in keep]


def capacity_gap(w: Channel, p: Distribution) -> float:
    """max_x D(W(.|x) || PW) - I(P;W) from the definition, with no zero rule
    on the output law (+inf where W(.|x) reaches an output PW misses)."""
    q = p.probs @ w.rows
    div = np.zeros(w.nx)
    for x in range(w.nx):
        s = w.rows[x] > 0
        div[x] = np.inf if np.any(q[s] <= 0) else float(w.rows[x, s] @ np.log(w.rows[x, s] / q[s]))
    used = p.probs > 0
    return float(div.max() - p.probs[used] @ div[used])


def game_value_lp(a: np.ndarray) -> float:
    """max_q min_x (a q)_x over distributions q, by scipy's LP solver (HiGHS),
    independent of the library's simplex."""
    from scipy.optimize import linprog

    nx, ny = a.shape
    res = linprog(
        np.r_[np.zeros(ny), -1.0],
        A_ub=np.c_[-a, np.ones(nx)],
        b_ub=np.zeros(nx),
        A_eq=np.r_[np.ones(ny), 0.0][None, :],
        b_eq=[1.0],
        bounds=[(0.0, None)] * ny + [(None, None)],
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"linprog failed: {res.message}")
    return float(-res.fun)


def r_infinity_lp(w: Channel) -> float:
    """R_inf = -log max {t : Q(S_x) >= t for every input x, Q a distribution}."""
    return float(-np.log(game_value_lp(w.supports.astype(float))))


def random_interior_p(rng: np.random.Generator, nx: int) -> Distribution:
    return Distribution(rng.dirichlet(np.ones(nx) * 4.0))


def interior_rate(w: Channel, frac: float) -> float:
    c, _ = capacity(w)
    rinf = r_infinity(w)
    return rinf + frac * (c - rinf)


def nondegenerate_instance(
    rng: np.random.Generator,
    nx: int,
    ny: int,
    sparse: bool = False,
    frac: float = 0.5,
    min_esp: float = 1e-3,
) -> tuple[Channel, float, Distribution]:
    """(channel, rate, composition) with E_SP(R,P) >= min_esp."""
    for _ in range(200):
        w = random_channel(rng, nx, ny, sparse=sparse)
        rate = interior_rate(w, frac)
        p = random_interior_p(rng, nx)
        if esp_value(w, rate, p) >= min_esp:
            return w, rate, p
    raise RuntimeError("could not sample a non-degenerate instance")


def random_dominated_channel(
    rng: np.random.Generator, w: Channel, p_support: np.ndarray
) -> Channel:
    """Random V with V(.|x) << W(.|x) on the given input-support mask."""
    rows = []
    for x in range(w.nx):
        mask = w.supports[x]
        row = np.zeros(w.ny)
        row[mask] = rng.dirichlet(np.ones(int(mask.sum())) * 1.5)
        rows.append(row)
    return Channel(np.asarray(rows))


def enumerate_loglr(pairs: list[tuple[Distribution, Distribution, int]]):
    """Brute-force string enumeration of the log-LR law for tiny products.

    Returns (atoms dict t -> null mass on the common-support region,
    null_only_mass, alt_only_mass).
    """
    letters = []
    for null_row, alt_row, mult in pairs:
        letters.extend([(null_row.probs, alt_row.probs)] * mult)
    atoms: dict[float, float] = {}
    null_only = 0.0
    alt_only = 0.0
    ny = letters[0][0].size
    for ys in itertools.product(range(ny), repeat=len(letters)):
        pn = 1.0
        pa = 1.0
        for (nrow, arow), y in zip(letters, ys):
            pn *= nrow[y]
            pa *= arow[y]
        if pn > 0 and pa > 0:
            t = float(np.log(pa) - np.log(pn))
            key = round(t, 10)
            atoms[key] = atoms.get(key, 0.0) + pn
        elif pn > 0:
            null_only += pn
        elif pa > 0:
            alt_only += pa
    return atoms, null_only, alt_only


def convolve_loglr(pairs: list[tuple[Distribution, Distribution, int]]) -> LogLrLaw:
    """Reference log-LR law by N sequential one-letter convolutions, merging
    after every copy (the construction `build_loglr_law` replaced)."""
    t_tot = np.zeros(1)
    logp_tot = np.zeros(1, dtype=LD)
    log_null_common = LD(0.0)
    log_alt_common = LD(0.0)
    for null_row, alt_row, mult in pairs:
        if mult < 0:
            raise DomainError("multiplicities must be non-negative")
        if mult == 0:
            continue
        lt, llogp, n_common, a_common = _letter_law(null_row, alt_row)
        if lt.size == 0:
            return LogLrLaw(
                t=np.zeros(0),
                logp_null=np.zeros(0, dtype=LD),
                null_only_mass=1.0,
                alt_only_mass=1.0,
            )
        log_null_common += LD(mult) * np.log(n_common)
        log_alt_common += LD(mult) * np.log(a_common)
        for _ in range(mult):
            t_tot = (t_tot[:, None] + lt[None, :]).ravel()
            logp_tot = (logp_tot[:, None] + llogp[None, :]).ravel()
            t_tot, logp_tot = _merge_atoms(t_tot, logp_tot)
            if t_tot.size > ATOM_CAP:
                raise AtomBudgetError(
                    f"convolution grew to {t_tot.size} atoms (cap {ATOM_CAP}); coarsen the instance"
                )
    null_only = float(LD(1.0) - np.exp(log_null_common))
    alt_only = float(LD(1.0) - np.exp(log_alt_common))
    return LogLrLaw(
        t=t_tot,
        logp_null=logp_tot,
        null_only_mass=max(null_only, 0.0),
        alt_only_mass=max(alt_only, 0.0),
    )
