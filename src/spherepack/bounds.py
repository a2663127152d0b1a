"""End-to-end assembly of the refined sphere-packing lower bound.

The bound on the maximal error probability of an (N, R) constant-composition
code with composition P splits into branches:

- trivial composition (E_SP(R,P) < nu): e >= (1/2) exp(-N E_SP(R));
- main branch: e >= (K/sqrt(N)) exp(-N Lambda0*(etilde(r_N) - r_N)) with
  eps_N = (1/2 + zeta) log(N)/N and r_N = r(R,P) - eps_N, valid once
    sqrt(N) >= (1 + (1 + K_max)^2) / sqrt(V_lo),
    K N^zeta / e > 1,
    eps_N <= delta(R, nu, W)/2
  all hold (reports carry every condition; a failed one flags the row as
  invalid-N but the formula value is still shown).

Constants: nu <= min{a-1, eps/2, E_SP(R)(2-a)/(a(2L+1))} with a = 1.5 and
the exact Lipschitz constant L = rho*_{R-eps} of the convex, decreasing
E_SP(.) on [R-eps, R]; Upsilon, M_hi, V_hi, V_lo are grid extrema over
H x {P : E_SP(R,P) >= nu} with local refinement;
K_max = 2 sqrt(2 pi) (30/4) M_hi and K = exp(-K_max) / (2 sqrt(2 pi V_hi)).

Exponent cross-check: the main-branch exponent is computed through the
Fenchel transform and must agree with etilde(r_N) (regularity identity); a
mismatch raises rather than shipping a wrong exponent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, InvariantViolationError
from .numerics import golden_max, refine_simplex_max, simplex_grid
from .probability import Channel, Distribution, divergence_to_output
from .saddle import ESP_ZERO_TOL, esp_of_r, esp_value, rho_star_r, saddle_point
from .shifted import ShiftedContext, cumulants, fenchel0, shifted_context, tilde_esp

BERRY_ESSEEN_C = 30.0 / 4.0
LAM_POINTS = 65  # lambda-grid points over H for the cumulant extrema


@dataclass(frozen=True)
class ConstantsLedger:
    """Every constant of the bound that depends only on (W, R, nu)."""

    R: float
    nu: float
    epsilon: float
    a: float
    L: float
    esp_r: float
    rho_star_r: float
    upsilon: float
    h_lo: float
    m_hi: float
    v_hi: float
    v_lo: float
    k_max: float
    k_const: float
    delta: float
    f_const: float
    s_tilde: float
    grid_resolution: int


@dataclass(frozen=True)
class NCondition:
    name: str
    required: float
    actual: float
    ok: bool


@dataclass(frozen=True)
class BoundReport:
    """Full decomposition of one bound evaluation.

    branch is one of {"trivial-composition", "main", "invalid-N"}. The
    trivial branch carries no N-conditions (its blocklength threshold
    depends only on nu and the alphabet sizes and has no computable form
    here). bound always equals prefactor * exp(-N * exponent); log_bound
    carries the same value in the log domain for blocklengths where the
    linear value underflows.
    """

    N: int
    R: float
    zeta: float
    P: Distribution
    branch: str
    exponent: float
    prefactor: float
    bound: float
    log_bound: float
    closed_form_bound: float
    n_conditions: tuple[NCondition, ...]
    taylor_terms: dict


@dataclass(frozen=True)
class LagrangeReport:
    """Gap between the two Lagrange-multiplier computations of the slope."""

    rho_star: float
    s_star: float
    gap: float
    skipped: bool
    reason: str = ""


def select_nu(w: Channel, R: float, resolution: int = 64) -> tuple[float, float, float, float]:
    """(nu, a, L, epsilon) per the composition-split recipe.

    a = 1.5 (midpoint of (1,2)); E_SP(.) is convex and decreasing, so its
    Lipschitz constant on [R - eps, R] is the slope magnitude at the left
    end, L = rho*_{R - eps}; nu takes 0.9 of the smallest of the three caps.
    """
    from .probability import r_infinity

    esp_r, _ = esp_of_r(w, R, resolution)
    if esp_r <= ESP_ZERO_TOL:
        raise DomainError("E_SP(R) vanishes; no nu can be selected")
    epsilon = (R - r_infinity(w)) / 2.0
    a = 1.5
    L = rho_star_r(w, R - epsilon, resolution)
    nu = 0.9 * min(a - 1.0, epsilon / 2.0, esp_r * (2.0 - a) / (a * (2.0 * L + 1.0)))
    return nu, a, L, epsilon


def _grid_compositions(w: Channel, R: float, nu: float, resolution: int) -> list[Distribution]:
    grid = simplex_grid(w.nx, resolution)
    kept = [Distribution(g) for g in grid if esp_value(w, R, Distribution(g)) >= nu]
    if not kept:
        raise DomainError("the composition grid {E_SP(R,P) >= nu} is empty; re-select a smaller nu")
    return kept


def constants(w: Channel, R: float, nu: float, resolution: int = 64) -> ConstantsLedger:
    """Grid extrema over H x {P : E_SP(R,P) >= nu} with local refinement."""
    _, a, L, epsilon = select_nu(w, R, resolution)
    esp_r, _ = esp_of_r(w, R, resolution)
    rho_r = rho_star_r(w, R, resolution)
    comps = _grid_compositions(w, R, nu, resolution)

    def feasible(arr: np.ndarray) -> bool:
        try:
            return esp_value(w, R, Distribution(arr)) >= nu
        except DomainError:
            return False

    def grid_max(objective) -> float:
        # the largest value on `comps`, refined by coordinate ascent that
        # stays in {P : E_SP(R,P) >= nu}
        vals = [objective(p) for p in comps]
        i = int(np.argmax(vals))
        step = 1.0 / resolution
        _, v_ref = refine_simplex_max(
            lambda arr: objective(Distribution(arr)), comps[i].probs, vals[i],
            step0=step, min_step=step / 64.0, feasible=feasible,
        )
        return max(vals[i], v_ref)

    def d_w_qstar(p: Distribution) -> float:
        sp = saddle_point(w, R, p)
        return divergence_to_output(w, sp.q_star, p)

    def d_wm_qstar(p: Distribution) -> float:
        return shifted_context(w, R, p).d_wm_qstar

    def f_term(p: Distribution) -> float:
        return shifted_context(w, R, p).d_wminus_w

    upsilon = grid_max(d_w_qstar)
    delta = R - grid_max(d_wm_qstar)
    if delta <= 0:
        raise InvariantViolationError("delta(R,nu,W) must be positive (positivity of r)")
    f_const = grid_max(f_term)

    h_lo = (nu / (2.0 * upsilon)) / (1.0 + nu / (2.0 * upsilon))
    lams = np.linspace(h_lo, 1.0, LAM_POINTS)

    m_hi = v_hi = -math.inf
    v_lo = math.inf
    arg_m = arg_vhi = arg_vlo = (comps[0], float(lams[0]))
    for p in comps:
        ctx = shifted_context(w, R, p)
        for lam in lams:
            c = cumulants(ctx, float(lam))
            ratio = c.m03 / c.d2
            if ratio > m_hi:
                m_hi, arg_m = ratio, (p, float(lam))
            if c.d2 > v_hi:
                v_hi, arg_vhi = c.d2, (p, float(lam))
            if c.d2 < v_lo:
                v_lo, arg_vlo = c.d2, (p, float(lam))

    def lam_refine(p: Distribution, lam0: float, sign: float, field: str) -> float:
        ctx = shifted_context(w, R, p)

        def g(lam: float) -> float:
            c = cumulants(ctx, lam)
            val = c.m03 / c.d2 if field == "ratio" else c.d2
            return sign * val

        lo = max(h_lo, lam0 - 2.0 / LAM_POINTS)
        hi = min(1.0, lam0 + 2.0 / LAM_POINTS)
        _, best, _ = golden_max(g, lo, hi, width=1e-8)
        return sign * best

    m_hi = max(m_hi, lam_refine(*arg_m, sign=1.0, field="ratio"))
    v_hi = max(v_hi, lam_refine(*arg_vhi, sign=1.0, field="d2"))
    v_lo = min(v_lo, lam_refine(*arg_vlo, sign=-1.0, field="d2"))
    v_lo = max(v_lo, 1e-10)

    k_max = 2.0 * math.sqrt(2.0 * math.pi) * BERRY_ESSEEN_C * m_hi
    k_const = math.exp(-k_max) / (2.0 * math.sqrt(2.0 * math.pi * v_hi))
    s_tilde = f_const / (delta / 2.0)
    return ConstantsLedger(
        R=float(R),
        nu=float(nu),
        epsilon=float(epsilon),
        a=float(a),
        L=float(L),
        esp_r=float(esp_r),
        rho_star_r=float(rho_r),
        upsilon=float(upsilon),
        h_lo=float(h_lo),
        m_hi=float(m_hi),
        v_hi=float(v_hi),
        v_lo=float(v_lo),
        k_max=float(k_max),
        k_const=float(k_const),
        delta=float(delta),
        f_const=float(f_const),
        s_tilde=float(s_tilde),
        grid_resolution=int(resolution),
    )


@lru_cache(maxsize=64)
def constants_ledger(w: Channel, R: float, resolution: int = 64) -> ConstantsLedger:
    """select_nu + constants, cached per (channel, rate, resolution)."""
    nu, _, _, _ = select_nu(w, R, resolution)
    return constants(w, R, nu, resolution)


def closed_form_bound(
    w: Channel, n: int, R: float, zeta: float, ledger: ConstantsLedger | None = None, log: bool = False
) -> float:
    """K exp(-N E_SP(R)) / N^{(1 + (1+zeta) rho*_R)/2}; the pre-factor
    order diagnostic, not the sharpest evaluated bound."""
    if ledger is None:
        ledger = constants_ledger(w, R)
    order = 0.5 * (1.0 + (1.0 + zeta) * ledger.rho_star_r)
    log_val = math.log(ledger.k_const) - n * ledger.esp_r - order * math.log(n)
    return log_val if log else math.exp(log_val)


def _condition(name: str, required: float, actual: float, ok: bool) -> NCondition:
    return NCondition(name=name, required=float(required), actual=float(actual), ok=bool(ok))


def refined_bound(
    w: Channel,
    n: int,
    R: float,
    zeta: float,
    p: Distribution,
    ledger: ConstantsLedger | None = None,
    resolution: int = 64,
) -> BoundReport:
    """One evaluation of the refined bound at blocklength n.

    Trivial branch when E_SP(R,p) < nu, otherwise the main formula with all
    three N-conditions evaluated and recorded; any failure flags the branch
    as invalid-N (the formula value is still reported).
    """
    if n < 2:
        raise DomainError("need blocklength N >= 2")
    if zeta <= 0:
        raise DomainError("zeta must be positive")
    if ledger is None:
        ledger = constants_ledger(w, R, resolution)

    esp_rp = esp_value(w, R, p)
    t1 = closed_form_bound(w, n, R, zeta, ledger)
    if esp_rp < ledger.nu:
        log_bound = math.log(0.5) - n * ledger.esp_r
        return BoundReport(
            N=n,
            R=R,
            zeta=zeta,
            P=p,
            branch="trivial-composition",
            exponent=ledger.esp_r,
            prefactor=0.5,
            bound=0.5 * math.exp(-n * ledger.esp_r),
            log_bound=log_bound,
            closed_form_bound=t1,
            n_conditions=(),
            taylor_terms={},
        )

    ctx = shifted_context(w, R, p)
    eps_n = (0.5 + zeta) * math.log(n) / n
    r_n = ctx.r - eps_n

    cond_sqrt = _condition(
        "sqrtN_vs_Kmax",
        required=(1.0 + (1.0 + ledger.k_max) ** 2) / math.sqrt(ledger.v_lo),
        actual=math.sqrt(n),
        ok=math.sqrt(n) >= (1.0 + (1.0 + ledger.k_max) ** 2) / math.sqrt(ledger.v_lo),
    )
    kn_zeta = ledger.k_const * n**zeta / math.e
    cond_kn = _condition("K_N_zeta_over_e", required=1.0, actual=kn_zeta, ok=kn_zeta > 1.0)
    cond_eps = _condition(
        "eps_N_le_half_delta", required=ledger.delta / 2.0, actual=eps_n, ok=eps_n <= ledger.delta / 2.0
    )
    cond_rn = _condition("r_N_positive", required=0.0, actual=r_n, ok=r_n > 0.0)
    conds = (cond_sqrt, cond_kn, cond_eps, cond_rn)
    prefactor = ledger.k_const / math.sqrt(n)

    if r_n <= 0:
        # the shifted budget is empty: the only sound report is the vacuous one
        return BoundReport(
            N=n,
            R=R,
            zeta=zeta,
            P=p,
            branch="invalid-N",
            exponent=float("inf"),
            prefactor=prefactor,
            bound=0.0,
            log_bound=float("-inf"),
            closed_form_bound=t1,
            n_conditions=conds,
            taylor_terms={},
        )

    sh_n = tilde_esp(ctx, r_n)
    exponent = fenchel0(ctx, sh_n.value - r_n)
    if abs(exponent - sh_n.value) > 1e-7:
        raise InvariantViolationError(
            f"Fenchel exponent {exponent} disagrees with the shifted exponent {sh_n.value}"
        )
    log_bound = math.log(prefactor) - n * exponent
    bound = prefactor * math.exp(-n * exponent)

    sh_r = tilde_esp(ctx, ctx.r)
    rho_rp = ctx.saddle.rho_star
    first_order = sh_r.s_star * eps_n
    taylor_gate = (
        eps_n
        * (1.0 + ledger.s_tilde) ** 2
        / (2.0 * ledger.v_lo)
        * (1.0 + 2.0 * ledger.upsilon / ledger.nu)
    )
    taylor_majorant_rhs = esp_rp + rho_rp * eps_n * (1.0 + zeta)
    taylor_terms = {
        "e_tilde_r_n": sh_n.value,
        "e_tilde_r": sh_r.value,
        "s_star_r": sh_r.s_star,
        "eta_r": sh_r.eta,
        "eps_n": eps_n,
        "r_n": r_n,
        "first_order": first_order,
        "second_order": exponent - sh_r.value - first_order,
        "esp_rp": esp_rp,
        "rho_star_rp": rho_rp,
        "taylor_majorant_rhs": taylor_majorant_rhs,
        "taylor_majorant_ok": bool(exponent <= taylor_majorant_rhs + 1e-12),
        "taylor_gate_value": taylor_gate,
        "taylor_gate_ok": bool(taylor_gate <= zeta),
        "rho_within_zeta_of_rho_star_R": bool(rho_rp <= ledger.rho_star_r + zeta),
    }
    branch = "main" if all(c.ok for c in conds) else "invalid-N"
    return BoundReport(
        N=n,
        R=R,
        zeta=zeta,
        P=p,
        branch=branch,
        exponent=float(exponent),
        prefactor=float(prefactor),
        bound=float(bound),
        log_bound=float(log_bound),
        closed_form_bound=t1,
        n_conditions=conds,
        taylor_terms=taylor_terms,
    )


def lagrange_identity_check(w: Channel, R: float, p: Distribution) -> LagrangeReport:
    """|s*(R,P,r(R,P)) - rho*_{R,P}|: the slope from the shifted dual versus
    the slope from the saddle point. Degenerate instances are skipped."""
    sp = saddle_point(w, R, p)
    if sp.degenerate:
        return LagrangeReport(0.0, 0.0, 0.0, skipped=True, reason="E_SP(R,P) = 0")
    ctx = shifted_context(w, R, p)
    sh = tilde_esp(ctx, ctx.r)
    return LagrangeReport(
        rho_star=sp.rho_star, s_star=sh.s_star, gap=abs(sp.rho_star - sh.s_star), skipped=False
    )


def _json_num(x: float):
    return x if math.isfinite(x) else None


def bound_report_json(report: BoundReport) -> str:
    """Serialize a BoundReport; non-finite numbers map to null."""
    doc = {
        "branch": report.branch,
        "exponent": _json_num(report.exponent),
        "prefactor": _json_num(report.prefactor),
        "bound": _json_num(report.bound),
        "n_conditions": [
            {"name": c.name, "required": _json_num(c.required), "actual": _json_num(c.actual), "ok": c.ok}
            for c in report.n_conditions
        ],
        "taylor_terms": {
            k: (_json_num(v) if isinstance(v, float) else v) for k, v in report.taylor_terms.items()
        },
        "N": report.N,
        "R": report.R,
        "zeta": report.zeta,
        "composition": [float(v) for v in report.P.probs],
        "log_bound": _json_num(report.log_bound),
        "closed_form_bound": _json_num(report.closed_form_bound),
    }
    return json.dumps(doc)
