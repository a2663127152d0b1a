import json
import math

import numpy as np
import pytest

from spherepack.bounds import (
    bound_report_json,
    constants,
    constants_ledger,
    lagrange_identity_check,
    refined_bound,
    select_nu,
    closed_form_bound,
)
from spherepack.errors import DomainError
from spherepack.probability import Distribution, divergence_to_output, mutual_information
from spherepack.saddle import esp_of_r, esp_value, rho_star_r, saddle_point
from spherepack.shifted import shifted_context, tilde_esp

from .conftest import nondegenerate_instance


@pytest.fixture(scope="module")
def bsc_ledger(bsc01):
    return constants_ledger(bsc01, 0.2)


class TestSelectNu:
    def test_bsc_caps_positive(self, bsc01):
        nu, a, L, eps = select_nu(bsc01, 0.2)
        assert nu > 0 and a == 1.5 and L > 0 and eps == pytest.approx(0.1, abs=1e-12)
        assert nu <= 0.9 * (a - 1.0)

    def test_lipschitz_constant_is_the_left_end_slope(self, bsc01):
        # E_SP is convex and decreasing: its steepest slope on [R - eps, R]
        # is rho*_{R - eps}, which bounds every secant slope on the interval
        _, _, L, eps = select_nu(bsc01, 0.2)
        assert L == rho_star_r(bsc01, 0.2 - eps)
        rates = np.linspace(0.2 - eps, 0.2, 9)
        values = [esp_of_r(bsc01, float(ri))[0] for ri in rates]
        assert L >= float((np.abs(np.diff(values)) / np.diff(rates)).max())

    def test_nu_shrinks_toward_capacity(self, bsc01):
        nu_mid, *_ = select_nu(bsc01, 0.2)
        nu_hi, *_ = select_nu(bsc01, 0.33)
        assert nu_hi < nu_mid

    def test_rejects_vanishing_exponent(self, bsc01):
        from spherepack.probability import capacity

        c, _ = capacity(bsc01)
        with pytest.raises(DomainError):
            select_nu(bsc01, c - 1e-13)


class TestConstants:
    def test_bsc_ledger_structure(self, bsc01, bsc_ledger):
        led = bsc_ledger
        assert 0 < led.h_lo < 1
        assert led.v_lo > 0 and led.v_hi >= led.v_lo
        assert led.m_hi > 0
        assert led.k_max == pytest.approx(2 * np.sqrt(2 * np.pi) * 7.5 * led.m_hi, rel=1e-12)
        assert led.k_const == pytest.approx(
            np.exp(-led.k_max) / (2 * np.sqrt(2 * np.pi * led.v_hi)), rel=1e-12
        )
        assert led.delta > 0
        assert led.s_tilde == pytest.approx(led.f_const / (led.delta / 2), rel=1e-12)

    def test_upsilon_dominates_mutual_information_at_maximizer(self, bsc01, bsc_ledger):
        # D(W||Q*|P) >= I(P;W) at the exponent-maximizing composition
        p = Distribution([0.5, 0.5])
        sp = saddle_point(bsc01, 0.2, p)
        assert bsc_ledger.upsilon >= divergence_to_output(bsc01, sp.q_star, p) - 1e-9
        assert bsc_ledger.upsilon >= mutual_information(p, bsc01) - 1e-9

    def test_bsc_symmetric_extrema_at_uniform(self, bsc01, bsc_ledger):
        # Upsilon is attained at the uniform composition for the BSC
        p = Distribution([0.5, 0.5])
        sp = saddle_point(bsc01, 0.2, p)
        val_uniform = divergence_to_output(bsc01, sp.q_star, p)
        assert bsc_ledger.upsilon == pytest.approx(val_uniform, abs=1e-6)

    def test_delta_is_rate_for_positive_channels(self, bsc01, bsc_ledger):
        # strictly positive channel: D(W-||Q*|P) = 0 for every P
        assert bsc_ledger.delta == pytest.approx(0.2, abs=1e-10)

    def test_empty_grid_rejected(self, bsc01):
        with pytest.raises(DomainError, match="re-select"):
            constants(bsc01, 0.2, nu=10.0)

    def test_eta_in_h_on_composition_grid(self, bsc01, bsc_ledger):
        # eta(R, P, r(R,P)) >= H_lo for grid compositions with E_SP >= nu
        for w0 in np.linspace(0.1, 0.9, 9):
            p = Distribution([w0, 1 - w0])
            if esp_value(bsc01, 0.2, p) < bsc_ledger.nu:
                continue
            ctx = shifted_context(bsc01, 0.2, p)
            sh = tilde_esp(ctx, ctx.r)
            assert bsc_ledger.h_lo <= sh.eta <= 1.0


class TestRefinedBound:
    def test_trivial_branch_exact_value(self, bsc01, bsc_ledger):
        p = Distribution([0.995, 0.005])
        assert esp_value(bsc01, 0.2, p) < bsc_ledger.nu
        rep = refined_bound(bsc01, 137, 0.2, 0.1, p, ledger=bsc_ledger)
        assert rep.branch == "trivial-composition"
        assert rep.bound == 0.5 * math.exp(-137 * bsc_ledger.esp_r)
        assert rep.n_conditions == ()

    def test_branch_taken_iff_exponent_below_nu(self, bsc01, bsc_ledger):
        for w0 in (0.5, 0.6, 0.75, 0.9, 0.98):
            p = Distribution([w0, 1 - w0])
            rep = refined_bound(bsc01, 256, 0.2, 0.1, p, ledger=bsc_ledger)
            if esp_value(bsc01, 0.2, p) < bsc_ledger.nu:
                assert rep.branch == "trivial-composition"
            else:
                assert rep.branch in ("main", "invalid-N")

    def test_bound_equals_prefactor_times_exponential(self, bsc01, uniform2, bsc_ledger):
        for n in (64, 256, 1024):
            rep = refined_bound(bsc01, n, 0.2, 0.1, uniform2, ledger=bsc_ledger)
            expect = rep.prefactor * math.exp(-n * rep.exponent)
            assert rep.bound == pytest.approx(expect, rel=1e-12)
            assert rep.log_bound == pytest.approx(
                math.log(rep.prefactor) - n * rep.exponent, abs=1e-9
            )

    def test_invalid_branch_iff_any_condition_fails(self, bsc01, uniform2, bsc_ledger):
        rep = refined_bound(bsc01, 512, 0.2, 0.1, uniform2, ledger=bsc_ledger)
        assert rep.branch == ("main" if all(c.ok for c in rep.n_conditions) else "invalid-N")
        names = [c.name for c in rep.n_conditions]
        assert names[:3] == ["sqrtN_vs_Kmax", "K_N_zeta_over_e", "eps_N_le_half_delta"]

    def test_tiny_n_reports_vacuous_bound(self, bsc01, uniform2, bsc_ledger):
        rep = refined_bound(bsc01, 2, 0.2, 0.1, uniform2, ledger=bsc_ledger)
        assert rep.branch == "invalid-N"
        assert rep.bound == 0.0 and rep.exponent == math.inf

    def test_exponent_taylor_chain(self, bsc01, uniform2, bsc_ledger):
        # decomposition sums back to the exponent; Taylor majorization holds
        # once the epsilon_N gate is met
        for n in (128, 1024, 8192):
            rep = refined_bound(bsc01, n, 0.2, 0.1, uniform2, ledger=bsc_ledger)
            t = rep.taylor_terms
            total = t["e_tilde_r"] + t["first_order"] + t["second_order"]
            assert total == pytest.approx(rep.exponent, abs=1e-10)
            assert t["e_tilde_r"] == pytest.approx(t["esp_rp"], abs=1e-8)
            if t["taylor_gate_ok"]:
                assert rep.exponent <= t["taylor_majorant_rhs"] + 1e-12

    def test_exponent_exceeds_esp_by_slope_term(self, bsc01, uniform2, bsc_ledger):
        rep = refined_bound(bsc01, 4096, 0.2, 0.1, uniform2, ledger=bsc_ledger)
        t = rep.taylor_terms
        assert rep.exponent > t["esp_rp"]
        assert t["first_order"] == pytest.approx(
            t["s_star_r"] * t["eps_n"], rel=1e-12
        )

    def test_sound_against_np_oracle(self, bsc01, uniform2, bsc_ledger):
        from spherepack.nptest import alpha_star_fractional, build_loglr_law, round_to_type

        q = saddle_point(bsc01, 0.2, uniform2).q_star
        for n in (64, 128, 256, 1024):
            rep = refined_bound(bsc01, n, 0.2, 0.1, uniform2, ledger=bsc_ledger)
            counts = round_to_type(uniform2, n)
            law = build_loglr_law([(bsc01.row(x), q, int(c)) for x, c in enumerate(counts)])
            frac = alpha_star_fractional(law, n * 0.2)
            assert rep.bound <= frac

    def test_log_bound_slope_approaches_minus_esp(self, bsc01, uniform2, bsc_ledger):
        ns = [2**k for k in range(7, 15)]
        logs = [
            refined_bound(bsc01, n, 0.2, 0.1, uniform2, ledger=bsc_ledger).log_bound
            for n in ns
        ]
        slope = np.polyfit(ns, logs, 1)[0]
        assert abs(slope + bsc_ledger.esp_r) <= 5e-3

    def test_rejects_bad_arguments(self, bsc01, uniform2, bsc_ledger):
        with pytest.raises(DomainError):
            refined_bound(bsc01, 1, 0.2, 0.1, uniform2, ledger=bsc_ledger)
        with pytest.raises(DomainError):
            refined_bound(bsc01, 100, 0.2, -0.1, uniform2, ledger=bsc_ledger)


class TestClosedFormBound:
    def test_prefactor_order(self, bsc01, bsc_ledger):
        n = 512
        lg = closed_form_bound(bsc01, n, 0.2, 0.1, bsc_ledger, log=True)
        order = 0.5 * (1 + 1.1 * bsc_ledger.rho_star_r)
        expect = math.log(bsc_ledger.k_const) - n * bsc_ledger.esp_r - order * math.log(n)
        assert lg == pytest.approx(expect, abs=1e-12)

    def test_zeta_zero_limit(self, bsc01, bsc_ledger):
        lg_small = closed_form_bound(bsc01, 256, 0.2, 1e-9, bsc_ledger, log=True)
        order0 = 0.5 * (1 + bsc_ledger.rho_star_r)
        expect = math.log(bsc_ledger.k_const) - 256 * bsc_ledger.esp_r - order0 * math.log(256)
        assert lg_small == pytest.approx(expect, abs=1e-6)

    def test_doubling_identity(self, bsc01, bsc_ledger):
        n = 1000
        lg1 = closed_form_bound(bsc01, n, 0.2, 0.1, bsc_ledger, log=True)
        lg2 = closed_form_bound(bsc01, 2 * n, 0.2, 0.1, bsc_ledger, log=True)
        order = 0.5 * (1 + 1.1 * bsc_ledger.rho_star_r)
        assert lg2 - lg1 == pytest.approx(-bsc_ledger.esp_r * n - order * math.log(2), abs=1e-9)


class TestLagrange:
    def test_bsc_matches_closed_form_slope(self, bsc01, uniform2):
        rep = lagrange_identity_check(bsc01, 0.2, uniform2)
        assert not rep.skipped
        assert rep.gap <= 1e-6
        # closed-form slope of D(delta||p) against R for the BSC
        from .conftest import bsc_esp_closed_form

        h = 1e-6
        slope = (bsc_esp_closed_form(0.1, 0.2 + h) - bsc_esp_closed_form(0.1, 0.2 - h)) / (2 * h)
        assert rep.rho_star == pytest.approx(-slope, abs=1e-4)

    def test_random_instances(self):
        rng = np.random.default_rng(83)
        for k in range(5):
            w, rate, p = nondegenerate_instance(rng, 2, 3, sparse=(k % 2 == 0))
            rep = lagrange_identity_check(w, rate, p)
            assert rep.gap <= 1e-6

    def test_degenerate_skipped(self, bsc01):
        p = Distribution([0.8, 0.2])
        rate = mutual_information(p, bsc01) + 0.0005
        rep = lagrange_identity_check(bsc01, rate, p)
        assert rep.skipped


class TestJson:
    def test_schema_fields(self, bsc01, uniform2, bsc_ledger):
        rep = refined_bound(bsc01, 256, 0.2, 0.1, uniform2, ledger=bsc_ledger)
        doc = json.loads(bound_report_json(rep))
        for key in ("branch", "exponent", "prefactor", "bound", "n_conditions", "taylor_terms"):
            assert key in doc
        for c in doc["n_conditions"]:
            assert set(c) == {"name", "required", "actual", "ok"}

    def test_nonfinite_values_map_to_null(self, bsc01, uniform2, bsc_ledger):
        rep = refined_bound(bsc01, 2, 0.2, 0.1, uniform2, ledger=bsc_ledger)
        doc = json.loads(bound_report_json(rep))
        assert doc["exponent"] is None
        assert doc["bound"] == 0.0
