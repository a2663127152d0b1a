"""Acceptance suite: the pinned exit criteria, one printed pass/fail line
each (run with -s to see the lines on success)."""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import binom

from spherepack.asymptotics import FiniteSupportRV, slb_bound
from spherepack.bounds import constants_ledger, refined_bound
from spherepack.cli import gap_study_row
from spherepack.nptest import (
    alpha_star,
    alpha_star_fractional,
    build_loglr_law,
    round_to_type,
)
from spherepack.probability import Distribution
from spherepack.saddle import esp_primal_oracle, esp_value, saddle_point
from spherepack.shifted import (
    cumulants,
    esp_q_primal,
    fenchel0,
    fenchel1,
    shifted_context,
    tilde_esp,
)

from .conftest import nondegenerate_instance, random_interior_p


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} [FAIL] {label}")
        raise
    print(f"criterion {num:2d} [PASS] {label}")


def test_criterion_1_saddle_consistency():
    with criterion(1, "saddle value matches the primal oracle on 25 random channels x 3 rates"):
        rng = np.random.default_rng(20240811)
        start = time.monotonic()
        checked = 0
        for k in range(25):
            nx = int(rng.integers(2, 5))
            ny = int(rng.integers(2, 5))
            from .conftest import interior_rate, random_channel

            w = random_channel(rng, nx, ny, sparse=(k % 3 == 0))
            p = random_interior_p(rng, nx)
            for frac in (0.35, 0.55, 0.75):
                rate = interior_rate(w, frac)
                sp = saddle_point(w, rate, p)
                oracle = esp_primal_oracle(w, rate, p)
                assert abs(sp.value - oracle) <= 1e-6
                if not sp.degenerate:
                    assert sp.fixed_point_residual <= 1e-10
                checked += 1
        elapsed = time.monotonic() - start
        assert checked == 75
        assert elapsed <= 60.0, f"criterion 1 runtime {elapsed:.1f}s exceeds 60s"


def test_criterion_2_equality_of_exponents():
    with criterion(2, "e_SP(Q*,P,R) equals E_SP(R,P) within 1e-5 via the primal oracle"):
        rng = np.random.default_rng(7071)
        start = time.monotonic()
        for k in range(10):
            nx = int(rng.integers(2, 5))
            ny = int(rng.integers(2, 4))
            w, rate, p = nondegenerate_instance(rng, nx, ny, sparse=(k % 3 == 1))
            sp = saddle_point(w, rate, p)
            prim = esp_q_primal(w, sp.q_star, p, rate)
            assert abs(prim - sp.value) <= 1e-5
        elapsed = time.monotonic() - start
        assert elapsed <= 30.0, f"criterion 2 runtime {elapsed:.1f}s exceeds 30s"


def test_criterion_3_shifted_and_regularity_identities():
    with criterion(3, "shifted-exponent identity and regularity identities within 1e-6 on 20 triples"):
        rng = np.random.default_rng(424242)
        start = time.monotonic()
        for k in range(20):
            w, rate, p = nondegenerate_instance(rng, 2 + k % 2, 2 + (k + 1) % 2 + 1)
            ctx = shifted_context(w, rate, p)
            # shifted identity at a budget beyond the support-reduction cost
            r_abs = ctx.d_wm_qstar + float(rng.uniform(0.3, 0.9)) * (rate - ctx.d_wm_qstar)
            lhs = tilde_esp(ctx, r_abs - ctx.d_wm_qstar).value
            rhs = esp_q_primal(w, ctx.saddle.q_star, p, r_abs)
            assert abs(lhs - rhs) <= 1e-6
            # regularity identities at a random interior budget
            r = float(rng.uniform(0.1, 0.9)) * ctx.d_w_wminus
            sh = tilde_esp(ctx, r)
            assert abs(fenchel0(ctx, sh.value - r) - sh.value) <= 1e-6
            assert abs(fenchel1(ctx, r - sh.value) - r) <= 1e-6
            assert 0.0 < sh.eta < 1.0
            assert abs(cumulants(ctx, sh.eta).d1 - (sh.value - r)) <= 1e-6
            assert abs(sh.eta - sh.s_star / (1 + sh.s_star)) <= 1e-12
        elapsed = time.monotonic() - start
        assert elapsed <= 30.0, f"criterion 3 runtime {elapsed:.1f}s exceeds 30s"


def test_criterion_4_derivative_identities():
    with criterion(4, "slope, endpoint and Fenchel derivative identities within 1e-4"):
        rng = np.random.default_rng(1234)
        for k in range(3):
            w, rate, p = nondegenerate_instance(rng, 2, 3, sparse=(k == 2))
            sp = saddle_point(w, rate, p)
            h = 1e-5
            slope = (esp_value(w, rate + h, p) - esp_value(w, rate - h, p)) / (2 * h)
            assert abs(sp.rho_star + slope) <= 1e-4
            ctx = shifted_context(w, rate, p)
            assert abs(cumulants(ctx, 0.0).d1 + ctx.d_w_wminus) <= 1e-4
            assert abs(cumulants(ctx, 1.0).d1 - ctx.d_wminus_w) <= 1e-4
            r = 0.5 * ctx.d_w_wminus
            sh = tilde_esp(ctx, r)
            z = sh.value - r
            d1 = (fenchel0(ctx, z + h) - fenchel0(ctx, z - h)) / (2 * h)
            d2 = (fenchel0(ctx, z + h) - 2 * fenchel0(ctx, z) + fenchel0(ctx, z - h)) / h**2
            assert abs(d1 - sh.eta) <= 1e-4
            assert abs(d2 - 1.0 / cumulants(ctx, sh.eta).d2) <= 1e-4


def test_criterion_5_slb_soundness():
    with criterion(5, "sharp-lower-bound soundness for Bernoulli(0.3) at q = 0.5"):
        start = time.monotonic()
        rv = FiniteSupportRV([0.0, 1.0], [0.7, 0.3])
        for n in (100, 300, 1000, 2000):
            rep = slb_bound([rv] * n, 0.5)
            tail = float(binom.sf(int(np.ceil(0.5 * n)) - 1, n, 0.3))
            if rep.condition_ok:
                assert rep.bound <= tail
                assert np.log(tail) - np.log(rep.bound) <= np.log(40.0)
            else:
                # desk-scale n cannot satisfy the Berry-Esseen gate at
                # c = 30/4 (K_n ~ 18.8 needs n ~ 6e5); the report says so
                assert rep.bound == 0.0
                assert rep.kn == pytest.approx(15 * np.sqrt(2 * np.pi) * 0.5, abs=1e-9)
        elapsed = time.monotonic() - start
        assert elapsed <= 5.0, f"criterion 5 runtime {elapsed:.1f}s exceeds 5s"


def test_criterion_6_np_oracle_correctness():
    with criterion(6, "convolution equals enumeration (N<=5) and the BSC binomial formula (N=10,20)"):
        from scipy.special import comb

        from .conftest import enumerate_loglr

        rng = np.random.default_rng(999)
        for _ in range(10):
            ny = int(rng.integers(2, 4))
            null = Distribution(rng.dirichlet(np.ones(ny) * 1.3))
            alt = Distribution(rng.dirichlet(np.ones(ny) * 1.3))
            n = int(rng.integers(3, 6))
            law = build_loglr_law([(null, alt, n)])
            atoms, n_only, a_only = enumerate_loglr([(null, alt, n)])
            assert law.t.size == len(atoms)
            ref = sorted(atoms.items())
            for (t_ref, p_ref), t, logp in zip(ref, law.t, law.logp_null):
                assert t == pytest.approx(t_ref, abs=1e-9)
                assert float(np.exp(logp)) == pytest.approx(p_ref, rel=1e-10)
            assert law.null_only_mass == pytest.approx(n_only, abs=1e-12)
            assert law.alt_only_mass == pytest.approx(a_only, abs=1e-12)

        p, rate = 0.1, 0.3
        null, alt = Distribution([0.9, 0.1]), Distribution([0.5, 0.5])
        for n in (10, 20):
            law = build_loglr_law([(null, alt, n)])
            tp = alpha_star(law, n * rate)
            cdf = np.cumsum([comb(n, j) * 2.0**-n for j in range(n + 1)])
            n_star = int(np.searchsorted(cdf, np.exp(-n * rate) * (1 + 1e-12), side="right")) - 1
            expect = sum(comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(n_star + 1, n + 1))
            assert tp.alpha == pytest.approx(expect, rel=1e-12)


def test_criterion_7_refined_bound_soundness_desk_scale(bsc01, uniform2):
    with criterion(7, "refined bound below the exact NP value at N in {50,100,200}"):
        ledger = constants_ledger(bsc01, 0.2)
        q = saddle_point(bsc01, 0.2, uniform2).q_star
        for n in (50, 100, 200):
            rep = refined_bound(bsc01, n, 0.2, 0.1, uniform2, ledger=ledger)
            counts = round_to_type(uniform2, n)
            law = build_loglr_law([(bsc01.row(x), q, int(c)) for x, c in enumerate(counts)])
            astar = alpha_star(law, n * 0.2).alpha
            frac = alpha_star_fractional(law, n * 0.2)
            if rep.branch != "invalid-N":
                assert rep.bound < astar
            # the reported formula value stays below the exact NP value on
            # this corpus even on invalid-N rows (huge K_max slack)
            assert rep.bound < frac <= astar


def test_criterion_8_prefactor_order(bsc01, uniform2):
    with criterion(8, "pre-factor order regression within 0.1 of -(1+(1+zeta) rho*_R)/2"):
        ledger = constants_ledger(bsc01, 0.2)
        zeta = 0.1
        ns = [2**k for k in range(7, 15)]
        xs, ys = [], []
        for n in ns:
            rep = refined_bound(bsc01, n, 0.2, zeta, uniform2, ledger=ledger)
            ys.append(rep.log_bound + n * ledger.esp_r)
            xs.append(np.log(n))
        slope = float(np.polyfit(xs, ys, 1)[0])
        target = -0.5 * (1.0 + (1.0 + zeta) * ledger.rho_star_r)
        assert abs(slope - target) <= 0.1


def test_criterion_9_zchannel_gap_study(zchannel03, bsc01):
    with criterion(9, "Z-channel fixed-output-law gap > 1e-4 on >= 6 of 8 rates; BSC control <= 1e-6"):
        start = time.monotonic()
        rates = np.linspace(0.04, 0.32, 8)
        hits = 0
        for rate in rates:
            esp_r, best, _ = gap_study_row(zchannel03, float(rate))
            if best - esp_r > 1e-4:
                hits += 1
        assert hits >= 6
        for rate in (0.1, 0.2, 0.3):
            esp_b, best_b, _ = gap_study_row(bsc01, rate)
            assert abs(best_b - esp_b) <= 1e-6
        elapsed = time.monotonic() - start
        assert elapsed <= 30.0, f"criterion 9 runtime {elapsed:.1f}s exceeds 30s"


def test_criterion_10_positivity_and_eta_range():
    with criterion(10, "r(R,P) > 0 and eta in H on a 100-instance corpus"):
        rng = np.random.default_rng(31415)
        start = time.monotonic()
        from .conftest import interior_rate, random_channel

        corpus = []
        for k in range(4):
            w = random_channel(rng, 2, 2 + k % 3, sparse=(k % 2 == 1))
            rate = interior_rate(w, 0.45 + 0.1 * (k % 3))
            corpus.append((w, rate))
        checked = 0
        for w, rate in corpus:
            ledger = constants_ledger(w, rate, 32)
            tried = 0
            while checked < 25 * (corpus.index((w, rate)) + 1) and tried < 500:
                tried += 1
                p = random_interior_p(rng, w.nx)
                if esp_value(w, rate, p) < ledger.nu:
                    continue
                ctx = shifted_context(w, rate, p)
                assert ctx.r > 0.0
                sh = tilde_esp(ctx, ctx.r)
                assert ledger.h_lo - 1e-9 <= sh.eta <= 1.0
                checked += 1
        assert checked == 100
        elapsed = time.monotonic() - start
        assert elapsed <= 30.0, f"criterion 10 runtime {elapsed:.1f}s exceeds 30s"
