import numpy as np
import pytest

from spherepack.errors import DomainError
from spherepack.probability import (
    Channel,
    Distribution,
    capacity,
    mutual_information,
)
from spherepack.saddle import (
    esp_of_r,
    esp_primal_oracle,
    esp_value,
    inner_opt_q,
    k_rp,
    lambda_qp,
    rho_star_r,
    saddle_point,
)

from .conftest import (
    bsc,
    bsc_esp_closed_form,
    esp_of_r_grid,
    interior_rate,
    nondegenerate_instance,
    random_channel,
    random_interior_p,
)


class TestLambdaQp:
    def test_zero_at_lambda_zero(self):
        w = bsc(0.25)
        assert lambda_qp(w, Distribution([0.3, 0.7]), Distribution([0.5, 0.5]), 0.0) == 0.0

    def test_bsc_quarter_hand_value(self):
        # defining sum: both rows give log(sqrt(.75*.5) + sqrt(.25*.5))
        w = bsc(0.25)
        val = lambda_qp(w, Distribution([0.5, 0.5]), Distribution([0.5, 0.5]), 0.5)
        expect = np.log(np.sqrt(0.375) + np.sqrt(0.125))
        assert val == pytest.approx(expect, abs=1e-12)
        assert val == pytest.approx(-0.0346682321, abs=1e-9)

    def test_support_failure_is_minus_inf(self):
        w = Channel([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]])
        q = Distribution([0.0, 0.5, 0.5])  # misses S(W(.|0)) entirely
        assert lambda_qp(w, q, Distribution([0.5, 0.5]), 0.5) == -np.inf


class TestKrp:
    def test_zero_at_rho_zero(self):
        w = bsc(0.25)
        for q in ([0.5, 0.5], [0.9, 0.1]):
            assert k_rp(w, 0.0, Distribution(q), 0.2, Distribution([0.5, 0.5])) == 0.0

    def test_outside_support_set_is_plus_inf(self):
        w = Channel([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]])
        q = Distribution([0.0, 0.5, 0.5])
        assert k_rp(w, 1.0, q, 0.2, Distribution([0.5, 0.5])) == np.inf

    def test_at_saddle_equals_primal_oracle(self, bsc01, uniform2):
        sp = saddle_point(bsc01, 0.2, uniform2)
        val = k_rp(bsc01, sp.rho_star, sp.q_star, 0.2, uniform2)
        assert val == pytest.approx(esp_primal_oracle(bsc01, 0.2, uniform2), abs=1e-6)


class TestInnerOptQ:
    def test_bsc_uniform_input_gives_uniform_output(self, bsc01, uniform2):
        for rho in (0.3, 1.0, 4.0):
            q = inner_opt_q(bsc01, rho, uniform2)
            assert np.abs(q.probs - 0.5).max() < 1e-11

    def test_single_letter_composition_returns_channel_row(self):
        w = Channel([[0.2, 0.5, 0.3], [0.6, 0.2, 0.2]])
        q = inner_opt_q(w, 1.7, Distribution([0.0, 1.0]))
        assert np.abs(q.probs - w.rows[1]).max() < 1e-11

    def test_random_3x4_against_grid_and_refinement(self):
        from scipy.optimize import minimize

        rng = np.random.default_rng(19)
        w = Channel(rng.dirichlet([2, 2, 2, 2], size=3))
        p = Distribution(rng.dirichlet([3, 3, 3]))
        rho = 0.8
        lam = rho / (1 + rho)
        q = inner_opt_q(w, rho, p)
        val = lambda_qp(w, q, p, lam)

        def neg(z):
            e = np.exp(z - z.max())
            return -lambda_qp(w, Distribution(e / e.sum()), p, lam)

        best = -min(
            minimize(neg, rng.standard_normal(4), method="Nelder-Mead",
                     options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 8000}).fun
            for _ in range(3)
        )
        assert val == pytest.approx(best, abs=1e-6)
        assert val >= best - 1e-9  # the fixed point is the maximizer


class TestSaddlePoint:
    def test_bsc_closed_form(self, bsc01, uniform2):
        sp = saddle_point(bsc01, 0.2, uniform2)
        assert np.abs(sp.q_star.probs - 0.5).max() < 1e-11
        assert sp.value == pytest.approx(bsc_esp_closed_form(0.1, 0.2), abs=1e-9)
        assert sp.fixed_point_residual <= 1e-10

    def test_degenerate_branch(self, bsc01):
        # a skewed composition leaves room between I(P;W) and C
        p = Distribution([0.75, 0.25])
        rate = mutual_information(p, bsc01) + 0.0005
        assert rate < capacity(bsc01)[0]
        sp = saddle_point(bsc01, rate, p)
        assert sp.degenerate and sp.rho_star == 0.0 and sp.value == 0.0

    def test_rate_domain_errors(self, bsc01, uniform2):
        c, _ = capacity(bsc01)
        with pytest.raises(DomainError):
            saddle_point(bsc01, c + 0.01, uniform2)
        with pytest.raises(DomainError):
            saddle_point(bsc01, 0.0, uniform2)

    def test_value_matches_primal_oracle_random(self):
        rng = np.random.default_rng(101)
        for k in range(5):
            w, rate, p = nondegenerate_instance(rng, 2 + k % 3, 2 + (k + 1) % 3, sparse=(k % 2 == 0))
            sp = saddle_point(w, rate, p)
            oracle = esp_primal_oracle(w, rate, p)
            assert sp.value == pytest.approx(oracle, abs=1e-6)
            assert sp.fixed_point_residual <= 1e-10

    def test_saddle_inequalities(self):
        # K(rho, Q*) <= K(rho*, Q*) <= K(rho*, Q) over random probes
        rng = np.random.default_rng(57)
        w, rate, p = nondegenerate_instance(rng, 3, 3)
        sp = saddle_point(w, rate, p)
        mid = k_rp(w, sp.rho_star, sp.q_star, rate, p)
        for _ in range(100):
            rho = float(rng.uniform(0.0, 2 * sp.rho_star))
            assert k_rp(w, rho, sp.q_star, rate, p) <= mid + 1e-9
        for _ in range(100):
            q = Distribution(rng.dirichlet(np.ones(w.ny)))
            assert mid <= k_rp(w, sp.rho_star, q, rate, p) + 1e-9

    def test_rho_star_is_minus_slope(self):
        # rho* equals the slope magnitude -dE_SP/dR (central differences)
        rng = np.random.default_rng(73)
        w, rate, p = nondegenerate_instance(rng, 2, 3)
        sp = saddle_point(w, rate, p)
        h = 1e-5
        slope = (esp_value(w, rate + h, p) - esp_value(w, rate - h, p)) / (2 * h)
        assert abs(sp.rho_star + slope) <= 1e-4

    def test_rho_star_against_high_precision_kkt_solution(self):
        # Reference: the saddle's KKT system at this instance, solved with
        # mpmath at 50 significant digits (mp.findroot from the double
        # solution, residual < 1e-45). Unknowns rho, Q(y0), Q(y1) with
        # Q(y2) = 1 - Q(y0) - Q(y1); equations, with lam = rho/(1+rho) and
        # t_x(y) = W(y|x)^(1-lam) Q(y)^lam over the used rows x in {0, 2}:
        #   Q(y) = sum_x P(x) t_x(y) / sum_y' t_x(y')        (y = y0, y1)
        #   0 = g'(rho) = -R - Lambda - Lambda' / (1 + rho),
        #   Lambda  = sum_x P(x) log sum_y t_x(y),
        #   Lambda' = sum_x P(x) sum_y t_x(y) log(Q(y)/W(y|x)) / sum_y t_x(y).
        # rho* = 3.79240617998750432262783238207..., Q* = (0.172349043752535834...,
        # 0.450524049676283815..., 0.377126906571180351...). A loose root
        # tolerance would pass the 1e-4 finite-difference slope check above.
        w = Channel([[0.8, 0.15, 0.05], [0.1, 0.7, 0.2], [0.0, 0.3, 0.7]])
        p = Distribution([0.61191558837890625, 0.0, 0.38808441162109375])
        sp = saddle_point(w, 0.1, p)
        assert abs(sp.rho_star - 3.7924061799875042) <= 1e-10
        lo, hi = sp.ternary_bracket
        assert lo <= sp.rho_star <= hi and hi - lo <= 1e-13

    def test_continuity_under_small_perturbation(self):
        rng = np.random.default_rng(91)
        w, rate, p = nondegenerate_instance(rng, 3, 3)
        sp = saddle_point(w, rate, p)
        delta = np.array([0.5e-6, -0.5e-6, 0.0])
        p2 = Distribution(p.probs + delta)
        sp2 = saddle_point(w, rate, p2)
        assert abs(sp.rho_star - sp2.rho_star) <= 1e-3
        assert np.abs(sp.q_star.probs - sp2.q_star.probs).sum() <= 1e-3


class TestEspPrimalOracle:
    def test_zero_above_mutual_information(self, bsc01):
        p = Distribution([0.7, 0.3])
        rate = mutual_information(p, bsc01) + 0.001
        assert esp_primal_oracle(bsc01, rate, p) == 0.0

    def test_bsc_closed_form(self, bsc01, uniform2):
        assert esp_primal_oracle(bsc01, 0.2, uniform2) == pytest.approx(
            bsc_esp_closed_form(0.1, 0.2), abs=1e-6
        )


class TestEspOfR:
    def test_bsc_maximizer_is_uniform(self, bsc01):
        value, argmax = esp_of_r(bsc01, 0.2)
        assert value == pytest.approx(bsc_esp_closed_form(0.1, 0.2), abs=1e-8)
        assert len(argmax) == 1
        assert np.abs(argmax[0].probs - 0.5).max() < 1e-4

    def test_decreasing_toward_capacity(self, bsc01):
        c, _ = capacity(bsc01)
        rates = np.linspace(0.15, c - 0.01, 5)
        vals = [esp_of_r(bsc01, float(r), resolution=32)[0] for r in rates]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.01

    def test_zchannel_grid_self_consistency(self):
        z = Channel([[1.0, 0.0], [0.5, 0.5]])
        # 0.25 bits in nats: Z(0.5) has C = log(5/4) ~ 0.2231 nats, so the
        # rate lies inside (R_inf, C) = (0, C), where E_SP(R) ~ 7.5e-3.
        rate = 0.25 * np.log(2.0)
        coarse = esp_of_r(z, rate, resolution=48)[0]
        fine = esp_of_r(z, rate, resolution=96)[0]
        assert coarse > 100 * 1e-5
        assert abs(coarse - fine) <= 1e-5

    def test_zchannel_rate_outside_domain_rejected(self):
        z = Channel([[1.0, 0.0], [0.5, 0.5]])
        c, _ = capacity(z)
        # 0.25 nats is above C = log(5/4); the domain (R_inf, C) is open.
        for rate in (0.25, c):
            with pytest.raises(DomainError, match=r"outside \(R_inf, C\)"):
                esp_of_r(z, rate)

    def test_empty_domain_is_named(self):
        # C = R_inf = log 2: input 0 is a mixture of the two noiseless inputs
        w = Channel([[0.529, 0.471], [0.0, 1.0], [1.0, 0.0]])
        for call in (lambda: esp_of_r(w, 0.5), lambda: saddle_point(w, 0.5, Distribution.uniform(3))):
            with pytest.raises(DomainError, match=r"domain \(R_inf, C\) is empty"):
                call()

    def test_large_alphabets_match_the_primal_oracle(self):
        rows = np.full((7, 7), 0.02)
        np.fill_diagonal(rows, 0.88)
        ten = Channel(np.random.default_rng(10).dirichlet(np.full(4, 2.0), size=10))
        for w, rate in ((Channel(rows), 0.1), (ten, interior_rate(ten, 0.5))):
            value, (p_star,) = esp_of_r(w, rate)
            assert value > 1e-3
            assert abs(esp_primal_oracle(w, rate, p_star) - value) <= 1e-8

    def test_matches_the_grid_oracle_and_the_saddle(self):
        # 40 seeded 2-4 x 2-4 channels, every third sparse
        rng = np.random.default_rng(2026)
        for i in range(40):
            nx, ny = (int(v) for v in rng.integers(2, 5, size=2))
            w = random_channel(rng, nx, ny, sparse=i % 3 == 2)
            for frac in (0.3, 0.5, 0.8):
                rate = interior_rate(w, frac)
                value, (p_star,) = esp_of_r(w, rate)
                grid, _ = esp_of_r_grid(w, rate, 16)
                assert grid - 1e-12 <= value <= grid + 1e-9
                sp = saddle_point(w, rate, p_star)
                assert abs(sp.value - value) <= 1e-10
                assert abs(rho_star_r(w, rate) - sp.rho_star) <= 1e-8


class TestRhoStarR:
    def test_bsc_matches_finite_difference(self, bsc01):
        rho = rho_star_r(bsc01, 0.2)
        h = 1e-5
        up = esp_of_r(bsc01, 0.2 + h)[0]
        dn = esp_of_r(bsc01, 0.2 - h)[0]
        assert abs(rho + (up - dn) / (2 * h)) <= 1e-4

    def test_identical_rows_channel_rejected(self):
        w = Channel([[0.4, 0.6], [0.4, 0.6]])
        with pytest.raises(DomainError):
            rho_star_r(w, 0.1)

    def test_nonnegative(self, zchannel03):
        assert rho_star_r(zchannel03, 0.2, resolution=32) >= 0.0
