import numpy as np
import pytest
from scipy.stats import binom

from spherepack.asymptotics import FiniteSupportRV, slb_bound, solve_eta, tilt_rv
from spherepack.errors import DomainError
from spherepack.nptest import alpha_star, build_loglr_law
from spherepack.probability import Distribution


def bernoulli(p: float) -> FiniteSupportRV:
    return FiniteSupportRV([0.0, 1.0], [1 - p, p])


class TestFiniteSupportRV:
    def test_merges_close_values(self):
        rv = FiniteSupportRV([0.0, 1e-13, 1.0], [0.25, 0.25, 0.5])
        assert rv.values.size == 2
        assert rv.probs[0] == pytest.approx(0.5, abs=1e-15)

    def test_rejects_bad_mass(self):
        with pytest.raises(DomainError):
            FiniteSupportRV([0.0, 1.0], [0.5, 0.4])


class TestTilt:
    def test_zero_tilt_is_identity(self):
        rv = bernoulli(0.3)
        out = tilt_rv(rv, 0.0)
        assert np.abs(out.probs - rv.probs).max() < 1e-15

    def test_bernoulli_balancing_tilt(self):
        rv = bernoulli(0.3)
        out = tilt_rv(rv, np.log(7 / 3))
        assert out.probs[1] == pytest.approx(0.5, abs=1e-12)

    def test_tilted_mean_and_variance_match_cgf_derivatives(self):
        rng = np.random.default_rng(3)
        rv = FiniteSupportRV(rng.standard_normal(5), rng.dirichlet(np.ones(5)))
        eta = 0.8
        tilted = tilt_rv(rv, eta)
        assert tilted.mean() == pytest.approx(rv.cgf_prime(eta), abs=1e-12)
        h = 1e-5
        var_fd = (rv.cgf(eta + h) - 2 * rv.cgf(eta) + rv.cgf(eta - h)) / h**2
        cen = tilted.values - tilted.mean()
        assert float(tilted.probs @ cen**2) == pytest.approx(var_fd, abs=1e-5)

    def test_tilt_untilt_roundtrip(self):
        rng = np.random.default_rng(5)
        rv = FiniteSupportRV(rng.standard_normal(6), rng.dirichlet(np.ones(6)))
        back = tilt_rv(tilt_rv(rv, 1.3), -1.3)
        assert np.abs(back.probs - rv.probs).max() < 1e-12


class TestSolveEta:
    def test_bernoulli_closed_form(self):
        rvs = [bernoulli(0.3)] * 50
        eta = solve_eta(rvs, 0.5)
        assert eta == pytest.approx(np.log(7 / 3), abs=1e-10)

    def test_q_at_mean_rejected(self):
        with pytest.raises(DomainError, match="no positive tilt"):
            solve_eta([bernoulli(0.3)] * 10, 0.3)

    def test_root_beyond_cap_rejected(self):
        with pytest.raises(DomainError, match="eta out of range"):
            solve_eta([bernoulli(0.3)] * 10, 0.56)  # needs eta = log(0.56*0.7/(0.44*0.3)) > 1

    def test_cap_escape_hatch(self):
        eta = solve_eta([bernoulli(0.3)] * 10, 0.56, eta_cap=3.0)
        assert eta > 1.0

    def test_mixed_atoms_residual(self):
        rng = np.random.default_rng(7)
        rvs = [
            FiniteSupportRV(rng.standard_normal(4), rng.dirichlet(np.ones(4)))
            for _ in range(7)
        ]
        mean = sum(rv.mean() for rv in rvs) / len(rvs)
        hi = sum(rv.cgf_prime(1.0) for rv in rvs) / len(rvs)
        q = 0.5 * (mean + hi)
        eta = solve_eta(rvs, q)
        resid = abs(sum(rv.cgf_prime(eta) for rv in rvs) / len(rvs) - q)
        assert resid <= 1e-12


class TestSlbBound:
    def test_mixed_support_sizes_match_per_variable_sums(self):
        # summands built from channel rows as the NP tests build them: the
        # log-likelihood ratio under each row, on supports of 3, 2 and 1 atoms
        w = np.array([[0.6, 0.3, 0.1], [0.0, 0.45, 0.55], [0.0, 0.0, 1.0]])
        q = np.array([0.3, 0.3, 0.4])
        per_row = []
        for row in w:
            mask = row > 0
            per_row.append(FiniteSupportRV(np.log(row[mask] / q[mask]), row[mask]))
        rvs = [per_row[0]] * 4 + [per_row[1]] * 3 + [per_row[2]] * 2
        n = len(rvs)
        q_level = sum(rv.cgf_prime(0.6) for rv in rvs) / n
        rep = slb_bound(rvs, q_level, berry_esseen_c=0.1)
        assert rep.eta == pytest.approx(0.6, abs=1e-12)
        m2n = m3n = cgf_sum = 0.0
        for rv in rvs:
            tilted = tilt_rv(rv, rep.eta)
            cen = np.abs(tilted.values - tilted.mean())
            m2n += float(tilted.probs @ cen**2)
            m3n += float(tilted.probs @ cen**3)
            cgf_sum += rv.cgf(rep.eta)
        assert rep.m2n == pytest.approx(m2n, rel=1e-13)
        assert rep.m3n == pytest.approx(m3n, rel=1e-13)
        assert rep.lambda_star == pytest.approx(q_level * rep.eta - cgf_sum / n, abs=1e-13)

    def test_condition_fails_at_small_n(self):
        rep = slb_bound([bernoulli(0.3)] * 5, 0.5)
        assert not rep.condition_ok
        assert rep.bound == 0.0
        assert np.isfinite(rep.kn) and rep.kn > 0
        assert rep.m2n > 0 and rep.m3n > 0

    def test_condition_fails_for_all_desk_scale_bernoulli(self):
        # K_n = 15 sqrt(2pi)/2 at the balanced tilt: the gate needs n ~ 6e5
        for n in (100, 300, 1000, 2000):
            rep = slb_bound([bernoulli(0.3)] * n, 0.5)
            assert not rep.condition_ok
            assert rep.kn == pytest.approx(15 * np.sqrt(2 * np.pi) * 0.5, abs=1e-9)

    def test_fenchel_value_bernoulli(self):
        rep = slb_bound([bernoulli(0.3)] * 100, 0.5)
        expect = 0.5 * np.log(0.5 / 0.3) + 0.5 * np.log(0.5 / 0.7)
        assert rep.lambda_star == pytest.approx(expect, abs=1e-10)

    def test_sound_against_exact_binomial_tail_with_test_constant(self):
        # exercising the formula mechanics with a reduced Berry-Esseen
        # constant so the gate opens at desk scale; frozen regression
        for n in (100, 300, 1000, 2000):
            rep = slb_bound([bernoulli(0.3)] * n, 0.5, berry_esseen_c=0.1)
            assert rep.condition_ok
            tail = float(binom.sf(int(np.ceil(0.5 * n)) - 1, n, 0.3))
            assert rep.bound <= tail
            assert np.log(tail) - np.log(rep.bound) <= np.log(40.0)

    def test_exact_tail_from_convolution_engine_matches_scipy(self):
        # the hypothesis-testing convolution is the in-house tail oracle
        n = 300
        null = Distribution([0.7, 0.3])
        alt = Distribution([0.3, 0.7])  # likelihood ratio increasing in the count
        law = build_loglr_law([(null, alt, n)])
        t_one = np.log(0.7 / 0.3) - np.log(0.3 / 0.7)
        # P(count >= k) = null mass of atoms with t >= threshold
        k = 160
        thr = k * np.log(0.7 / 0.3) + (n - k) * np.log(0.3 / 0.7) - 1e-9
        mass = float(np.exp(law.logp_null[law.t >= thr]).sum())
        assert mass == pytest.approx(float(binom.sf(k - 1, n, 0.3)), rel=1e-10)

    def test_near_maximum_level_two_atoms(self):
        # all identical two-atom variables, q close to the maximum value
        n = 40
        rv = FiniteSupportRV([0.0, 1.0], [0.4, 0.6])
        rep = slb_bound([rv] * n, 0.975, eta_cap=50.0)
        exact = float(binom.sf(int(np.ceil(0.975 * n)) - 1, n, 0.6))
        assert rep.lambda_star > 0
        if rep.condition_ok:
            assert rep.bound <= exact
        # the Fenchel exponent approaches the -log P(max)-per-variable scale
        assert 0.75 * (-np.log(0.6)) <= rep.lambda_star <= -np.log(0.6) + 1e-9

    def test_soundness_sweep_with_test_constant_capped_tilt(self):
        # gated instances inside the eta <= 1 regime stay below the exact
        # tail; fixed corpus, frozen as a regression
        for p, q, n in [(0.3, 0.5, 400), (0.3, 0.45, 800), (0.4, 0.55, 600), (0.25, 0.4, 1200)]:
            rv = FiniteSupportRV([0.0, 1.0], [1 - p, p])
            rep = slb_bound([rv] * n, q, berry_esseen_c=0.1)
            assert rep.eta <= 1.0
            if not rep.condition_ok:
                continue
            exact = float(binom.sf(int(np.ceil(q * n)) - 1, n, p))
            assert rep.bound <= exact
