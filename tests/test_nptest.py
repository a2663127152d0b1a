import itertools
import tracemalloc

import numpy as np
import pytest

from spherepack import nptest
from spherepack.errors import DomainError
from spherepack.nptest import (
    ATOM_CAP,
    alpha_star,
    alpha_star_fractional,
    build_loglr_law,
    np_alpha_for_composition,
    round_to_type,
    threshold_test_alpha_beta,
)
from spherepack.probability import Channel, Distribution
from spherepack.saddle import saddle_point
from spherepack.shifted import shifted_context, tilde_esp

from .conftest import convolve_loglr, enumerate_loglr, nondegenerate_instance


class TestBuildLaw:
    def test_single_letter_bsc_vs_uniform(self):
        law = build_loglr_law([(Distribution([0.9, 0.1]), Distribution([0.5, 0.5]), 1)])
        assert np.allclose(sorted(law.t), [np.log(0.5 / 0.9), np.log(0.5 / 0.1)])
        assert np.allclose(np.exp(law.logp_null.astype(float)), [0.9, 0.1])
        assert law.null_only_mass == 0.0 and law.alt_only_mass == 0.0

    def test_identical_laws_merge_to_zero_atom(self):
        p = Distribution([0.2, 0.3, 0.5])
        law = build_loglr_law([(p, p, 6)])
        assert law.t.size == 1
        assert law.t[0] == pytest.approx(0.0, abs=1e-12)
        assert float(np.exp(law.logp_null[0])) == pytest.approx(1.0, abs=1e-12)

    def test_five_fold_bsc_matches_enumeration(self):
        null, alt = Distribution([0.9, 0.1]), Distribution([0.5, 0.5])
        law = build_loglr_law([(null, alt, 5)])
        atoms, n_only, a_only = enumerate_loglr([(null, alt, 5)])
        assert law.t.size == len(atoms)
        for t, logp in zip(law.t, law.logp_null):
            assert float(np.exp(logp)) == pytest.approx(atoms[round(float(t), 10)], rel=1e-12)
        assert n_only == 0.0 and a_only == 0.0

    def test_mixed_support_bookkeeping_vs_enumeration(self):
        # alt misses output 0; null misses output 2
        null = Distribution([0.5, 0.5, 0.0])
        alt = Distribution([0.0, 0.4, 0.6])
        law = build_loglr_law([(null, alt, 3)])
        atoms, n_only, a_only = enumerate_loglr([(null, alt, 3)])
        assert law.t.size == len(atoms)
        assert law.null_only_mass == pytest.approx(n_only, abs=1e-12)
        assert law.alt_only_mass == pytest.approx(a_only, abs=1e-12)
        assert law.null_common_mass() == pytest.approx(1 - n_only, abs=1e-12)

    def test_random_pair_enumeration_atom_for_atom(self):
        rng = np.random.default_rng(13)
        for _ in range(4):
            null = Distribution(rng.dirichlet([1.2, 1.2, 1.2]))
            alt = Distribution(rng.dirichlet([1.2, 1.2, 1.2]))
            law = build_loglr_law([(null, alt, 4)])
            atoms, _, _ = enumerate_loglr([(null, alt, 4)])
            assert law.t.size == len(atoms)
            total = sorted(atoms.items())
            for (t_ref, p_ref), t, logp in zip(total, law.t, law.logp_null):
                assert t == pytest.approx(t_ref, abs=1e-9)
                assert float(np.exp(logp)) == pytest.approx(p_ref, rel=1e-10)

    def test_alt_mass_identity_after_deep_convolution(self):
        # p_alt = p_null * e^t for every atom, and the masses close to 1
        rng = np.random.default_rng(17)
        null = Distribution(rng.dirichlet([2, 2, 2]))
        alt = Distribution(rng.dirichlet([2, 2, 2]))
        law = build_loglr_law([(null, alt, 400)])
        p_alt = np.exp(law.logp_alt)
        assert float(p_alt.sum()) == pytest.approx(1.0, rel=1e-10)
        assert float(np.exp(law.logp_null).sum()) == pytest.approx(1.0, rel=1e-10)

    def test_type_classes_match_sequential_convolution(self):
        rng = np.random.default_rng(41)
        rows = [Distribution(rng.dirichlet([1.5, 1.5, 1.5])) for _ in range(4)]
        for pairs in ([(rows[0], rows[1], 120)], [(rows[0], rows[1], 25), (rows[2], rows[3], 15)]):
            law = build_loglr_law(pairs)
            ref = convolve_loglr(pairs)
            assert law.t.size == ref.t.size
            assert np.allclose(law.t, ref.t, rtol=0.0, atol=1e-9)
            rel = np.abs(np.expm1(np.asarray(law.logp_null - ref.logp_null, dtype=float)))
            assert rel.max() <= 1e-10

    @pytest.fixture
    def products(self, monkeypatch):
        """Counts the atoms formed by type classes and by convolution products."""
        formed = [0]

        def counted(blocks):
            def wrapper(*args):
                for block in blocks(*args):
                    formed[0] += block[0].size
                    yield block

            return wrapper

        monkeypatch.setattr(nptest, "_power_blocks", counted(nptest._power_blocks))
        monkeypatch.setattr(nptest, "_product_blocks", counted(nptest._product_blocks))
        return formed

    @pytest.mark.parametrize(
        "row, atoms, most",
        [
            # (1-2e, e, e): two values per letter, shared by all letters
            ((0.8, 0.1, 0.1), 241, 50_000),
            # cyclic (.7, .2, .1): three values in general position, shared by
            # all letters; one product per letter would form
            # 3321^2 + 13041 * 3321 = 54M atoms, copy by copy forms 6.9M
            ((0.7, 0.2, 0.1), 29_161, 10_000_000),
        ],
        ids=["symmetric", "cyclic"],
    )
    def test_values_shared_across_letters_join_copy_by_copy(self, products, row, atoms, most):
        rows = [Distribution(np.roll(row, x)) for x in range(3)]
        uniform = Distribution([1 / 3] * 3)
        pairs = [(r, uniform, 80) for r in rows]
        law = build_loglr_law(pairs)
        assert law.t.size == atoms  # C(N+D-1, D-1) for D shared values, N = 240
        assert products[0] <= most
        ref = convolve_loglr(pairs)
        assert np.allclose(law.t, ref.t, rtol=0.0, atol=1e-9)
        rel = np.abs(np.expm1(np.asarray(law.logp_null - ref.logp_null, dtype=float)))
        assert rel.max() <= 1e-10

    def test_lattice_letter_with_many_type_classes_powers_copy_by_copy(self, products):
        # log-ratios (-2, -1, 1, 2) log 2: C(1003, 3) = 167,668,501 type
        # classes land on the 4,001 values j log 2; copy by copy forms 8.0M
        null = Distribution([0.5, 0.25, 0.125, 0.125])
        alt = Distribution([0.125, 0.125, 0.25, 0.5])
        law = build_loglr_law([(null, alt, 1000)])
        assert law.t.size == 4001
        assert np.allclose(law.t, np.arange(-2000, 2001) * np.log(2.0), rtol=0.0, atol=1e-9)
        assert float(np.exp(law.logp_null).sum()) == pytest.approx(1.0, rel=1e-12)
        assert products[0] <= 10_000_000

    def test_integer_multiple_law_merges_blockwise(self):
        # log-ratios (-log 2, log 2, 0): C(2002, 2) = 2,003,001 type classes,
        # more than the atom cap, land on the 4,001 values j log 2
        null = Distribution([0.5, 0.25, 0.25])
        alt = Distribution([0.25, 0.5, 0.25])
        tracemalloc.start()
        try:
            law = build_loglr_law([(null, alt, 2000)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 2_003_001 > ATOM_CAP
        assert law.t.size == 4001
        assert np.allclose(law.t, np.arange(-2000, 2001) * np.log(2.0), rtol=0.0, atol=1e-9)
        assert float(np.exp(law.logp_null).sum()) == pytest.approx(1.0, rel=1e-12)
        assert peak < 64 * 2**20

    def test_null_mass_closes_at_large_multiplicity(self):
        # 0.9 + 0.1 is 1 + 2.8e-17 in float64: with the letter's logs taken in
        # float64, the null masses of 30000 copies summed to 1 + 1.03e-12
        law = build_loglr_law([(Distribution([0.9, 0.1]), Distribution([0.5, 0.5]), 30_000)])
        assert abs(float(np.exp(law.logp_null).sum() - 1)) <= 5e-13

    @pytest.mark.parametrize("mult", [2.5, True, np.float64(3.0)])
    def test_non_integer_multiplicity_rejected(self, mult):
        p = Distribution([0.9, 0.1])
        with pytest.raises(DomainError, match="integers"):
            build_loglr_law([(p, Distribution([0.5, 0.5]), mult)])


class TestAlphaStar:
    def test_zero_budget_accepts_everything(self):
        law = build_loglr_law([(Distribution([0.9, 0.1]), Distribution([0.5, 0.5]), 8)])
        tp = alpha_star(law, 0.0)
        assert tp.alpha == 0.0
        assert tp.beta == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "alpha_of",
        [lambda law, r: alpha_star(law, r).alpha, alpha_star_fractional],
        ids=["alpha_star", "alpha_star_fractional"],
    )
    def test_nan_budget_rejected_infinite_budget_accepted(self, alpha_of):
        law = build_loglr_law([(Distribution([0.9, 0.1]), Distribution([0.5, 0.5]), 8)])
        for bad in (float("nan"), -0.1):
            with pytest.raises(DomainError, match="non-negative"):
                alpha_of(law, bad)
        # +inf is the zero budget: every atom is rejected
        assert alpha_of(law, float("inf")) == pytest.approx(1.0, abs=1e-12)

    def test_bsc_binomial_formula(self):
        # alpha equals the binomial tail beyond n*, for N = 10 and 20
        from scipy.special import comb

        p, rate = 0.1, 0.3
        null, alt = Distribution([1 - p, p]), Distribution([0.5, 0.5])
        for n in (10, 20):
            law = build_loglr_law([(null, alt, n)])
            tp = alpha_star(law, n * rate)
            cdf = np.cumsum([comb(n, k) * 2.0**-n for k in range(n + 1)])
            n_star = int(np.searchsorted(cdf, np.exp(-n * rate) * (1 + 1e-12), side="right")) - 1
            expect = sum(comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n_star + 1, n + 1))
            assert tp.alpha == pytest.approx(expect, rel=1e-12)

    def test_optimal_among_threshold_tests(self):
        # five-letter string over a two-input channel pair with 3 outputs:
        # exhaustive sweep over atom thresholds can do no better
        rng = np.random.default_rng(19)
        null0 = Distribution(rng.dirichlet([1.5, 1.5, 1.5]))
        alt0 = Distribution(rng.dirichlet([1.5, 1.5, 1.5]))
        null1 = Distribution(rng.dirichlet([1.5, 1.5, 1.5]))
        alt1 = Distribution(rng.dirichlet([1.5, 1.5, 1.5]))
        law = build_loglr_law([(null0, alt0, 3), (null1, alt1, 2)])
        p_null = np.exp(law.logp_null.astype(float))
        p_alt = np.exp(law.logp_alt.astype(float))
        for r in np.linspace(0.0, 4.0, 50):
            budget = np.exp(-r)
            tp = alpha_star(law, float(r))
            best = np.inf
            for k in range(law.t.size + 1):
                if p_alt[:k].sum() <= budget * (1 + 1e-12):
                    best = min(best, p_null[k:].sum())
            assert tp.alpha == pytest.approx(best, abs=1e-12)

    def test_alpha_beta_within_unit_interval_and_monotone(self):
        rng = np.random.default_rng(23)
        null = Distribution(rng.dirichlet([2, 2]))
        alt = Distribution(rng.dirichlet([2, 2]))
        law = build_loglr_law([(null, alt, 12)])
        alphas = []
        for r in np.linspace(0.0, 6.0, 25):
            tp = alpha_star(law, float(r))
            assert 0.0 <= tp.alpha <= 1.0 and 0.0 <= tp.beta <= 1.0
            assert tp.beta <= np.exp(-r) * (1 + 1e-12)
            alphas.append(tp.alpha)
        assert all(b >= a - 1e-15 for a, b in zip(alphas, alphas[1:]))

    def test_codebook_regions_cannot_beat_fractional_np_value(self):
        # any decision region with small enough alt mass has type-I error at
        # least the randomized-boundary NP value (the uniform lower bound on
        # all tests); the deterministic threshold value sits above it
        from spherepack.nptest import alpha_star_fractional

        rng = np.random.default_rng(29)
        null = Distribution(rng.dirichlet([2, 2]))
        alt = Distribution(rng.dirichlet([2, 2]))
        n, rate = 4, 0.4
        strings = list(itertools.product(range(2), repeat=n))
        pn = np.array([np.prod([null.probs[y] for y in s]) for s in strings])
        pa = np.array([np.prod([alt.probs[y] for y in s]) for s in strings])
        law = build_loglr_law([(null, alt, n)])
        frac = alpha_star_fractional(law, n * rate)
        assert alpha_star(law, n * rate).alpha >= frac - 1e-15
        budget = np.exp(-n * rate)
        for _ in range(200):
            mask = rng.random(len(strings)) < 0.4
            if pa[mask].sum() <= budget:
                e_m = pn[~mask].sum()
                assert e_m >= frac - 1e-12

    def test_support_restricted_budget_equivalence(self):
        # beta_T <= e^{-NR}  iff  the reduced-alt mass of the accept region
        # is <= e^{-N r}: the support factor is exactly exp(-N d)
        rng = np.random.default_rng(31)
        w, rate, p = nondegenerate_instance(rng, 2, 3, sparse=True)
        ctx = shifted_context(w, rate, p)
        n = 4
        counts = round_to_type(p, n)
        pairs = [(w.row(x), ctx.saddle.q_star, int(c)) for x, c in enumerate(counts) if c]
        law = build_loglr_law(pairs)
        d = float(ctx.d_wm_qstar)
        # the common-support alt mass satisfies log Q*{S(W^n)} = -n*d at the
        # rounded type; rebuild d for the rounded composition
        d_rounded = -sum(
            c * np.log(ctx.saddle.q_star.probs[w.supports[x]].sum())
            for x, c in enumerate(counts)
            if c
        )
        assert law.alt_common_mass() == pytest.approx(np.exp(-d_rounded), rel=1e-10)


class TestThresholdTest:
    def test_monte_carlo_smoke(self, bsc01, uniform2):
        ctx = shifted_context(bsc01, 0.2, uniform2)
        n, zeta = 24, 0.1
        res = threshold_test_alpha_beta(ctx, n, zeta)
        rng = np.random.default_rng(37)
        trials = 1_000_000
        # sample from W(.|x^n): composition twelve/twelve, error count binomial
        t_stay = np.log(ctx.w_minus.rows[0][0] / bsc01.rows[0][0])
        t_flip = np.log(ctx.w_minus.rows[0][1] / bsc01.rows[0][1])
        flips = rng.binomial(n, 0.1, size=trials)
        t_tot = flips * t_flip + (n - flips) * t_stay
        alpha_mc = float((t_tot >= res.threshold - 1e-11).mean())
        se = np.sqrt(res.alpha * (1 - res.alpha) / trials)
        assert abs(alpha_mc - res.alpha) <= 3 * se + 1e-9

    def test_beta_tracks_unshifted_budget(self, bsc01, uniform2):
        # the varying threshold keeps beta at the e^{-n r} scale (the strict
        # guaranteed violation needs K n^zeta / e > 1, far past desk scale);
        # frozen band regression of the exact ratios on this instance
        ctx = shifted_context(bsc01, 0.2, uniform2)
        for n in (100, 400, 1000):
            res = threshold_test_alpha_beta(ctx, n, 0.1)
            ratio = res.beta / np.exp(-n * ctx.r)
            assert 0.7 < ratio < 2.2
        assert threshold_test_alpha_beta(ctx, 100, 0.1).beta > np.exp(-100 * ctx.r)

    def test_alpha_at_least_slb_bound_when_gated(self, bsc01, uniform2):
        from spherepack.asymptotics import FiniteSupportRV, slb_bound

        ctx = shifted_context(bsc01, 0.2, uniform2)
        n, zeta = 400, 0.1
        res = threshold_test_alpha_beta(ctx, n, zeta)
        # per-letter laws of log(W-/W) under W for the rounded composition
        rvs = []
        for x, c in enumerate(res.counts):
            mask = bsc01.supports[x]
            vals = np.log(ctx.w_minus.rows[x][mask]) - np.log(bsc01.rows[x][mask])
            rvs.extend([FiniteSupportRV(vals, bsc01.rows[x][mask])] * c)
        q_level = res.e_tilde_rn - res.r_n
        rep = slb_bound(rvs, q_level)
        if rep.condition_ok:
            assert res.alpha >= rep.bound
        else:
            assert rep.bound == 0.0
        # with the test-only constant the gate opens and the bound must hold
        rep2 = slb_bound(rvs, q_level, berry_esseen_c=0.05)
        if rep2.condition_ok:
            assert res.alpha >= rep2.bound

    def test_too_small_n_rejected(self, bsc01, uniform2):
        ctx = shifted_context(bsc01, 0.2, uniform2)
        with pytest.raises(DomainError):
            threshold_test_alpha_beta(ctx, 2, 0.1)


class TestRoundToType:
    def test_exact_type_is_fixed_point(self):
        p = Distribution([0.25, 0.75])
        assert round_to_type(p, 8).tolist() == [2, 6]

    def test_largest_remainder(self):
        p = Distribution([0.4, 0.35, 0.25])
        counts = round_to_type(p, 10)
        assert counts.sum() == 10
        assert counts.tolist() == [4, 4, 2] or counts.tolist() == [4, 3, 3]
        # L1-nearest: compare against every 3-part composition of 10
        best = min(
            sum(abs(a / 10 - b) for a, b in zip((i, j, 10 - i - j), p.probs))
            for i in range(11)
            for j in range(11 - i)
        )
        ours = sum(abs(c / 10 - b) for c, b in zip(counts, p.probs))
        assert ours == pytest.approx(best, abs=1e-12)

    def test_negative_length_rejected(self):
        with pytest.raises(DomainError, match="non-negative length"):
            round_to_type(Distribution([0.4, 0.6]), -3)


class TestNpOracleEndToEnd:
    def test_alpha_decreases_with_blocklength(self, bsc01, uniform2):
        q = saddle_point(bsc01, 0.2, uniform2).q_star
        alphas = [
            np_alpha_for_composition(bsc01, q, uniform2, n, 0.2).log_alpha
            for n in (25, 50, 100, 200)
        ]
        assert all(b < a for a, b in zip(alphas, alphas[1:]))

    def test_exponent_matches_esp(self, bsc01, uniform2):
        # -log alpha* / n approaches E_SP(R,P)
        sp = saddle_point(bsc01, 0.2, uniform2)
        n = 2000
        tp = np_alpha_for_composition(bsc01, sp.q_star, uniform2, n, 0.2)
        assert -tp.log_alpha / n == pytest.approx(sp.value, abs=0.01)
