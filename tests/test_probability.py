import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherepack import probability
from spherepack.errors import (
    AlphabetMismatchError,
    ConfigError,
    ConvergenceError,
    DomainError,
    SpherepackError,
)
from spherepack.probability import (
    Channel,
    Distribution,
    capacity,
    channel_from_json,
    conditional_kl,
    divergence_to_output,
    gallager_e0,
    kl_divergence,
    mutual_information,
    r_infinity,
    tilted_channel_row,
)
from spherepack.numerics import log_path, tilt

from .conftest import (
    blahut_arimoto,
    bsc,
    capacity_gap,
    r_infinity_lp,
    random_channel,
    random_interior_p,
)

# corpus draw 96 of the saddle-corpus benchmark: input 0 has zero optimal mass
CHANNEL_ZERO_MASS_INPUT = [
    [0.516994392606328, 0.0, 0.483005607393672],
    [0.5308671480609577, 0.0, 0.4691328519390424],
    [0.4079834406407695, 0.18895584947592564, 0.4030607098833048],
]


def _oracle_draw(family: str, rng: np.random.Generator) -> np.ndarray:
    nx, ny = (int(k) for k in rng.integers(2, 7, size=2))
    if family == "wide":
        nx = ny + int(rng.integers(1, 4))
    alpha = {"dirichlet": float(rng.choice([0.3, 1.0, 5.0, 30.0])), "near-useless": 200.0}.get(family, 2.0)
    rows = rng.dirichlet(np.ones(ny) * alpha, size=nx)
    if family == "sparse":
        mask = rng.random((nx, ny)) < 0.4
        mask[np.arange(nx), rows.argmax(axis=1)] = False
        rows = np.where(mask, 0.0, rows)
    elif family == "near-duplicate":
        rows[1] = rows[0] * (1.0 + 1e-6 * rng.standard_normal(ny))
    elif family == "zero-mass":
        # a mixture of two rows is beaten by them: its optimal mass is 0
        lam = rng.uniform(0.2, 0.8)
        rows = np.vstack([rows, lam * rows[0] + (1.0 - lam) * rows[1]])
    return rows / rows.sum(axis=1, keepdims=True)


class TestDistribution:
    def test_normalization_and_support(self):
        d = Distribution([0.25, 0.75, 0.0])
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-15)
        assert d.support.tolist() == [True, True, False]

    def test_rejects_bad_sum(self):
        with pytest.raises(DomainError):
            Distribution([0.5, 0.4])

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            Distribution([1.1, -0.1])

    def test_zero_rule_is_stable(self):
        d = Distribution([1.0 - 5e-15, 5e-15])
        assert d.support.tolist() == [True, False]


class TestKl:
    def test_identity_is_zero(self):
        p = Distribution([0.3, 0.7])
        assert kl_divergence(p, p) == 0.0

    def test_point_mass_vs_uniform(self):
        # hand evaluation of the defining sum
        assert kl_divergence(Distribution([1, 0]), Distribution([0.5, 0.5])) == pytest.approx(
            np.log(2), abs=1e-12
        )

    def test_absolute_continuity_failure(self):
        assert kl_divergence(Distribution([0.5, 0.5]), Distribution([1, 0])) == np.inf

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            kl_divergence(Distribution([1.0]), Distribution([0.5, 0.5]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_nonnegative_zero_iff_equal(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet([1.5, 1.5, 1.5])
        q = rng.dirichlet([1.5, 1.5, 1.5])
        d = kl_divergence(Distribution(p), Distribution(q))
        assert d >= 0.0
        if d < 1e-12:
            assert np.abs(p - q).max() < 1e-4

    def test_matches_brute_sum(self):
        rng = np.random.default_rng(7)
        p = rng.dirichlet([2, 2, 2, 2])
        q = rng.dirichlet([2, 2, 2, 2])
        brute = sum(pi * np.log(pi / qi) for pi, qi in zip(p, q))
        assert kl_divergence(Distribution(p), Distribution(q)) == pytest.approx(brute, abs=1e-12)


class TestConditionalKl:
    def test_equal_channels(self):
        w = bsc(0.2)
        assert conditional_kl(w, w, Distribution([0.4, 0.6])) == 0.0

    def test_single_letter_composition(self):
        v = bsc(0.3)
        w = bsc(0.1)
        p = Distribution([1.0, 0.0])
        assert conditional_kl(v, w, p) == pytest.approx(
            kl_divergence(v.row(0), w.row(0)), abs=1e-14
        )

    def test_zero_weight_row_ignored_even_if_divergent(self):
        v = Channel([[1.0, 0.0], [0.5, 0.5]])
        w = Channel([[0.5, 0.5], [1.0, 0.0]])  # second row divergence is +inf
        p = Distribution([1.0, 0.0])
        assert np.isfinite(conditional_kl(v, w, p))

    def test_random_instance_brute_force(self):
        rng = np.random.default_rng(11)
        v = Channel(rng.dirichlet([2, 2], size=2))
        w = Channel(rng.dirichlet([2, 2], size=2))
        p = Distribution(rng.dirichlet([2, 2]))
        brute = sum(
            p.probs[x] * v.rows[x, y] * np.log(v.rows[x, y] / w.rows[x, y])
            for x in range(2)
            for y in range(2)
        )
        assert conditional_kl(v, w, p) == pytest.approx(brute, abs=1e-12)


class TestMutualInformation:
    def test_identical_rows(self):
        v = Channel([[0.3, 0.7], [0.3, 0.7]])
        assert mutual_information(Distribution([0.5, 0.5]), v) == pytest.approx(0.0, abs=1e-14)

    def test_noiseless_uniform(self):
        v = Channel(np.eye(3))
        assert mutual_information(Distribution.uniform(3), v) == pytest.approx(np.log(3), abs=1e-12)

    def test_is_min_over_q(self):
        # I(P;V) <= D(V||Q|P) for random output laws Q
        rng = np.random.default_rng(3)
        v = Channel(rng.dirichlet([2, 2, 2], size=3))
        p = Distribution(rng.dirichlet([2, 2, 2]))
        mi = mutual_information(p, v)
        for _ in range(50):
            q = Distribution(rng.dirichlet([1.5, 1.5, 1.5]))
            assert mi <= divergence_to_output(v, q, p) + 1e-12

    def test_against_direct_minimization(self):
        from scipy.optimize import minimize

        rng = np.random.default_rng(5)
        v = Channel(rng.dirichlet([2, 2, 2], size=3))
        p = Distribution(rng.dirichlet([3, 3, 3]))

        def f(z):
            q = np.exp(z - z.max())
            q /= q.sum()
            return divergence_to_output(v, Distribution(q), p)

        best = min(
            minimize(f, rng.standard_normal(3), method="Nelder-Mead",
                     options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 5000}).fun
            for _ in range(3)
        )
        assert mutual_information(p, v) == pytest.approx(best, abs=1e-6)


class TestTiltedRow:
    def test_fixed_point(self):
        q = Distribution([0.2, 0.8])
        out = tilted_channel_row(q, q, 0.37)
        assert np.abs(out.probs - q.probs).max() < 1e-14

    def test_bsc_row_hand_value(self):
        out = tilted_channel_row(Distribution([0.25, 0.75]), Distribution([0.5, 0.5]), 0.5)
        # proportional to (sqrt(.25), sqrt(.75)): 1/(1+sqrt 3), sqrt3/(1+sqrt3)
        assert out.probs[0] == pytest.approx(1 / (1 + np.sqrt(3)), abs=1e-12)
        assert out.probs[1] == pytest.approx(np.sqrt(3) / (1 + np.sqrt(3)), abs=1e-12)

    def test_lambda_zero_rejected(self):
        with pytest.raises(DomainError):
            tilted_channel_row(Distribution([0.25, 0.75]), Distribution([0.5, 0.5]), 0.0)

    def test_small_lambda_limit_is_restricted_row(self):
        w = Distribution([0.25, 0.7, 0.05])
        q = Distribution([0.5, 0.5, 0.0])
        out = tilted_channel_row(w, q, 1e-12)
        expect = np.array([0.25, 0.7, 0.0]) / 0.95
        assert np.abs(out.probs - expect).max() < 1e-9

    def test_disjoint_supports(self):
        with pytest.raises(DomainError):
            tilted_channel_row(Distribution([1, 0]), Distribution([0, 1]), 0.5)

    @given(st.floats(0.05, 0.95), st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_rescaling_invariance(self, lam, scale):
        rng = np.random.default_rng(17)
        w = rng.dirichlet([2, 2, 2])
        q = rng.dirichlet([2, 2, 2])
        on = (w > 0) & (q > 0)
        a = tilt(*log_path(w, q, on), lam)
        b = tilt(*log_path(w, q * scale, on), lam)
        assert np.abs(a.law - b.law).max() < 1e-12
        assert b.log_norm[0] - a.log_norm[0] == pytest.approx(lam * np.log(scale), abs=1e-12)


class TestCapacity:
    def test_bsc_closed_form(self):
        c, p = capacity(bsc(0.1))
        h = -0.1 * np.log(0.1) - 0.9 * np.log(0.9)
        assert c == pytest.approx(np.log(2) - h, abs=1e-9)
        assert np.abs(p.probs - 0.5).max() < 1e-6

    def test_ten_random_crossovers(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            eps = float(rng.uniform(0.02, 0.45))
            c, _ = capacity(bsc(eps))
            h = -eps * np.log(eps) - (1 - eps) * np.log1p(-eps)
            assert c == pytest.approx(np.log(2) - h, abs=1e-9)

    def test_identity_channel(self):
        c, _ = capacity(Channel(np.eye(3)))
        assert c == pytest.approx(np.log(3), abs=1e-9)

    def test_identical_rows(self):
        c, _ = capacity(Channel([[0.3, 0.7], [0.3, 0.7]]))
        assert c == pytest.approx(0.0, abs=1e-12)

    def test_duality_gap_certificate(self):
        rng = np.random.default_rng(31)
        w = random_channel(rng, 3, 4)
        c, p = capacity(w)
        q = w.output_marginal(p)
        upper = max(kl_divergence(w.row(x), q) for x in range(w.nx))
        assert upper - c <= 1e-9


class TestCapacityAgainstBlahutArimoto:
    """The KKT Newton solver against the Blahut-Arimoto loop it replaced.

    Every returned P must certify a 1e-10 gap from the definition, and C must
    lie in the oracle's bracket I(P_BA;W) <= C <= max_x D(W(.|x)||P_BA W).
    Where the oracle certifies a 1e-9 gap, as the library loop required,
    that is agreement within 1e-9; where it stalls short of that (one of the
    100 Dirichlet draws, at a gap of 4.8e-7), the bracket is what it proves.
    On near-useless, near-duplicate and zero-mass channels Blahut-Arimoto
    converges sublinearly and often not within 100,000 sweeps (several
    seconds per channel), so those families get a 2,000-sweep bracket.
    """

    @pytest.mark.parametrize(
        "family, count, sweeps",
        [
            ("sparse", 100, 100_000),
            ("dirichlet", 100, 100_000),
            ("wide", 80, 100_000),
            ("near-useless", 40, 2_000),
            ("near-duplicate", 40, 2_000),
            ("zero-mass", 40, 2_000),
        ],
    )
    def test_family(self, family, count, sweeps):
        rng = np.random.default_rng(sum(map(ord, family)))
        for _ in range(count):
            w = Channel(_oracle_draw(family, rng))
            c, p = capacity(w)
            assert capacity_gap(w, p) <= 1e-10
            lo, hi, _ = blahut_arimoto(w, sweeps)
            assert lo - 1e-10 <= c <= hi + 1e-13

    def test_input_with_zero_optimal_mass(self):
        w = Channel(CHANNEL_ZERO_MASS_INPUT)
        c, p = capacity(w)
        assert capacity_gap(w, p) <= 1e-10
        lo, hi, p_ba = blahut_arimoto(w)
        assert hi - lo <= 1e-9 and abs(c - lo) <= 1e-9
        assert p.probs[0] < 1e-9 and p_ba.probs[0] < 1e-6

    def test_step_cap_raises_with_the_gap(self, monkeypatch):
        monkeypatch.setattr(probability, "CAPACITY_MAX_STEPS", 3)
        with pytest.raises(ConvergenceError) as info:
            capacity(Channel([[0.61, 0.39, 0.0], [0.05, 0.5, 0.45], [0.3, 0.3, 0.4]]))
        assert info.value.residual > 1e-10


def e0_gap(w: Channel, rho: float, p: Distribution) -> tuple[float, float]:
    """(-log G(P), Frank-Wolfe gap) from the definitions, G(P) = sum_y a_y^(1+rho),
    a = P W^(1/(1+rho)), in plain numpy."""
    wb = w.rows ** (1.0 / (1.0 + rho))
    a = p.probs @ wb
    g = float((a ** (1.0 + rho)).sum())
    c = wb @ a**rho / g
    return -float(np.log(g)), -float(np.log1p(-(1.0 + rho) * (1.0 - c.min())))


class TestGallagerE0:
    def test_bsc_closed_form_and_envelope_slope(self):
        # at the uniform law, E_0(rho) = rho log 2 - (1+rho) log(p^b + (1-p)^b), b = 1/(1+rho)
        def closed(rho: float) -> float:
            b = 1.0 / (1.0 + rho)
            return rho * np.log(2.0) - (1.0 + rho) * np.log(0.1**b + 0.9**b)

        for rho in (0.05, 1.0, 7.5):
            e0, p, slope = gallager_e0(bsc(0.1), rho)
            assert e0 == pytest.approx(closed(rho), abs=1e-13)
            assert np.abs(p.probs - 0.5).max() < 1e-9
            h = 1e-5
            assert slope == pytest.approx((closed(rho + h) - closed(rho - h)) / (2 * h), abs=1e-8)

    def test_certified_gap_from_the_definition(self):
        rng = np.random.default_rng(19)
        for k in range(6):
            w = random_channel(rng, 2 + k % 3, 3 + k % 2, sparse=k % 2 == 1)
            for rho in (0.01, 0.7, 30.0):
                e0, p, _ = gallager_e0(w, rho)
                value, gap = e0_gap(w, rho, p)
                assert value == pytest.approx(e0, abs=1e-14)
                assert gap <= 1e-12

    def test_rho_to_zero_is_capacity(self):
        w = Channel(CHANNEL_ZERO_MASS_INPUT)
        c, _ = capacity(w)
        _, _, slope = gallager_e0(w, 1e-7)
        assert slope == pytest.approx(c, abs=1e-6)

    def test_step_cap_raises_with_the_gap(self, monkeypatch):
        monkeypatch.setattr(probability, "CAPACITY_MAX_STEPS", 3)
        with pytest.raises(ConvergenceError, match="E_0") as info:
            gallager_e0(Channel([[0.61, 0.39, 0.0], [0.05, 0.5, 0.45], [0.3, 0.3, 0.4]]), 2.0)
        assert info.value.residual > 1e-12


class TestProbabilityProperties:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(2, 5), st.floats(0.0, 0.8), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_capacity_and_rinf_certified_or_typed_error(self, seed, nx, ny, zero_frac, repeat_row):
        rng = np.random.default_rng(seed)
        rows = rng.dirichlet(np.ones(ny) * 0.7, size=nx)
        mask = rng.random((nx, ny)) < zero_frac
        mask[np.arange(nx), rows.argmax(axis=1)] = False
        rows = np.where(mask, 0.0, rows)
        if repeat_row:
            rows[-1] = rows[0]
        w = Channel(rows / rows.sum(axis=1, keepdims=True))
        try:
            c, p = capacity(w)
            rinf = r_infinity(w)
        except SpherepackError:
            return
        assert np.isfinite(c) and np.isfinite(rinf)
        assert 0.0 <= rinf <= c + 1e-9
        assert capacity_gap(w, p) <= 1e-10
        p_other = Distribution(rng.dirichlet(np.ones(nx)))
        assert mutual_information(p_other, w) <= c + 1e-10

    def test_sparse_channel_no_runtime_warning(self):
        # the grid search that r_infinity replaced warned "invalid value
        # encountered in scalar subtract" here
        w = Channel([[0.014, 0.986, 0.0], [0.0, 0.867, 0.133], [1.0, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert r_infinity(w) == pytest.approx(np.log(2.0), abs=1e-15)
            c, _ = capacity(w)
        assert r_infinity(w) < c


class TestRInfinity:
    def test_strictly_positive_channel(self):
        rng = np.random.default_rng(41)
        assert r_infinity(Channel(rng.dirichlet([3, 3, 3], size=2))) == 0.0

    def test_identity_channel(self):
        assert r_infinity(Channel(np.eye(2))) == pytest.approx(np.log(2), abs=1e-6)
        assert r_infinity(Channel(np.eye(3))) == pytest.approx(np.log(3), abs=1e-6)

    def test_z_channel(self):
        for q in (0.2, 0.5, 0.8):
            assert r_infinity(Channel([[1, 0], [q, 1 - q]])) == 0.0

    def test_partial_overlap_brute_force(self):
        # rows share only output 1: identical dominated rows exist -> 0
        w = Channel([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
        assert r_infinity(w) == pytest.approx(0.0, abs=1e-9)

    def test_disjoint_rows(self):
        # disjoint supports force V = W-supported rows; grid search oracle
        w = Channel([[0.7, 0.3, 0.0, 0.0], [0.0, 0.0, 0.4, 0.6]])
        # any dominated V has disjoint rows: I(P;V) = H(P), max = log 2
        assert r_infinity(w) == pytest.approx(np.log(2), abs=1e-6)

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 0, 0], [0, 1, 0], [0, 0.5, 0.5]],
            [[0.529, 0.471], [0, 1], [1, 0]],
            # the support pattern of saddle-corpus draw 21
            [[0.56, 0.44, 0], [0, 0.429, 0.571], [0, 0, 1], [0.934, 0.066, 0]],
        ],
    )
    def test_value_log2_patterns(self, rows):
        w = Channel(np.asarray(rows, dtype=float))
        assert r_infinity(w) == pytest.approx(np.log(2.0), abs=1e-15)
        assert r_infinity_lp(w) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_matches_lp_oracle_on_random_sparse_channels(self):
        rng = np.random.default_rng(43)
        for _ in range(250):
            nx, ny = (int(k) for k in rng.integers(2, 8, size=2))
            mask = rng.random((nx, ny)) < rng.uniform(0.2, 0.8)
            mask[np.arange(nx), rng.integers(0, ny, nx)] = True
            rows = np.where(mask, rng.random((nx, ny)) + 0.01, 0.0)
            w = Channel(rows / rows.sum(axis=1, keepdims=True))
            assert abs(r_infinity(w) - r_infinity_lp(w)) <= 1e-12

    def test_primal_dual_disagreement_raises(self, monkeypatch):
        # strategies that are not optimal: the bounds log 1.5 and log 2 disagree
        monkeypatch.setattr(
            probability, "matrix_game", lambda a: (0.5, np.full(3, 1 / 3), np.array([0.5, 0.5, 0.0]))
        )
        with pytest.raises(ConvergenceError, match="disagree"):
            r_infinity(Channel([[0.7, 0.3, 0.0], [0.0, 0.6, 0.4], [0.2, 0.0, 0.8]]))

    def test_resolution_parameter_removed(self):
        with pytest.raises(TypeError):
            r_infinity(Channel(np.eye(2)), resolution=16)


class TestDomination:
    def test_dominated_flag(self):
        w = Channel([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
        v_ok = Channel([[0.9, 0.1, 0.0], [0.1, 0.1, 0.8]])
        v_bad = Channel([[0.4, 0.3, 0.3], [0.1, 0.1, 0.8]])
        assert v_ok.is_dominated_by(w)
        assert not v_bad.is_dominated_by(w)
        # restricting to a support set that skips the offending row
        assert v_bad.is_dominated_by(w, p_support=np.array([False, True]))


class TestChannelJson:
    def test_round_trip(self):
        doc = {
            "input_alphabet": ["a", "b"],
            "output_alphabet": [0, 1, 2],
            "rows": [[0.2, 0.3, 0.5], [0.6, 0.2, 0.2]],
        }
        w = channel_from_json(json.dumps(doc))
        assert w.nx == 2 and w.ny == 3
        assert w.input_alphabet == ("a", "b")

    def test_normalizes_small_row_error(self):
        doc = {
            "input_alphabet": [0, 1],
            "output_alphabet": [0, 1],
            "rows": [[0.9 + 2e-7, 0.1], [0.1, 0.9]],
        }
        w = channel_from_json(json.dumps(doc))
        assert abs(w.rows[0].sum() - 1.0) < 1e-12

    def test_rejects_large_row_error(self):
        doc = {
            "input_alphabet": [0, 1],
            "output_alphabet": [0, 1],
            "rows": [[0.9 + 2e-5, 0.1], [0.1, 0.9]],
        }
        with pytest.raises(ConfigError):
            channel_from_json(json.dumps(doc))

    def test_rejects_malformed(self):
        with pytest.raises(ConfigError):
            channel_from_json("{not json")
        with pytest.raises(ConfigError):
            channel_from_json(json.dumps({"rows": [[1.0]]}))
