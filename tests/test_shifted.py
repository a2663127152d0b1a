import numpy as np
import pytest

from spherepack.errors import DomainError, InvariantViolationError
from spherepack.numerics import golden_max, simplex_grid
from spherepack.probability import (
    ZERO_TOL,
    Channel,
    Distribution,
    capacity,
    conditional_kl,
    divergence_to_output,
    mutual_information,
    r_infinity,
)
from spherepack.saddle import k_rp, saddle_point
from spherepack.shifted import (
    ShiftedContext,
    cumulants,
    e0,
    esp_q_dual,
    esp_q_primal,
    fenchel0,
    fenchel1,
    lambda0,
    lambda1,
    m13,
    r_of,
    shifted_context,
    tilde_esp,
    w_minus,
)

from .conftest import nondegenerate_instance, random_dominated_channel


class TestWMinus:
    def test_positive_channel_rows_equal_qstar(self, bsc01, uniform2):
        wm = w_minus(bsc01, 0.2, uniform2)
        q = saddle_point(bsc01, 0.2, uniform2).q_star
        for x in range(2):
            assert np.abs(wm.rows[x] - q.probs).max() < 1e-12

    def test_z_channel_degenerate_row(self, zchannel03):
        p = Distribution([0.4, 0.6])
        wm = w_minus(zchannel03, 0.15, p)
        assert wm.rows[0].tolist() == [1.0, 0.0]

    def test_rows_sum_to_one_and_respect_supports(self):
        rng = np.random.default_rng(5)
        w, rate, p = nondegenerate_instance(rng, 3, 4, sparse=True)
        wm = w_minus(w, rate, p)
        assert np.abs(wm.rows.sum(axis=1) - 1.0).max() < 1e-12
        assert not ((wm.rows > 0) & ~w.supports).any()

    def test_degenerate_saddle_rejected(self, bsc01):
        p = Distribution([0.75, 0.25])
        rate = mutual_information(p, bsc01) + 0.0005
        with pytest.raises(DomainError):
            w_minus(bsc01, rate, p)

    def test_qstar_underflow_near_rinf_is_named(self):
        # Just above R_inf, rho* ~ 63 and Q*(y1) ~ 1.6e-18 falls under the
        # 1e-14 zero rule although W(y1|x0) > 0; W^- would take log 0 there.
        rows = np.array([[0.0, 0.848, 0.152], [0.612, 0.0, 0.388], [0.16, 0.831, 0.01]])
        w = Channel(rows / rows.sum(axis=1, keepdims=True))
        p = Distribution([0.2, 0.5, 0.3])
        c, _ = capacity(w)
        rinf = r_infinity(w)
        rate = rinf + 1e-6 * (c - rinf)
        sp = saddle_point(w, rate, p)
        assert sp.q_star.probs[1] == 0.0 and sp.rho_star > 50
        with pytest.raises(InvariantViolationError, match=r"Q\* underflows to 0 .*rho\* = 6\d\.\d+"):
            shifted_context(w, rate, p)
        with pytest.raises(InvariantViolationError, match="underflows"):
            w_minus(w, rate, p)


class TestROf:
    def test_strictly_positive_channel_gives_r_equal_rate(self, bsc01, uniform2):
        assert r_of(bsc01, 0.2, uniform2) == pytest.approx(0.2, abs=1e-12)

    def test_z_channel_hand_sum(self, zchannel03):
        p = Distribution([0.4, 0.6])
        ctx = shifted_context(zchannel03, 0.15, p)
        q = ctx.saddle.q_star.probs
        # only row 0 has a strict support: D = -P(0) log Q*{y0}
        hand = -0.4 * np.log(q[0])
        assert ctx.d_wm_qstar == pytest.approx(hand, abs=1e-12)
        assert ctx.r == pytest.approx(0.15 - hand, abs=1e-12)
        assert 0.0 < ctx.r < 0.15

    def test_r_below_shifted_mutual_information(self):
        rng = np.random.default_rng(11)
        for k in range(5):
            w, rate, p = nondegenerate_instance(rng, 2, 3, sparse=(k % 2 == 0))
            ctx = shifted_context(w, rate, p)
            assert ctx.r < mutual_information(p, w) - ctx.d_wm_qstar + 1e-9


class TestChainRule:
    def test_divergence_decomposition_for_dominated_channels(self):
        rng = np.random.default_rng(23)
        w, rate, p = nondegenerate_instance(rng, 3, 3, sparse=True)
        ctx = shifted_context(w, rate, p)
        q = ctx.saddle.q_star
        for _ in range(20):
            v = random_dominated_channel(rng, w, p.support)
            lhs = divergence_to_output(v, q, p)
            rhs = conditional_kl(v, ctx.w_minus, p) + ctx.d_wm_qstar
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestCumulants:
    def test_endpoints(self, bsc01, uniform2):
        ctx = shifted_context(bsc01, 0.2, uniform2)
        c0 = cumulants(ctx, 0.0)
        assert c0.lambda0 == pytest.approx(0.0, abs=1e-14)
        assert c0.d1 == pytest.approx(-ctx.d_w_wminus, abs=1e-12)
        c1 = cumulants(ctx, 1.0)
        assert c1.d1 == pytest.approx(ctx.d_wminus_w, abs=1e-12)

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(31)
        w, rate, p = nondegenerate_instance(rng, 2, 4)
        ctx = shifted_context(w, rate, p)
        h = 1e-5
        for lam in (0.3, 0.7):
            c = cumulants(ctx, lam)
            up, dn = lambda0(ctx, lam + h), lambda0(ctx, lam - h)
            assert c.d1 == pytest.approx((up - dn) / (2 * h), abs=1e-6)
            assert c.d2 == pytest.approx((up - 2 * c.lambda0 + dn) / h**2, abs=1e-4)

    def test_lambda1_reflections(self):
        rng = np.random.default_rng(37)
        w, rate, p = nondegenerate_instance(rng, 3, 3)
        ctx = shifted_context(w, rate, p)
        for lam in (0.1, 0.5, 0.9):
            assert lambda1(ctx, lam) == pytest.approx(lambda0(ctx, 1 - lam), abs=1e-14)
            assert m13(ctx, lam) == pytest.approx(cumulants(ctx, 1 - lam).m03, abs=1e-14)
            # derivative reflection via finite differences of lambda1
            h = 1e-6
            d1_l1 = (lambda1(ctx, lam + h) - lambda1(ctx, lam - h)) / (2 * h)
            assert d1_l1 == pytest.approx(-cumulants(ctx, 1 - lam).d1, abs=1e-6)

    def test_positive_variance_on_grid(self):
        rng = np.random.default_rng(41)
        for k in range(3):
            w, rate, p = nondegenerate_instance(rng, 2, 3, sparse=(k == 1))
            ctx = shifted_context(w, rate, p)
            for lam in np.linspace(0.0, 1.0, 101):
                assert cumulants(ctx, float(lam)).d2 > 1e-12


class TestE0:
    def test_zero_at_zero(self, bsc01, uniform2):
        ctx = shifted_context(bsc01, 0.2, uniform2)
        assert e0(ctx, 0.0) == 0.0

    def test_identity_with_lambda0(self):
        rng = np.random.default_rng(43)
        w, rate, p = nondegenerate_instance(rng, 3, 3, sparse=True)
        ctx = shifted_context(w, rate, p)
        for s in (0.2, 1.0, 7.5, 40.0):
            assert e0(ctx, s) == pytest.approx(
                -(1 + s) * lambda0(ctx, s / (1 + s)), abs=1e-12
            )

    def test_large_s_asymptote_is_lambda0_prime_one(self, bsc01, uniform2):
        # e0(s) increases toward the Lambda0'(1)-driven limit D(W-||W|P)
        ctx = shifted_context(bsc01, 0.2, uniform2)
        v1, v2 = e0(ctx, 1e3), e0(ctx, 1e4)
        assert v1 < v2 < ctx.d_wminus_w
        assert v2 == pytest.approx(ctx.d_wminus_w, abs=1e-3)


class TestTildeEsp:
    def test_zero_branch_at_full_budget(self, bsc01, uniform2):
        ctx = shifted_context(bsc01, 0.2, uniform2)
        sh = tilde_esp(ctx, ctx.d_w_wminus)
        assert sh.value == 0.0 and sh.s_star == 0.0

    def test_small_budget_tends_to_d_wminus_w(self, bsc01, uniform2):
        ctx = shifted_context(bsc01, 0.2, uniform2)
        val = tilde_esp(ctx, 1e-9).value
        assert val == pytest.approx(ctx.d_wminus_w, abs=1e-4)
        assert val < ctx.d_wminus_w

    def test_budget_must_be_positive(self, bsc01, uniform2):
        ctx = shifted_context(bsc01, 0.2, uniform2)
        with pytest.raises(DomainError):
            tilde_esp(ctx, 0.0)

    def test_shift_identity_against_primal_oracle(self):
        # etilde(R,P, r - D(W-||Q*|P)) == e_SP(Q*,P,r), primal oracle side
        rng = np.random.default_rng(47)
        for k in range(4):
            w, rate, p = nondegenerate_instance(rng, 2, 3, sparse=(k % 2 == 0))
            ctx = shifted_context(w, rate, p)
            r = ctx.d_wm_qstar + float(rng.uniform(0.3, 0.9)) * (rate - ctx.d_wm_qstar)
            lhs = tilde_esp(ctx, r - ctx.d_wm_qstar).value
            rhs = esp_q_primal(w, ctx.saddle.q_star, p, r)
            assert lhs == pytest.approx(rhs, abs=1e-6)
            assert esp_q_dual(w, ctx.saddle.q_star, p, r) == pytest.approx(lhs, abs=1e-12)

    def test_monotone_nonincreasing_in_budget(self, zchannel03):
        ctx = shifted_context(zchannel03, 0.15, Distribution([0.4, 0.6]))
        rs = np.linspace(1e-3, ctx.d_w_wminus, 12)
        vals = [tilde_esp(ctx, float(r)).value for r in rs]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


class TestFenchel:
    def test_boundary_slope_at_lambda_zero(self, bsc01, uniform2):
        ctx = shifted_context(bsc01, 0.2, uniform2)
        assert fenchel0(ctx, cumulants(ctx, 0.0).d1) == pytest.approx(0.0, abs=1e-10)

    def test_regularity_identities(self):
        # Lambda0*(etilde - r) = etilde and Lambda1*(r - etilde) = r
        rng = np.random.default_rng(53)
        for k in range(6):
            w, rate, p = nondegenerate_instance(rng, 2, 3, sparse=(k % 3 == 0))
            ctx = shifted_context(w, rate, p)
            r = float(rng.uniform(0.15, 0.85)) * ctx.d_w_wminus
            sh = tilde_esp(ctx, r)
            assert fenchel0(ctx, sh.value - r) == pytest.approx(sh.value, abs=1e-8)
            assert fenchel1(ctx, r - sh.value) == pytest.approx(r, abs=1e-8)
            assert 0.0 < sh.eta < 1.0
            assert cumulants(ctx, sh.eta).d1 == pytest.approx(sh.value - r, abs=1e-8)

    def test_fenchel_derivatives(self):
        # d/dz Lambda0*(z) = eta and d2/dz2 = 1/Lambda0''(eta) at z = etilde - r
        rng = np.random.default_rng(59)
        w, rate, p = nondegenerate_instance(rng, 2, 3)
        ctx = shifted_context(w, rate, p)
        r = 0.5 * ctx.d_w_wminus
        sh = tilde_esp(ctx, r)
        z = sh.value - r
        h = 1e-5
        d1 = (fenchel0(ctx, z + h) - fenchel0(ctx, z - h)) / (2 * h)
        d2 = (fenchel0(ctx, z + h) - 2 * fenchel0(ctx, z) + fenchel0(ctx, z - h)) / h**2
        assert d1 == pytest.approx(sh.eta, abs=1e-5)
        assert d2 == pytest.approx(1.0 / cumulants(ctx, sh.eta).d2, abs=1e-4)

    def test_shifted_slope_matches_s_star(self):
        # d etilde / dr = -s* by central differences
        rng = np.random.default_rng(61)
        w, rate, p = nondegenerate_instance(rng, 2, 3)
        ctx = shifted_context(w, rate, p)
        r = 0.6 * ctx.d_w_wminus
        sh = tilde_esp(ctx, r)
        h = 1e-6
        slope = (tilde_esp(ctx, r + h).value - tilde_esp(ctx, r - h).value) / (2 * h)
        assert slope == pytest.approx(-sh.s_star, abs=1e-4)

    def test_outside_gradient_range_is_infinite(self, bsc01, uniform2):
        ctx = shifted_context(bsc01, 0.2, uniform2)
        gmin, gmax = ctx.gradient_range()
        assert fenchel0(ctx, gmax + 0.1) == np.inf
        assert fenchel0(ctx, gmin - 0.1) == np.inf
        # boundary by continuity stays finite
        assert np.isfinite(fenchel0(ctx, gmax))


def _row_curve_grid(w_row: np.ndarray, q: np.ndarray, resolution: int) -> np.ndarray:
    """Simplex-grid samples of one row's (D(v||q), D(v||w)) trade-off,
    reduced to the Pareto staircase."""
    T = (w_row > ZERO_TOL) & (q > ZERO_TOL)
    pts = simplex_grid(int(T.sum()), resolution)
    pts = pts[np.all(pts > 0, axis=1)]  # interior points have finite divergences
    logs = np.log(pts)
    d_q = np.einsum("ij,ij->i", pts, logs - np.log(q[T])[None, :])
    d_w = np.einsum("ij,ij->i", pts, logs - np.log(w_row[T])[None, :])
    order = np.argsort(d_q)
    # value at budget t = min over all points with d_q <= t: prefix minimum
    return np.column_stack([d_q[order], np.minimum.accumulate(d_w[order])])


class TestEspQPrimalOracle:
    def test_row_solver_matches_row_grid(self):
        rng = np.random.default_rng(67)
        w_row = rng.dirichlet([2, 2, 2])
        q = rng.dirichlet([2, 2, 2])
        curve = _row_curve_grid(w_row, q, resolution=80)
        # one used row: the primal oracle is the row's exact solve
        w, q_law, p = Channel([w_row, w_row]), Distribution(q), Distribution([1.0, 0.0])
        for t, d in curve[:: len(curve) // 17]:
            exact = esp_q_primal(w, q_law, p, t + 1e-12)
            assert exact <= d + 1e-9  # the exact solver dominates every grid point

    def test_matches_joint_grid_brute_force(self):
        rng = np.random.default_rng(71)
        w = Channel(rng.dirichlet([2, 2], size=2))
        q = Distribution(rng.dirichlet([2, 2]))
        p = Distribution([0.5, 0.5])
        r = 0.05
        val = esp_q_primal(w, q, p, r)
        # brute force over the product of per-row 1-d grids
        grid = np.linspace(1e-6, 1 - 1e-6, 2001)
        best = np.inf
        d0 = lambda v, row: v * np.log(v / row[0]) + (1 - v) * np.log((1 - v) / row[1])
        dq = lambda v: v * np.log(v / q.probs[0]) + (1 - v) * np.log((1 - v) / q.probs[1])
        dq_all = dq(grid)
        d0_0 = d0(grid, w.rows[0])
        d0_1 = d0(grid, w.rows[1])
        for i, v0 in enumerate(grid[::20]):
            mask = 0.5 * dq_all[20 * i] + 0.5 * dq_all <= r
            if mask.any():
                best = min(best, 0.5 * d0_0[20 * i] + (0.5 * d0_1[mask]).min())
        assert val <= best + 1e-9
        assert val == pytest.approx(best, abs=2e-3)

    def test_agrees_with_dual_over_random_instances(self):
        # independent dual route: e_SP(Q,P,r) = max_rho K_{r,P}(rho, Q)
        rng = np.random.default_rng(73)
        for k in range(5):
            w, rate, p = nondegenerate_instance(rng, 2 + k % 2, 3, sparse=(k % 2 == 1))
            q = saddle_point(w, rate, p).q_star
            r = rate * float(rng.uniform(0.8, 1.2))

            def neg_k(rho):
                return k_rp(w, rho, q, r, p)

            _, dual, _ = golden_max(neg_k, 0.0, 64.0, width=1e-11)
            primal = esp_q_primal(w, q, p, r)
            assert primal == pytest.approx(dual, abs=1e-6)

    def test_infeasible_budget(self):
        w = Channel([[1.0, 0.0], [0.0, 1.0]])
        q = Distribution([0.5, 0.5])
        p = Distribution([0.5, 0.5])
        # q-mass of each row support is 1/2: minimum possible D(V||Q|P) is log 2
        for esp_q in (esp_q_primal, esp_q_dual):
            assert esp_q(w, q, p, 0.5 * np.log(2) - 0.05) == np.inf
            assert esp_q(w, q, p, np.log(2) + 0.05) == pytest.approx(0.0, abs=1e-12)
            # Q misses the whole support of a used row
            assert esp_q(w, Distribution([1.0, 0.0]), p, 5.0) == np.inf


class TestEspQDual:
    def test_matches_primal_oracle_on_random_instances(self):
        # sparse W, Q with zeros on used row supports, P on the budget
        # hyperplane sum_x P(x) t_x = r, and infeasible budgets
        rng = np.random.default_rng(2027)
        hit = {"q_zero_on_support": 0, "hyperplane": 0, "infeasible": 0, "interior": 0}
        for k in range(60):
            nx, ny = 2 + k % 3, int(rng.integers(2, 5))
            rows = rng.dirichlet(np.ones(ny) * 2.0, size=nx)
            mask = rng.random((nx, ny)) < 0.3
            mask[np.arange(nx), rows.argmax(axis=1)] = False
            rows = np.where(mask, 0.0, rows)
            w = Channel(rows / rows.sum(axis=1, keepdims=True))
            q = rng.dirichlet(np.ones(ny) * 2.0)
            if k % 3 == 0:
                q[rng.integers(ny)] = 0.0
            q = Distribution(q / q.sum())
            p = Distribution(rng.dirichlet(np.ones(nx) * 2.0))
            used = w.supports[p.support]
            hit["q_zero_on_support"] += bool((used & (q.probs == 0.0)).any())
            with np.errstate(divide="ignore"):
                floor = float(-(p.probs[p.support] @ np.log((used * q.probs).sum(axis=1))))
            case = k % 4
            if not np.isfinite(floor):
                r = float(rng.uniform(0.0, 1.0))
            elif case == 0:
                r, hit["hyperplane"] = floor, hit["hyperplane"] + 1
            elif case == 1 and floor > 0.0:
                r, hit["infeasible"] = 0.5 * floor, hit["infeasible"] + 1
            else:
                r, hit["interior"] = floor + float(rng.uniform(0.0, 0.5)), hit["interior"] + 1
            primal = esp_q_primal(w, q, p, r)
            dual = esp_q_dual(w, q, p, r)
            if np.isinf(primal):
                assert dual == np.inf
            else:
                assert abs(dual - primal) <= 1e-12, (k, dual, primal)
        assert min(hit.values()) >= 5, hit


class TestExponentEquality:
    def test_exponent_equality_small_instances(self):
        # e_SP(Q*,P,R) == E_SP(R,P) through the independent primal oracle
        rng = np.random.default_rng(79)
        for k in range(3):
            w, rate, p = nondegenerate_instance(rng, 2, 3, sparse=(k == 2))
            sp = saddle_point(w, rate, p)
            prim = esp_q_primal(w, sp.q_star, p, rate)
            assert prim == pytest.approx(sp.value, abs=1e-5)
