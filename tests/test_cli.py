import json
import os

import numpy as np
import pytest

from spherepack.cli import bsc_study_rows, gap_study_row, main
from spherepack.numerics import simplex_grid
from spherepack.probability import Channel, Distribution
from spherepack.saddle import saddle_point
from spherepack.shifted import esp_q_dual

from .conftest import bsc_esp_closed_form, interior_rate, random_channel


@pytest.fixture()
def bsc_file(tmp_path):
    doc = {
        "input_alphabet": [0, 1],
        "output_alphabet": [0, 1],
        "rows": [[0.9, 0.1], [0.1, 0.9]],
    }
    path = tmp_path / "bsc.json"
    path.write_text(json.dumps(doc))
    return str(path)


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "# spherepack-csv v1"
    body = [ln for ln in lines if not ln.startswith("#")]
    header = body[0].split(",")
    rows = [ln.split(",") for ln in body[1:]]
    return header, rows


class TestExponentCommand:
    def test_bsc_grid_convex_decreasing(self, bsc_file, tmp_path):
        out = tmp_path / "run"
        rc = main(
            ["exponent", "--channel", bsc_file, "--R", "0.12:0.3:7",
             "--resolution", "32", "--out", str(out)]
        )
        assert rc == 0
        header, rows = read_rows(out / "exponent.csv")
        esp = [float(r[header.index("esp")]) for r in rows]
        assert all(b < a for a, b in zip(esp, esp[1:]))
        diffs = np.diff(esp)
        assert all(d2 > d1 - 1e-9 for d1, d2 in zip(diffs, diffs[1:]))  # convex
        rho = [float(r[header.index("rho_star")]) for r in rows]
        assert all(v > 0 for v in rho)
        for r, e in zip(rows, esp):
            assert e == pytest.approx(
                bsc_esp_closed_form(0.1, float(r[header.index("R")])), abs=1e-6
            )

    def test_out_of_domain_rows_flagged(self, bsc_file, tmp_path):
        out = tmp_path / "run"
        rc = main(
            ["exponent", "--channel", bsc_file, "--R", "0.2,0.5",
             "--resolution", "32", "--out", str(out)]
        )
        assert rc == 0
        header, rows = read_rows(out / "exponent.csv")
        assert rows[0][header.index("status")] == "ok"
        assert rows[1][header.index("status")] == "out-of-domain"

    def test_vanishing_exponent_row_flagged_degenerate(self, bsc_file, tmp_path):
        # C(BSC(0.1)) = 0.368064207 nats: 0.36806 is inside (R_inf, C), but
        # E_SP(R) ~ 2e-11 there, below the 1e-10 zero tolerance, so rho*_R is undefined
        rc = main(
            ["exponent", "--channel", bsc_file, "--R", "0.2,0.36806",
             "--resolution", "16", "--out", str(tmp_path / "mixed")]
        )
        assert rc == 0
        header, rows = read_rows(tmp_path / "mixed" / "exponent.csv")
        assert rows[0][header.index("status")] == "ok"
        degenerate = dict(zip(header, rows[1]))
        assert degenerate["status"] == "degenerate"
        assert float(degenerate["esp"]) <= 1e-10
        assert degenerate["rho_star"] == degenerate["argmax_P"] == ""
        # the ok row is byte-identical to a run of that rate alone
        rc = main(
            ["exponent", "--channel", bsc_file, "--R", "0.2",
             "--resolution", "16", "--out", str(tmp_path / "alone")]
        )
        assert rc == 0
        alone = (tmp_path / "alone" / "exponent.csv").read_text().splitlines()
        mixed = (tmp_path / "mixed" / "exponent.csv").read_text().splitlines()
        assert mixed[:-1] == alone

    def test_byte_identical_reruns(self, bsc_file, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(
                ["exponent", "--channel", bsc_file, "--R", "0.18,0.22",
                 "--resolution", "32", "--out", str(out)]
            )
            assert rc == 0
            outs.append((out / "exponent.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_empty_grid_is_config_error(self, bsc_file):
        assert main(["exponent", "--channel", bsc_file, "--R", "", "--out", "/tmp/x"]) == 3

    def test_missing_channel_is_config_error(self, tmp_path):
        assert main(["exponent", "--channel", str(tmp_path / "nope.json"), "--R", "0.2"]) == 3


class TestBoundCommand:
    def test_ratio_at_least_one_where_defined(self, bsc_file, tmp_path):
        out = tmp_path / "run"
        rc = main(
            ["bound", "--channel", bsc_file, "--R", "0.2", "--N", "16,32,64,128",
             "--zeta", "0.1", "--P", "0.5,0.5", "--np-cap", "128", "--out", str(out)]
        )
        assert rc == 0
        header, rows = read_rows(out / "bound.csv")
        for row in rows:
            ratio = row[header.index("ratio")]
            if ratio:
                assert float(ratio) >= 1.0
            bound = float(row[header.index("bound")])
            alpha = row[header.index("alpha_exact")]
            assert 0.0 <= bound <= 1.0
            if alpha:
                assert 0.0 <= float(alpha) <= 1.0

    def test_small_n_flagged_invalid(self, bsc_file, tmp_path):
        out = tmp_path / "run"
        rc = main(
            ["bound", "--channel", bsc_file, "--R", "0.2", "--N", "4,8",
             "--zeta", "0.1", "--P", "0.5,0.5", "--out", str(out)]
        )
        assert rc == 0
        header, rows = read_rows(out / "bound.csv")
        for row in rows:
            assert row[header.index("branch")] == "invalid-N"
            assert row[header.index("conditions_ok")] == "False"

    def test_bad_zeta_is_config_error(self, bsc_file):
        rc = main(
            ["bound", "--channel", bsc_file, "--R", "0.2", "--N", "64",
             "--zeta", "-1", "--P", "0.5,0.5"]
        )
        assert rc == 3


class TestBscStudyCommand:
    def test_half_crossover_rejected(self):
        assert main(["bsc-study", "--p", "0.5", "--R", "0.2", "--N", "64"]) == 2

    def test_columns_and_sandwich(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["bsc-study", "--p", "0.1", "--R", "0.2",
                   "--N", "128,256,512,1024,2048,4096", "--out", str(out)])
        assert rc == 0
        header, rows = read_rows(out / "bsc_study.csv")
        i_alpha = header.index("alpha_exact")
        i_single = header.index("single_term_lower_bound")
        for row in rows:
            assert float(row[i_alpha]) >= float(row[i_single]) > 0.0
            assert row[header.index("sandwich_ok")] == "True"
        esp = float(rows[0][header.index("esp_closed_form")])
        assert esp == pytest.approx(bsc_esp_closed_form(0.1, 0.2), abs=1e-10)

    def test_threshold_fraction_converges_at_log_n_over_n_rate(self, tmp_path):
        # the packing-radius fraction sits above its limit and the scaled
        # gap (n*/N - delta_R) * N / log N stays bounded (frozen behavior:
        # the deviation term of the threshold is Theta(log N / N))
        rows = bsc_study_rows(0.1, 0.2, [128, 256, 512, 1024, 2048, 4096])
        lo, hi = 1e-12, 0.5
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            h = -mid * np.log(mid) - (1 - mid) * np.log1p(-mid)
            if h < np.log(2) - 0.2:
                lo = mid
            else:
                hi = mid
        delta_r = 0.5 * (lo + hi)
        gaps = []
        for row in rows:
            n, frac = row[0], row[2]
            gap = frac - delta_r
            assert gap > 0
            gaps.append(gap * n / np.log(n))
        assert all(0.05 < g < 2.0 for g in gaps)
        assert gaps[-1] < gaps[0] + 0.5  # shrinking deviation, not growing

    def test_rate_rows_deterministic(self, tmp_path):
        a = bsc_study_rows(0.1, 0.2, [100, 200])
        b = bsc_study_rows(0.1, 0.2, [100, 200])
        assert a == b


class TestZChannelStudyCommand:
    def test_gap_positive_for_z_and_zero_for_bsc(self):
        # esp_of_r takes P*_R from Gallager's E_0 and ignores the resolution
        z = Channel([[1.0, 0.0], [0.3, 0.7]])
        esp_r, best, _ = gap_study_row(z, 0.2, resolution=24)
        assert best - esp_r > 1e-3
        b = Channel([[0.9, 0.1], [0.1, 0.9]])
        esp_b, best_b, _ = gap_study_row(b, 0.2, resolution=24)
        assert abs(best_b - esp_b) <= 1e-6

    def test_exact_gap_where_the_grid_fell_short(self):
        # a simplex grid with coordinate ascent reported 0.04918 here; the
        # maximum over P is 0.056897
        z = Channel([[1.0, 0.0], [0.3, 0.7]])
        esp_r, best, _ = gap_study_row(z, 0.08, resolution=24)
        assert best - esp_r >= 0.0568

    def test_vertex_maximum_dominates_the_simplex_grid(self):
        rng = np.random.default_rng(2718)
        for k in range(4):
            nx = 2 + k % 2
            w = random_channel(rng, nx, 2 + k // 2, sparse=True)
            rate = interior_rate(w, 0.4)
            _, best, p_star = gap_study_row(w, rate, resolution=16)
            q = saddle_point(w, rate, p_star).q_star
            vals = [esp_q_dual(w, q, Distribution(g), rate) for g in simplex_grid(nx, 32)]
            assert best >= max(v for v in vals if np.isfinite(v)) - 1e-12

    def test_command_output(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["zchannel-study", "--q", "0.3", "--R", "0.15,0.45",
                   "--resolution", "16", "--out", str(out)])
        assert rc == 0
        header, rows = read_rows(out / "zchannel_study.csv")
        assert rows[0][header.index("status")] == "ok"
        assert float(rows[0][header.index("gap")]) > 0
        assert rows[1][header.index("status")] == "out-of-domain"

    def test_bad_q_rejected(self):
        assert main(["zchannel-study", "--q", "1.5", "--R", "0.2"]) == 2


class TestThreadsEnv:
    def test_thread_cap_respected_and_output_stable(self, bsc_file, tmp_path):
        old = os.environ.get("SPHEREPACK_THREADS")
        try:
            os.environ["SPHEREPACK_THREADS"] = "2"
            out1 = tmp_path / "t2"
            assert main(["exponent", "--channel", bsc_file, "--R", "0.18,0.22",
                         "--resolution", "32", "--out", str(out1)]) == 0
            os.environ["SPHEREPACK_THREADS"] = "1"
            out2 = tmp_path / "t1"
            assert main(["exponent", "--channel", bsc_file, "--R", "0.18,0.22",
                         "--resolution", "32", "--out", str(out2)]) == 0
            assert (out1 / "exponent.csv").read_bytes() == (out2 / "exponent.csv").read_bytes()
        finally:
            if old is None:
                os.environ.pop("SPHEREPACK_THREADS", None)
            else:
                os.environ["SPHEREPACK_THREADS"] = old
