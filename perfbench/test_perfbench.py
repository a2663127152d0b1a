"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import spherepack as sp  # noqa: E402
from spans import NullTracer, Tracer, covered  # noqa: E402
from stats import harrell_davis, samples_beyond, spread  # noqa: E402


# -- percentiles and sample counts ------------------------------------------


def test_harrell_davis_weights_order_statistics_by_the_beta_law():
    rng = np.random.default_rng(0)
    xs = list(rng.random(37))
    n, p = len(xs), 0.95
    a, b = p * (n + 1), (1 - p) * (n + 1)
    # the Beta(a, b) mass of each ((i-1)/n, i/n], by the trapezoid rule
    grid = np.linspace(0.0, 1.0, 37 * 4000 + 1)[1:-1]
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid) - (gammaln(a) + gammaln(b) - gammaln(a + b))
    pdf = np.concatenate([[0.0], np.exp(log_pdf), [0.0]])
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2) / (37 * 4000)])
    weights = np.diff(cdf[:: 4000])
    assert harrell_davis(xs, p) == pytest.approx(float(weights @ np.sort(xs)), rel=1e-6)


def test_harrell_davis_edge_cases():
    assert harrell_davis([4.0], 0.95) == pytest.approx(4.0)
    assert harrell_davis([2.5] * 9, 0.3) == pytest.approx(2.5)
    assert harrell_davis([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == pytest.approx(3.0)
    # a large sample of a known law lands on its quantile
    xs = list(np.random.default_rng(1).exponential(size=4000))
    assert harrell_davis(xs, 0.95) == pytest.approx(np.log(20.0), rel=0.05)
    for bad in (0.0, 1.0):
        with pytest.raises(ValueError):
            harrell_davis(xs, bad)
    with pytest.raises(ValueError):
        harrell_davis([], 0.5)


def test_tail_sample_counts():
    assert samples_beyond(200, 0.95) == 10
    assert samples_beyond(100, 0.90) == 10
    assert samples_beyond(199, 0.95) == 9
    assert samples_beyond(5, 0.5) == 2


def test_spread_is_interquartile_over_median():
    vals = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, _, q3 = statistics.quantiles(vals, n=4)
    assert spread(vals) == pytest.approx((q3 - q1) / statistics.median(vals))


def test_end_to_end_counts_failed_items_and_samples():
    reps = [
        {"latencies": [0.001 * i for i in range(1, 101)], "failures": {"3": "x"}, "job_s": 2.0,
         "peak_rss_mb": 50.0},
        {"latencies": [0.001 * i for i in range(1, 101)], "failures": {}, "job_s": 4.0,
         "peak_rss_mb": 52.0},
    ]
    metrics, notes, attempted, failed = run.end_to_end(reps, [0.5, 0.3, 0.4])
    assert (attempted, failed) == (200, 1)
    assert metrics["pass_ratio"][0] == pytest.approx(199 / 200)
    assert metrics["job_s"][:3:2] == (3.0, 2)
    assert metrics["setup_s"][0] == 0.4
    assert set(metrics) == {"setup_s", "job_s", "peak_rss_mb", "pass_ratio"}
    assert notes[1].startswith("item_ms.p50 = ") and notes[1].endswith("ms (n=200)")
    assert notes[2].startswith("item_ms.p90 = ") and "(n=200, 20 beyond it)" in notes[2]


# -- spans -------------------------------------------------------------------


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_children():
    # job [0, 10] holds a [1, 4] and b [5, 6]; a holds c [2, 3]
    t = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    with t.span("job"):
        with t.span("a"):
            with t.span("c"):
                pass
        with t.span("b"):
            pass
    assert t.self_times() == {"job": 6, "a": 2, "c": 1, "b": 1}


def test_self_time_sums_repeated_names():
    t = Tracer(clock=FakeClock([0, 1, 2, 4]))
    assert t.call("x", lambda v: v + 1, 1) == 2
    t.call("x", lambda: None)
    assert t.self_times() == {"x": 3}


def test_covered_merges_overlaps_and_clips():
    assert covered(0, 10, [(1, 3), (2, 5), (8, 12), (-2, -1)]) == 6
    assert covered(0, 10, []) == 0


def test_null_tracer_calls_through():
    assert NullTracer().call("x", max, 2, 5) == 5


# -- inputs ------------------------------------------------------------------


def test_inputs_are_a_function_of_the_seed():
    for w in inputs.WORKLOADS:
        assert inputs.make_inputs(w, 3) == inputs.make_inputs(w, 3)
    a, b = inputs.corpus_items(1, n=12), inputs.corpus_items(2, n=12)
    assert [it["rows"] for it in a] == [it["rows"] for it in b]
    assert [it["p"] for it in a] != [it["p"] for it in b]


def test_corpus_keeps_every_draw():
    chans = inputs.corpus_channels()
    assert len(chans) == inputs.CORPUS_SIZE
    sparse = [rows for k, rows in enumerate(chans) if k % 3 == 0]
    assert any(0.0 in row for rows in sparse for row in rows)
    for rows in chans:
        assert all(abs(sum(r) - 1.0) < 1e-12 for r in rows)


# -- oracles on tiny configurations -----------------------------------------


BSC = [[0.9, 0.1], [0.1, 0.9]]


def tiny_exponent(tmp_path):
    (tmp_path / "channel.json").write_text(
        '{"input_alphabet": [0, 1], "output_alphabet": [0, 1], "rows": %s}' % BSC
    )
    raw = {"argv": ["exponent", "--R", "0.1,0.3", "--resolution", "4"]}
    return jobs.prepare("exponent-curve", raw, tmp_path)


def test_exponent_replay_matches_cli_and_passes_the_oracle(tmp_path):
    prepared = tiny_exponent(tmp_path)
    job_s, _, out = jobs.run("exponent-curve", prepared, Tracer(), traced=True)
    assert out.errors == [] and out.failures == {}
    rows = jobs.read_csv(prepared["csv"])
    assert len(rows) == 2
    bad = [list(r) for r in rows]
    bad[0][1] = repr(float(bad[0][1]) + 1e-4)
    assert any("primal oracle" in p for p in jobs.check_exponent(prepared, bad, jobs.Outcome()))
    swapped = [rows[1], rows[0]]
    assert any("decrease" in p for p in jobs.check_exponent(prepared, swapped, jobs.Outcome()))


def test_bound_check_flags_unsound_and_non_monotone_rows(tmp_path):
    prepared = {"argv": ["bound", "--R", "0.2", "--P", "0.5,0.5", "--N", "64,128"],
                "w": sp.Channel(BSC)}
    good = [["64", "", "", "-40", "", "", "", "-10", "", "", ""],
            ["128", "", "", "-50", "", "", "", "", "", "", ""]]
    assert jobs.check_bound(prepared, good, jobs.Outcome()) == []
    unsound = [list(good[0]), good[1]]
    unsound[0][7] = "-45"
    assert any("not below" in p for p in jobs.check_bound(prepared, unsound, jobs.Outcome()))
    assert any("decrease" in p for p in jobs.check_bound(prepared, good[::-1], jobs.Outcome()))


def test_np_checks_on_small_laws():
    raw = dict(inputs.np_laws(5))
    raw["laws"] = [dict(law, n=min(law["n"], 12)) for law in raw["laws"]]
    raw["threshold"] = {"n": 60, "zeta": 0.1}
    prepared = jobs.prepare("np-oracle", raw, Path("."))
    out = jobs.Outcome()
    results = jobs.np_job(prepared, NullTracer(), out)
    jobs.check_np(prepared, results, out)
    assert out.failures == {}
    assert len(out.latencies) == 5 and out.atoms > 0
    law, _ = results["bsc-binomial"]
    assert jobs.bsc_law_matches(law, 12, 0.1)
    assert not jobs.bsc_law_matches(law, 12, 0.11)

    # an item that raises counts as failed and the others still run
    prepared["threshold"] = {"n": 1, "zeta": 0.1}
    out = jobs.Outcome()
    results = jobs.np_job(prepared, NullTracer(), out)
    jobs.check_np(prepared, results, out)
    assert list(out.failures) == [4] and "DomainError" in out.failures[4]
    assert len(out.latencies) == 5


def test_corpus_checks_flag_the_rinf_defect_and_the_cpu_limit():
    items = [
        {"rows": [[0.9, 0.1], [0.2, 0.8]], "p": [0.5, 0.5], "frac": 0.5},
        # C = log 2, yet r_infinity returns +inf here (a known defect)
        {"rows": [[1.0, 0.0], [0.301, 0.699], [0.0, 1.0]], "p": [0.3, 0.3, 0.4], "frac": 0.5},
    ]
    prepared = jobs.prepare("saddle-corpus", {"items": items, "cpu_limit_s": 30.0, "oracle_every": 1},
                            Path("."))
    _, _, out = jobs.run("saddle-corpus", prepared, Tracer(), traced=True)
    assert 0 not in out.failures
    assert out.in_domain == 1 and out.residuals
    if 1 in out.failures:
        assert out.rinf_invariant_failures == 1
        assert "R_inf" in out.failures[1]

    # channels not seen yet in this process, so no cache answers in time
    fresh = [{"rows": [[0.7, 0.2, 0.1], [0.1, 0.6, 0.3]], "p": [0.5, 0.5], "frac": 0.5},
             {"rows": [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3]], "p": [0.5, 0.5], "frac": 0.5}]
    prepared = jobs.prepare("saddle-corpus", {"items": fresh, "cpu_limit_s": 1e-4, "oracle_every": 1},
                            Path("."))
    _, _, out = jobs.run("saddle-corpus", prepared, NullTracer(), traced=False)
    assert all("s CPU limit in " in out.failures[i] for i in (0, 1))
    assert out.over_cpu_limit == 2 and out.rinf_invariant_failures == 0
    assert len(out.latencies) == 2
