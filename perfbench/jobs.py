"""Workload jobs, their traced replays and the output oracles.

Imported only by worker processes: importing this module imports the
library, which is part of the measured set-up time. Every job takes a
tracer; the untraced path passes `NullTracer`, so both paths make the same
calls into the library. Output checks run after the timed region.
"""

from __future__ import annotations

import math
import os
import resource
import signal
import time
import warnings
from contextlib import nullcontext
from pathlib import Path

import numpy as np
from scipy.special import gammaln

import spherepack as sp
from spherepack import cli
from spherepack.nptest import round_to_type

from inputs import TERNARY

ESP_TOL = 1e-6
RESIDUAL_TOL = 1e-10
STATIONARITY_TOL = 1e-8
MASS_TOL = 1e-12
BINOMIAL_RTOL = 1e-10
EMPTY_DOMAIN_TOL = 1e-9

CLI_WORKLOADS = ("exponent-curve", "bound-table")
CSV_NAMES = {"exponent-curve": "exponent.csv", "bound-table": "bound.csv"}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def prepare(workload: str, inputs: dict, workdir: Path) -> dict:
    """Turn the JSON inputs into library objects (part of set-up)."""
    if workload in CLI_WORKLOADS:
        channel_path = str(workdir / "channel.json")
        out_dir = workdir / f"out-{os.getpid()}"
        argv = [inputs["argv"][0], "--channel", channel_path, *inputs["argv"][1:], "--out", str(out_dir)]
        return {
            "w": sp.load_channel(channel_path),
            "argv": argv,
            "csv": out_dir / CSV_NAMES[workload],
        }
    if workload == "np-oracle":
        return {
            "bac": sp.Channel(inputs["bac"]),
            "ternary": sp.Channel(inputs["ternary"]),
            "laws": inputs["laws"],
            "threshold": inputs["threshold"],
        }
    if workload == "saddle-corpus":
        return {
            "items": [
                (sp.Channel(it["rows"]), sp.Distribution(it["p"]), it["frac"]) for it in inputs["items"]
            ],
            "cpu_limit_s": inputs["cpu_limit_s"],
            "oracle_every": inputs["oracle_every"],
        }
    raise ValueError(f"unknown workload {workload!r}")


def row_pool_size(workload: str, prepared: dict) -> int:
    """Threads the CLI resolves for this workload's rows (1 without a pool)."""
    if workload not in CLI_WORKLOADS:
        return 1
    rows = cli._parse_grid(flag(prepared["argv"], "--R" if workload == "exponent-curve" else "--N"))
    return cli._threads(len(rows))


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


class Outcome:
    """What a job produced: item latencies, failures and certificates."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failures: dict[int, str] = {}
        self.errors: list[str] = []  # workload-level check failures
        self.residuals: list[float] = []
        self.gaps: list[float] = []
        self.atoms = 0
        self.in_domain = 0
        self.degenerate = 0
        self.rinf_invariant_failures = 0
        self.over_cpu_limit = 0
        self.runtime_warnings = 0

    def fail(self, item: int, reason: str) -> None:
        self.failures.setdefault(item, reason)

    def summary(self) -> dict:
        return {
            "latencies": self.latencies,
            "failures": {str(k): v for k, v in self.failures.items()},
            "errors": self.errors,
            "max_residual": max(self.residuals, default=0.0),
            "max_gap": max(self.gaps, default=0.0),
            "atoms": self.atoms,
            "degenerate_ratio": self.degenerate / self.in_domain if self.in_domain else 0.0,
            "rinf_invariant_failures": self.rinf_invariant_failures,
            "over_cpu_limit": self.over_cpu_limit,
            "runtime_warnings": self.runtime_warnings,
        }


def read_csv(path: Path) -> list[list[str]]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------


def run_cli(prepared: dict, tracer) -> int | str:
    """The command's exit code, or what it raised past its own handlers."""
    try:
        return tracer.call("cli.main", cli.main, prepared["argv"])
    except Exception as exc:  # the item counts as failed
        return f"raised {type(exc).__name__}: {exc}"


def replay_exponent(prepared: dict, tracer) -> list[list[str]]:
    """`spherepack exponent`'s pipeline through the public functions."""
    w, argv = prepared["w"], prepared["argv"]
    resolution = int(flag(argv, "--resolution"))
    c, _ = tracer.call("probability.capacity", sp.capacity, w)
    rinf = tracer.call("probability.r_infinity", sp.r_infinity, w)
    rows = []
    for r in cli._parse_grid(flag(argv, "--R")):
        if not (rinf < r < c):
            rows.append([r, "", "", "", "out-of-domain"])
            continue
        value, argmax = tracer.call("saddle.esp_of_r", sp.esp_of_r, w, r, resolution)
        rho = tracer.call("saddle.rho_star_r", sp.rho_star_r, w, r, resolution)
        pstr = ";".join("|".join(cli._fmt(float(v)) for v in p.probs) for p in argmax)
        rows.append([r, value, rho, pstr, "ok"])
    return [[cli._fmt(x) for x in row] for row in rows]


def replay_bound(prepared: dict, tracer) -> list[list[str]]:
    """`spherepack bound`'s pipeline through the public functions."""
    w, argv = prepared["w"], prepared["argv"]
    resolution = int(flag(argv, "--resolution"))
    rate = float(flag(argv, "--R"))
    zeta = float(flag(argv, "--zeta"))
    p = sp.Distribution([float(v) for v in flag(argv, "--P").split(",")])
    np_cap = int(flag(argv, "--np-cap")) if "--np-cap" in argv else 200
    tracer.call("bounds.select_nu", sp.select_nu, w, rate, resolution)
    ledger = tracer.call("bounds.constants_ledger", sp.constants_ledger, w, rate, resolution)
    q_star = tracer.call("saddle.saddle_point", sp.saddle_point, w, rate, p).q_star
    rows = []
    for n in (int(v) for v in cli._parse_grid(flag(argv, "--N"))):
        rep = tracer.call("bounds.refined_bound", sp.refined_bound, w, n, rate, zeta, p, ledger=ledger)
        if n <= np_cap:
            tp = tracer.call(
                "nptest.np_alpha_for_composition", sp.np_alpha_for_composition, w, q_star, p, n, rate
            )
            log_ratio = tp.log_alpha - rep.log_bound
            ratio = float(np.exp(log_ratio)) if np.isfinite(log_ratio) else float("inf")
            exact = [tp.alpha, tp.log_alpha, ratio, log_ratio]
        else:
            exact = ["", "", "", ""]
        rows.append(
            [n, rep.branch, rep.bound, rep.log_bound, rep.exponent, rep.prefactor, *exact,
             all(c.ok for c in rep.n_conditions)]
        )
    return [[cli._fmt(x) for x in row] for row in rows]


def check_exponent(prepared: dict, rows: list[list[str]], out: Outcome) -> list[str]:
    """E_SP(R,P*) matches the primal oracle at every maximizer; E_SP and
    rho* decrease in R."""
    w = prepared["w"]
    problems = []
    ok_rows = []
    for row in rows:
        if row[4] != "ok":
            problems.append(f"row R={row[0]} has status {row[4]}")
            continue
        r, esp, rho = float(row[0]), float(row[1]), float(row[2])
        if not (math.isfinite(esp) and math.isfinite(rho)):
            problems.append(f"non-finite row at R={row[0]}")
            continue
        for pstr in row[3].split(";"):
            p = sp.Distribution([float(v) for v in pstr.split("|")])
            oracle = sp.esp_primal_oracle(w, r, p)
            if abs(esp - oracle) > ESP_TOL:
                problems.append(f"E_SP({r}) = {esp} but the primal oracle gives {oracle}")
            out.residuals.append(sp.saddle_point(w, r, p).fixed_point_residual)
        ok_rows.append((esp, rho))
    if len(rows) != len(cli._parse_grid(flag(prepared["argv"], "--R"))):
        problems.append(f"{len(rows)} rows for the rate grid")
    for (e0, r0), (e1, r1) in zip(ok_rows, ok_rows[1:]):
        if not (e1 < e0 and r1 < r0):
            problems.append("E_SP or rho* does not decrease in R")
    return problems


def check_bound(prepared: dict, rows: list[list[str]], out: Outcome) -> list[str]:
    """log_bound lies below the exact NP value and decreases in N."""
    problems = []
    log_bounds = []
    for row in rows:
        log_bound = float(row[3])
        if not math.isfinite(log_bound):
            problems.append(f"non-finite log_bound at N={row[0]}")
        if row[7] != "" and not log_bound < float(row[7]):
            problems.append(f"log_bound {log_bound} not below log_alpha_exact {row[7]} at N={row[0]}")
        log_bounds.append(log_bound)
    argv = prepared["argv"]
    p = sp.Distribution([float(v) for v in flag(argv, "--P").split(",")])
    out.residuals.append(sp.saddle_point(prepared["w"], float(flag(argv, "--R")), p).fixed_point_residual)
    if len(rows) != len(cli._parse_grid(flag(argv, "--N"))):
        problems.append(f"{len(rows)} rows for the blocklength grid")
    if any(b >= a for a, b in zip(log_bounds, log_bounds[1:])):
        problems.append("log_bound does not decrease in N")
    return problems


# ---------------------------------------------------------------------------
# np-oracle
# ---------------------------------------------------------------------------


def np_job(prepared: dict, tracer, out: Outcome) -> dict:
    bac, tern = prepared["bac"], prepared["ternary"]
    half = sp.Distribution([0.5, 0.5])
    p_tern = sp.Distribution([0.5, 0.2, 0.3])
    saddle_bac = tracer.call("saddle.saddle_point", sp.saddle_point, bac, 0.15, half)
    saddle_tern = tracer.call("saddle.saddle_point", sp.saddle_point, tern, 0.2, p_tern)
    q_bac, q_tern = saddle_bac.q_star, saddle_tern.q_star
    out.residuals += [saddle_bac.fixed_point_residual, saddle_tern.fixed_point_residual]

    def composition(w, q, p, n):
        counts = round_to_type(p, n)
        return [(w.row(x), q, int(counts[x])) for x in range(w.nx) if counts[x] > 0]

    pairs_of = {
        "bac-composition": lambda n: composition(bac, q_bac, half, n),
        "ternary-row": lambda n: [(tern.row(0), q_tern, n)],
        "ternary-composition": lambda n: composition(tern, q_tern, p_tern, n),
        "bsc-binomial": lambda n: [(sp.Distribution([0.9, 0.1]), half, n)],
    }
    def law_item(spec):
        n = spec["n"]
        law = tracer.call("nptest.build_loglr_law", sp.build_loglr_law, pairs_of[spec["name"]](n))
        out.atoms += int(law.t.size)
        return law, [tracer.call("nptest.alpha_star", sp.alpha_star, law, n * r) for r in spec["rates"]]

    def threshold_item(thr):
        ctx = tracer.call("shifted.shifted_context", sp.shifted_context, bac, 0.15, half)
        return tracer.call(
            "nptest.threshold_test_alpha_beta", sp.threshold_test_alpha_beta, ctx, thr["n"], thr["zeta"]
        )

    items = [(spec["name"], law_item, spec) for spec in prepared["laws"]]
    items.append(("threshold", threshold_item, prepared["threshold"]))
    results = {}
    for i, (name, item, arg) in enumerate(items):
        start = time.perf_counter()
        try:
            results[name] = item(arg)
        except Exception as exc:  # the item counts as failed; the job goes on
            out.fail(i, f"{name} raised {type(exc).__name__}: {exc}")
        out.latencies.append(time.perf_counter() - start)
    return results


def check_np(prepared: dict, results: dict, out: Outcome) -> None:
    """Null masses sum to 1, alpha* is monotone in the budget, and the BSC
    law is the binomial law."""
    for i, spec in enumerate(prepared["laws"]):
        if spec["name"] not in results:
            continue  # failed when it raised
        law, points = results[spec["name"]]
        total = law.null_common_mass() + law.null_only_mass
        if abs(total - 1.0) > MASS_TOL:
            out.fail(i, f"{spec['name']}: null mass sums to {total!r}")
        alphas = [pt.alpha for pt in points]
        if any(b < a * (1.0 - 1e-12) for a, b in zip(alphas, alphas[1:])):
            out.fail(i, f"{spec['name']}: alpha* not monotone in the budget")
        if spec["name"] == "bsc-binomial" and not bsc_law_matches(law, spec["n"], 0.1):
            out.fail(i, "bsc-binomial: law differs from the binomial formula")
    test = results.get("threshold")
    if test is not None and not (0.0 <= test.alpha <= 1.0 and 0.0 <= test.beta <= 1.0):
        out.fail(len(prepared["laws"]), f"threshold test errors out of [0,1]: {test.alpha}, {test.beta}")


def bsc_law_matches(law, n: int, p: float) -> bool:
    """Atom k of BSC(p) against uniform is k crossovers: value
    k log(1/(2p)) + (n-k) log(1/(2(1-p))), null mass Binomial(n, p) at k."""
    k = np.arange(n + 1)
    t = k * math.log(0.5 / p) + (n - k) * math.log(0.5 / (1.0 - p))
    logp = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1) + k * math.log(p) + (n - k) * math.log1p(-p)
    if law.t.size != n + 1:
        return False
    order = np.argsort(t)
    rel = np.abs(np.expm1(np.asarray(law.logp_null, dtype=float) - logp[order]))
    return bool(np.allclose(law.t, t[order], rtol=0.0, atol=1e-9) and rel.max() <= BINOMIAL_RTOL)


# ---------------------------------------------------------------------------
# saddle-corpus
# ---------------------------------------------------------------------------


class OverCpuLimit(Exception):
    """An item used more CPU time than the corpus item limit."""


def _on_cpu_limit(signum, frame):
    raise OverCpuLimit()


def corpus_item(tracer, w, p, frac: float, res: dict) -> None:
    """capacity and R_inf cold, then the saddle and the shifted machinery.

    Fills `res` as it goes; `res["call"]` names the call in progress, so an
    item stopped by the CPU limit says where it was.
    """

    def call(name, fn, *args):
        res["call"] = name
        return tracer.call(name, fn, *args)

    c, _ = call("probability.capacity", sp.capacity, w)
    rinf = call("probability.r_infinity", sp.r_infinity, w)
    res.update(capacity=c, r_inf=rinf)
    if math.isfinite(rinf) and abs(c - rinf) <= EMPTY_DOMAIN_TOL:
        res["status"] = "empty-domain"
        return
    if not (0.0 <= rinf < c):
        res["status"] = "rinf-invariant"
        return
    rate = rinf + frac * (c - rinf)
    saddle = call("saddle.saddle_point", sp.saddle_point, w, rate, p)
    res.update(rate=rate, saddle=saddle)
    if saddle.degenerate:
        res["status"] = "degenerate"
        return
    ctx = call("shifted.shifted_context", sp.shifted_context, w, rate, p)
    shifted = call("shifted.tilde_esp", sp.tilde_esp, ctx, ctx.r)
    res["shifted"] = shifted
    res["fenchel0"] = call("shifted.fenchel0", sp.fenchel0, ctx, shifted.value - ctx.r)
    res["status"] = "ok"


def corpus_job(prepared: dict, tracer, out: Outcome) -> list:
    """Every item in turn; an item that uses more than the CPU limit stops.

    The limit counts the process's user CPU time (ITIMER_VIRTUAL), not wall
    time, so time the worker spends descheduled does not count against an
    item.
    """
    limit = prepared["cpu_limit_s"]
    results = []
    previous = signal.signal(signal.SIGVTALRM, _on_cpu_limit)
    try:
        for w, p, frac in prepared["items"]:
            res: dict = {}
            start = time.perf_counter()
            try:
                with tracer.span("item"):
                    signal.setitimer(signal.ITIMER_VIRTUAL, limit)
                    try:
                        corpus_item(tracer, w, p, frac, res)
                    finally:
                        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
            except OverCpuLimit:
                res.update(status="over-cpu-limit",
                           reason=f"over the {limit:g} s CPU limit in {res.get('call')}")
            except Exception as exc:  # the corpus must go on; the item counts as failed
                res.update(status="failed", reason=f"{res.get('call')} raised {type(exc).__name__}: {exc}")
            out.latencies.append(time.perf_counter() - start)
            results.append(res)
    finally:
        signal.signal(signal.SIGVTALRM, previous)
    return results


def check_corpus(prepared: dict, results: list, out: Outcome) -> None:
    """Invariants, certificates and, on every k-th instance, the primal oracle."""
    every = prepared["oracle_every"]
    for i, res in enumerate(results):
        status = res["status"]
        if status == "over-cpu-limit":
            out.over_cpu_limit += 1
        if status in ("failed", "over-cpu-limit"):
            out.fail(i, res["reason"])
            continue
        if status == "rinf-invariant":
            out.rinf_invariant_failures += 1
            out.fail(i, f"R_inf = {res['r_inf']!r} outside [0, C = {res['capacity']!r}]")
            continue
        if status == "empty-domain":
            continue
        out.in_domain += 1
        saddle = res["saddle"]
        if not math.isfinite(saddle.value):
            out.fail(i, "non-finite saddle value")
        if saddle.degenerate:
            out.degenerate += 1
        else:
            out.residuals.append(saddle.fixed_point_residual)
            out.gaps.append(res["shifted"].stationarity_gap)
            if saddle.fixed_point_residual > RESIDUAL_TOL:
                out.fail(i, f"fixed-point residual {saddle.fixed_point_residual:.3g}")
            if res["shifted"].stationarity_gap > STATIONARITY_TOL:
                out.fail(i, f"stationarity gap {res['shifted'].stationarity_gap:.3g}")
            if not (math.isfinite(res["shifted"].value) and math.isfinite(res["fenchel0"])):
                out.fail(i, "non-finite shifted exponent or Fenchel value")
        if i % every == 0:
            w, p, _ = prepared["items"][i]
            try:
                oracle = sp.esp_primal_oracle(w, res["rate"], p)
            except sp.SpherepackError as exc:
                out.fail(i, f"primal oracle raised {type(exc).__name__}: {exc}")
                continue
            if abs(saddle.value - oracle) > ESP_TOL:
                out.fail(i, f"E_SP(R,P) = {saddle.value} but the primal oracle gives {oracle}")


# ---------------------------------------------------------------------------
# entry points for the worker
# ---------------------------------------------------------------------------


def run(workload: str, prepared: dict, tracer, traced: bool) -> tuple[float, float, Outcome]:
    """Run the job once; returns (job seconds, peak RSS MB, outcome).

    Peak RSS is read before the output checks, which allocate too.
    """
    out = Outcome()
    capture = warnings.catch_warnings(record=True) if traced else nullcontext([])
    start = time.perf_counter()
    with capture as caught, tracer.span("job"):
        if traced:
            warnings.simplefilter("always")
        if workload in CLI_WORKLOADS:
            if traced:
                replay = replay_exponent if workload == "exponent-curve" else replay_bound
                try:
                    rows = replay(prepared, tracer)
                except Exception as exc:  # reported as a check error below
                    rows = f"the replay raised {type(exc).__name__}: {exc}"
            code = run_cli(prepared, tracer)
        elif workload == "np-oracle":
            results = np_job(prepared, tracer, out)
        else:
            results = corpus_job(prepared, tracer, out)
    job_s = time.perf_counter() - start
    out.runtime_warnings = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if workload in CLI_WORKLOADS:
        # one item: the whole command
        out.latencies.append(job_s)
        if code != 0:
            out.fail(0, f"CLI exited with {code}" if isinstance(code, int) else f"CLI {code}")
        else:
            csv_rows = read_csv(prepared["csv"])
            if traced and rows != csv_rows:
                out.errors.append(rows if isinstance(rows, str) else "the replayed rows differ from the CLI's CSV")
            check = check_exponent if workload == "exponent-curve" else check_bound
            problems = check(prepared, csv_rows, out)
            if problems:
                out.fail(0, "; ".join(problems))
    elif workload == "np-oracle":
        check_np(prepared, results, out)
    else:
        check_corpus(prepared, results, out)
    return job_s, rss_mb, out


def calibrate() -> dict:
    """A fixed loop of 20 cold saddle solves on the ternary channel."""
    w = sp.Channel(TERNARY)
    p = sp.Distribution([1 / 3, 1 / 3, 1 / 3])
    wall, cpu = time.perf_counter(), time.process_time()
    for r in np.linspace(0.05, 0.4, 20):
        sp.saddle_point(w, float(r), p)
    return {"wall_s": time.perf_counter() - wall, "process_s": time.process_time() - cpu}
