"""spherepack benchmark: four workloads, end-to-end metrics or a traced
per-layer run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the library is imported from
./src. Every repetition runs in a fresh worker interpreter, so every cache
in the library starts cold, as it does for a CLI user. Repetitions go on
until --seconds of job time is measured; at least one runs. The last line of standard output is the result as
one JSON object; the lines before it give each metric with its unit and
sample count, the environment and the host calibration loop.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOADS, make_inputs
from stats import harrell_davis, samples_beyond

ROOT = Path(__file__).resolve().parent.parent
RUN_LIMIT_S = 170.0
SETUP_PROBES = 2  # half before the job repetitions, half after


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Run:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.workdir = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("SPHEREPACK_THREADS", None)  # the CLI as shipped
        self.count = 0

    def worker(self, mode: str) -> dict:
        """Spawn one worker, wait for it and return its result and set-up time."""
        self.count += 1
        result_path = self.workdir / f"{mode}-{self.count}.json"
        cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), mode, self.workload,
               str(self.workdir), str(result_path)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run time limit reached")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} worker overran the {RUN_LIMIT_S:g} s run limit") from exc
        if proc.returncode != 0 or not result_path.is_file():
            raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["setup_s"] = result["ready"] - spawned
        return result

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def on_terminate(signum, frame):
    # Raised inside subprocess.run, which then kills and reaps the worker;
    # main's finally clause removes the scratch directory.
    raise BenchError(f"stopped by signal {signum}")


def write_inputs(workdir: Path, inputs: dict) -> None:
    (workdir / "inputs.json").write_text(json.dumps(inputs), encoding="utf-8")
    if "channel" in inputs:
        rows = inputs["channel"]
        doc = {"input_alphabet": list(range(len(rows))), "output_alphabet": list(range(len(rows[0]))),
               "rows": rows}
        (workdir / "channel.json").write_text(json.dumps(doc), encoding="utf-8")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or platform.machine()


def measure(run: Run, seconds: float) -> tuple[list[dict], list[float]]:
    """Job repetitions until `seconds` of job time; plus set-up probes.

    The set-up probes run half before and half after the repetitions, so
    their median does not rest on one stretch of host speed. No repetition
    starts that could not end within the run time limit.
    """
    setups = [run.worker("setup")["setup_s"] for _ in range(SETUP_PROBES // 2)]
    reps: list[dict] = []
    spent = 0.0
    while not reps or (spent < seconds and run.deadline - time.monotonic() > 2.0 * reps[-1]["job_s"] + 10.0):
        reps.append(run.worker("job"))
        spent += reps[-1]["job_s"]
    setups += [r["setup_s"] for r in reps]
    setups += [run.worker("setup")["setup_s"] for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    return reps, setups


def end_to_end(reps: list[dict], setups: list[float]) -> tuple[dict, list[str], int, int]:
    latencies_ms = [1000.0 * v for r in reps for v in r["latencies"]]
    attempted = sum(len(r["latencies"]) for r in reps)
    failed = sum(len(r["failures"]) for r in reps)
    n = len(latencies_ms)
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "job_s": (statistics.median(r["job_s"] for r in reps), "s", len(reps)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB", len(reps)),
        "pass_ratio": ((attempted - failed) / attempted, "ratio", attempted),
    }
    # Reported beside the metrics, not as metrics: their ten-seed spreads
    # reached the 0.25 bound (see README.md). p90 is the highest percentile
    # with ten samples beyond it in one 100-item corpus repetition.
    notes = [
        f"fail_ratio = {failed / attempted:.6g} ratio (n={attempted}, failed={failed})",
        f"item_ms.p50 = {harrell_davis(latencies_ms, 0.50):.6g} ms (n={n})",
        f"item_ms.p90 = {harrell_davis(latencies_ms, 0.90):.6g} ms (n={n}, {samples_beyond(n, 0.90)} beyond it)",
    ]
    return metrics, notes, attempted, failed


def per_layer(plain: dict, traced: dict, calibration_s: float) -> dict:
    """Span self times, counters and certificates of the traced repetition."""
    t = traced["self_times"]

    def span(name: str) -> tuple:
        return (t.get(name, 0.0), "s", 1)

    metrics = {
        f"{name}_s": span(name)
        for name in (
            "probability.capacity", "probability.r_infinity",
            "saddle.esp_of_r", "saddle.rho_star_r", "saddle.saddle_point",
            "shifted.shifted_context", "shifted.tilde_esp", "shifted.fenchel0",
            "bounds.select_nu", "bounds.constants_ledger", "bounds.refined_bound",
            "nptest.build_loglr_law", "nptest.alpha_star", "nptest.threshold_test_alpha_beta",
            "nptest.np_alpha_for_composition", "cli.main",
        )
    }
    metrics.update(
        {
            "probability.rinf_invariant_failures": (traced["rinf_invariant_failures"], "count", 1),
            "corpus.items_over_cpu_limit": (traced["over_cpu_limit"], "count", 1),
            "nptest.atoms": (traced["atoms"], "count", 1),
            "saddle.max_fixed_point_residual": (traced["max_residual"], "1", 1),
            "shifted.max_stationarity_gap": (traced["max_gap"], "nats", 1),
            "saddle.degenerate_ratio": (traced["degenerate_ratio"], "ratio", 1),
            "runtime_warnings": (traced["runtime_warnings"], "count", 1),
            "trace_overhead_s": (traced["job_s"] - plain["job_s"], "s", 1),
            "host.calibration_s": (calibration_s, "s", 1),
        }
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "spherepack" / "__init__.py").is_file():
        print(f"no spherepack sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, on_terminate)
    run = Run(args.workload, args.seed)
    try:
        write_inputs(run.workdir, make_inputs(args.workload, args.seed))
        calib = run.worker("calibrate")
        if args.trace:
            # each repetition right after a calibration loop of its own, so
            # trace_overhead_s can be read against the host speed of each
            plain = run.worker("job")
            traced_calib = run.worker("calibrate")
            traced = run.worker("traced")
            reps = [traced]
            metrics = per_layer(plain, traced, calib["calibration"]["wall_s"])
            attempted, failed = len(traced["latencies"]), len(traced["failures"])
            notes = [
                f"trace_overhead_s = traced {traced['job_s']:.4f} s (calibration before it "
                f"{traced_calib['calibration']['wall_s']:.4f} s) - untraced {plain['job_s']:.4f} s "
                f"(calibration before it {calib['calibration']['wall_s']:.4f} s)"
            ]
        else:
            reps, setups = measure(run, args.seconds)
            metrics, notes, attempted, failed = end_to_end(reps, [calib["setup_s"], *setups])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()

    env = dict(calib["env"], nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)), cpu=cpu_model())
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    c = calib["calibration"]
    print(f"# host calibration: 20 saddle solves in {c['wall_s']:.4f} s wall, {c['process_s']:.4f} s process")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:40s} {value:>14.6g} {unit:6s} (n={n})")
    for note in notes:
        print(f"# {note}")
    errors = [e for r in reps for e in r["errors"]]
    failures = sorted({reason for r in reps for reason in r["failures"].values()})
    for reason in failures:
        print(f"# failed item: {reason}")
    for error in errors:
        print(f"# check error: {error}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
