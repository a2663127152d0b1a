"""Run the benchmark once per seed and report each metric's run-to-run spread.

    python3 perfbench/spread.py --workload saddle-corpus --seeds 1-10 [--seconds 12] [--out runs.jsonl]

Spread is the interquartile distance of the per-run values as a share of
their median (statistics.quantiles(values, n=4)). Each run's result line is
appended to --out when given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import spread

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default=str(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]))
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    values: dict[str, list[float]] = {}
    for seed in seeds(args.seeds):
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", "0"]
        started = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        wall_s = time.monotonic() - started
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        calibration = next(ln for ln in lines if ln.startswith("# host calibration"))
        env = json.loads(next(ln for ln in lines if ln.startswith("# env "))[len("# env "):])
        if args.out:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed, "run_wall_s": wall_s,
                                     "calibration": calibration, "env": env, **result}) + "\n")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
              + f" | run {wall_s:.1f} s | " + calibration.split(": ", 1)[1], flush=True)
    for name, vals in values.items():
        line = f"{name:16s} median {statistics.median(vals):.6g}"
        if len(vals) >= 2:
            line += f"  spread {spread(vals):.4f}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
