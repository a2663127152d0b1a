"""One repetition in a fresh interpreter, so every library cache starts cold.

    python3 perfbench/worker.py <mode> <workload> <workdir> <result.json>

mode is `setup` (import and load the inputs, then stop), `calibrate` (the
fixed host calibration loop), `job` (the workload, untraced) or `traced`
(the workload with spans and a warnings capture). The worker reads
<workdir>/inputs.json and writes its result as JSON. The set-up clock stops
once the library is imported and the inputs are loaded; the parent started
it just before it spawned this process.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    mode, workload, workdir, result_path = argv[0], argv[1], Path(argv[2]), Path(argv[3])

    import jobs  # imports the library

    inputs = json.loads((workdir / "inputs.json").read_text(encoding="utf-8"))
    prepared = jobs.prepare(workload, inputs, workdir)
    result: dict = {"ready": time.monotonic()}

    if mode == "calibrate":
        import numpy
        import platform
        import scipy

        import spherepack

        result["calibration"] = jobs.calibrate()
        result["env"] = {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "spherepack": str(Path(spherepack.__file__).parent),
            "cli_row_pool": jobs.row_pool_size(workload, prepared),
        }
    elif mode in ("job", "traced"):
        result.update(run_job(workload, prepared, traced=mode == "traced"))
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")

    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


def run_job(workload: str, prepared: dict, traced: bool) -> dict:
    import jobs
    from spans import NullTracer, Tracer

    tracer = Tracer() if traced else NullTracer()
    job_s, rss_mb, out = jobs.run(workload, prepared, tracer, traced)
    result = {"job_s": job_s, "peak_rss_mb": rss_mb, **out.summary()}
    if traced:
        result["self_times"] = tracer.self_times()
    return result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
