"""One workload in a fresh interpreter, started by ``bench/run.py``.

    python bench/child.py setup WORKLOAD SEED SECONDS
    python bench/child.py run WORKLOAD SEED SECONDS TRACE

``setup`` stops as soon as the workload is ready and reports how long that
took from this file's first line; ``run`` goes on to measure (``TRACE`` 0)
or to trace (``TRACE`` 1).  Times are scaled to the reference speed of
:mod:`bench.speed`, except in a traced run, where the speedometer is off so
the profiler sees only the program.  ``SECONDS`` scales the workload's
plan.  The last line on stdout is a JSON object.  Scratch files live in a
temporary directory under ``bench/.work/`` that is removed on exit.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv):
    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    trace = mode == "run" and bool(int(argv[4]))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from bench.speed import Speedometer

    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=HERE / ".work") as workdir:
        with Speedometer() as speedometer:
            import repro

            if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
                raise SystemExit(
                    f"repro was imported from {repro.__file__}, not from {ROOT / 'src'}"
                )
            from bench import traced, workloads

            workload = workloads.WORKLOADS[name]
            plan = workload.plan.scaled(seconds)
            bench = workloads.prepare(workload, seed, plan, Path(workdir))
            setup = (STARTED, time.perf_counter())
            setup_s = {"scaled": speedometer.scaled(setup), "raw": setup[1] - setup[0]}
            if mode == "setup":
                return {"setup_s": setup_s}
            tally = workloads.Tally()
            samples = {}
            if not trace:
                metrics, samples = workloads.measure(bench, tally, speedometer)
        if trace:
            metrics = traced.trace(bench, tally, HERE / "reports")
    return {
        "setup_s": setup_s,
        "slowdown": speedometer.slowdown(),
        "metrics": metrics,
        "samples": samples,
        "attempted": tally.attempted,
        "failures": tally.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
