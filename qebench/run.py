"""qe-stack benchmark: seeded workloads through ``qestack.cli.main``.

    python3 qebench/run.py --workload train-stack --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Each run

1. sets the workload up ``SETUPS`` times, each in a fresh process that
   imports ``qestack``, generates the seeded inputs and builds the
   program-made prerequisites; ``setup_s`` is the median set-up time, and
   the set-ups must agree byte for byte;
2. runs the workload's CLI sequence in one more process, again and again
   for ``--seconds`` (``pipeline_s`` is the median sequence time), checking
   every output on the first pass and requiring later passes to reproduce
   it byte for byte;
3. prints a detail line (environment, sizes, per-run times, exact counts,
   failures) and then, as the last line, the result:
   ``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
   metrics are the end-to-end ones; with ``--trace 1`` sequences alternate
   untraced and traced and the metrics are the per-layer ones.

Times are wall times put at the nominal machine speed by ``probe`` (the
machines this runs on change speed by 1.4x for tens of seconds at a time);
the detail line keeps the raw wall times too.

Work files live under ``.qebench_work/`` in the checkout and are removed on
exit. The run fails (exit 2, no result) when the checkout holds no
``src/qestack``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import probe  # noqa: E402

# Whole-run limit: every child is killed past it, so a run ends within 180 s.
RUN_LIMIT_S = 170.0

# Set-ups per run; setup_s is their median.
SETUPS = 5

# Keep BLAS single-threaded: the closed loop has one caller on a small machine.
_CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def _child(args, deadline):
    env = {**os.environ, **_CHILD_ENV}
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *map(str, args)],
            capture_output=True, text=True, env=env, timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[0]} did not finish within the run limit") from None
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        tail = (proc.stderr.strip() or proc.stdout.strip()).splitlines()[-1:] or ["no output"]
        raise BenchError(f"{args[0]} exited with {proc.returncode}: {tail[0]}")
    return seconds, json.loads(proc.stdout.strip().splitlines()[-1])


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run(workload, seed, seconds, traced, scale):
    if not os.path.isfile(os.path.join(ROOT, "src", "qestack", "__init__.py")):
        raise BenchError(f"no program sources under {os.path.join(ROOT, 'src')}")
    deadline = time.monotonic() + RUN_LIMIT_S
    work = os.path.join(ROOT, ".qebench_work", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_s, setup_wall_s, setup_results = [], [], []
        for k in range(SETUPS):
            took, result = _child(
                ["setup", workload, seed, os.path.join(work, f"setup{k}"), scale], deadline
            )
            setup_wall_s.append(took)
            setup_s.append(probe.at_nominal(took, result["probe_median_s"]))
            setup_results.append(result)
        first = setup_results[0]
        run_dir = os.path.join(work, "setup0")
        for k in range(1, SETUPS):
            shutil.rmtree(os.path.join(work, f"setup{k}"), ignore_errors=True)
        _, m = _child(["measure", workload, seed, run_dir, seconds, int(traced)], deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    setup_problems = [p for r in setup_results for p in r["problems"]]
    inputs_repeat = all(r["digest"] == first["digest"] for r in setup_results)
    failures = setup_problems + m["failures"]
    if not inputs_repeat:
        failures.append("set-ups of one seed wrote different inputs or prerequisites")
    if traced and not m["exact_counts_repeat"]:
        failures.append("exact counts differ between traced sequences of one seed")
    attempted = m["attempted"] + sum(r["attempted"] for r in setup_results)
    failed = m["failed"] + sum(r["failed"] for r in setup_results)
    correct = failed == 0 and inputs_repeat and (not traced or m["exact_counts_repeat"])

    pipeline = statistics.median(m["untraced_s"])
    sizes = first["sizes"]
    if traced:
        values = dict(m["layers"])
        traced_pipeline = statistics.median(m["traced_s"])
        values["trace.overhead_pct"] = 100.0 * (traced_pipeline - pipeline) / pipeline
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "pipeline_s": pipeline,
            "tokens_per_s": sizes["mt_tokens"] / pipeline,
            "peak_rss_mb": m["peak_rss_mb"],
            "f1_mult": m["scores"].get("f1_mult"),
            "pearson": m["scores"].get("pearson"),
        }
    units = metric_units("per_layer" if traced else "end_to_end")
    metrics = {name: _metric(values[name], unit) for name, unit in units.items()}
    detail = {
        "workload": workload,
        "seed": seed,
        "held_out_seed": gen.HELD_OUT_SEED,
        "scale": scale,
        "environment": {
            "python": platform.python_version(),
            "numpy": first["numpy"],
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
        },
        "sizes": sizes,
        "loop": "closed, one caller, --jobs 1",
        "nominal_probe_s": probe.NOMINAL_S,
        "setup_s_runs": setup_s,
        "setup_wall_s_runs": setup_wall_s,
        "pipeline_s_runs": m["untraced_s"],
        "pipeline_wall_s_runs": m["wall_s"],
        "traced_pipeline_s_runs": m["traced_s"],
        "error_rate": failed / attempted,
        "exact_counts": m["exact_counts"],
        "input_digest": first["digest"],
        "output_digest": m["output_digest"],
        "failures": failures[:10],
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def metric_units(kind: str) -> dict[str, str]:
    """Metric -> unit of the ``end_to_end`` or ``per_layer`` metrics in
    ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {entry["name"]: entry["unit"] for entry in json.load(handle)[kind]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(gen.SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="corpus size factor (tests)")
    args = parser.parse_args(argv)
    # a terminated run still kills its child process and removes its work files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    except BenchError as exc:
        print(f"qebench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
