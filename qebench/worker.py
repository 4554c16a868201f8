"""Child process of the benchmark: one set-up, or one measured run.

    python3 qebench/worker.py setup   WORKLOAD SEED DIR SCALE
    python3 qebench/worker.py measure WORKLOAD SEED DIR SECONDS TRACE

``setup`` imports the program, generates the seeded inputs into ``DIR/in``
and builds the prerequisites into ``DIR/pre``. ``measure`` runs the
workload's CLI sequence through ``qestack.cli.main`` in this one process,
call after call (a closed loop with one caller and ``--jobs 1``), until
``SECONDS`` have passed. With ``TRACE`` 1 it alternates untraced and traced
sequences. Either mode prints one JSON object on its last stdout line.

Both modes run under :class:`probe.SpeedProbe`, started before ``numpy`` and
``qestack`` are imported, so every time reported can be put at the nominal
machine speed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

import probe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def import_cli():
    """``qestack.cli`` from this checkout's ``src/``, never an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "qestack", "__init__.py")):
        raise SystemExit(f"no program sources under {src}")
    sys.path.insert(0, src)
    from qestack import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"qestack imported from {cli.__file__}, not from {src}")
    return cli


def run_call(cli, call, seed: int):
    """Run one CLI call; returns (seconds, stdout, problems)."""
    out, err = io.StringIO(), io.StringIO()
    argv = ["--seed", str(seed), "--jobs", "1", "--format", "kv", *call.argv]
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:
        code = None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    problems = []
    stderr = err.getvalue()
    if code != 0:
        problems.append(f"exit code {code}")
    if "error:" in stderr or "Traceback" in stderr:
        problems.append(stderr.strip().splitlines()[-1])
    return seconds, out.getvalue(), problems


def _guarded(fn, *args):
    try:
        return fn(*args) or []
    except Exception as exc:  # a check that cannot read an output fails it
        return [f"{type(exc).__name__}: {exc}"]


def run_sequence(cli, calls, ctx, seed, speed, tracer=None, check=False):
    """One pass over ``calls``. Returns each call's wall time, its time at
    the nominal speed (see ``probe``), each call's output digest and the
    problems found, as ``(call index, problem)``."""
    import workloads

    times, samples, digests, problems = [], [], [], []
    for index, call in enumerate(calls):
        speed.take()
        if tracer is not None:
            with tracer.span(f"cli.{call.name}"):
                seconds, stdout, found = run_call(cli, call, seed)
        else:
            seconds, stdout, found = run_call(cli, call, seed)
        times.append(seconds)
        samples.append(speed.take())
        if check and call.check is not None and not found:
            found += _guarded(call.check, ctx, stdout)
        if call.after is not None:
            found += _guarded(call.after, ctx)
        missing = [p for p in call.outputs if not os.path.exists(p)]
        if missing:
            found.append(f"missing output {missing[0]}")
            digests.append(None)
        else:
            digests.append(workloads.digest(call.outputs) + ":" + stdout)
        problems += [(index, p) for p in found]
    pooled = [p for call_samples in samples for p in call_samples]
    nominal = [probe.nominal(t, p, pooled) for t, p in zip(times, samples)]
    return times, nominal, digests, problems


def setup(workload, seed, directory, scale):
    import numpy

    import gen
    import workloads

    cli = import_cli()

    os.makedirs(directory, exist_ok=True)
    os.chdir(directory)
    for sub in ("in", "pre", "out"):
        os.makedirs(sub, exist_ok=True)
    sizes = gen.generate(workload, seed, "in", scale)
    workloads.write_run_files(workload)
    problems, failed = [], 0
    calls = workloads.prerequisites(workload)
    for call in calls:
        _, _, found = run_call(cli, call, seed)
        failed += bool(found)
        problems += [f"{call.name}: {p}" for p in found]
    return {
        "sizes": sizes,
        "attempted": len(calls),
        "failed": failed,
        "problems": problems,
        "digest": gen.tree_digest(".", exclude=("out",)),
        "numpy": numpy.__version__,
    }


def measure(workload, seed, directory, seconds, traced, speed):
    import spans
    import workloads

    cli = import_cli()
    os.chdir(directory)
    ctx = workloads.context(workload)
    calls = workloads.sequence(workload)
    sentences, tokens = len(ctx.mt_lengths), sum(ctx.mt_lengths)

    untraced_s, traced_s, wall_s, layers, counts = [], [], [], [], []
    attempted, failed, failures, first_digests = 0, 0, [], None
    deadline = time.perf_counter() + seconds
    while True:
        tracer = spans.Tracer() if traced and len(untraced_s) > len(traced_s) else None
        gc.collect()
        if tracer is not None:
            with spans.instrument(tracer):
                _, nominal, digests, problems = run_sequence(cli, calls, ctx, seed, speed, tracer)
            traced_s.append(sum(nominal))
            layers.append(spans.layer_metrics(tracer, sentences, tokens))
            counts.append({k: layers[-1][k] for k in spans.EXACT_COUNTS})
        else:
            check = first_digests is None
            times, nominal, digests, problems = run_sequence(
                cli, calls, ctx, seed, speed, check=check
            )
            untraced_s.append(sum(nominal))
            wall_s.append(sum(times))
        attempted += len(calls)
        if first_digests is None:
            first_digests = digests
        else:
            problems += [
                (index, "output differs from the first run of this seed")
                for index, (mine, first) in enumerate(zip(digests, first_digests))
                if mine != first
            ]
        failed += len({index for index, _ in problems})
        failures += [f"{calls[index].name}: {p}" for index, p in problems]
        done = time.perf_counter() >= deadline
        if done and (not traced or traced_s):
            break

    return {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "wall_s": wall_s,
        "layers": spans.median_metrics(layers) if layers else {},
        "exact_counts": counts[0] if counts else {},
        "exact_counts_repeat": all(c == counts[0] for c in counts),
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:10],
        "scores": ctx.scores,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "output_digest": hashlib.sha256(repr(first_digests).encode()).hexdigest(),
    }


def main(argv):
    mode, workload, seed, directory = argv[:4]
    with probe.SpeedProbe() as speed:
        if mode == "setup":
            result = setup(workload, int(seed), directory, float(argv[4]))
            samples = speed.take()
            result["probe_median_s"] = statistics.median(samples) if samples else None
        else:
            result = measure(
                workload, int(seed), directory, float(argv[4]), argv[5] == "1", speed
            )
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
