"""attainbench benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a source checkout::

    python3 benchmarks/run.py --workload analyze-raw --seed 3 --seconds 20 --trace 0

The package is imported from ``src/`` next to this directory; the run fails
(exit 2, no result) when it is missing. Set-up runs SETUP_REPEATS times,
each in a fresh interpreter that times its own imports and input
generation: once before the first operation, the others spread evenly over
the measured loop, so that their median covers the machine's state over the
whole run. After one untimed warm-up operation the workload runs
closed-loop for ``--seconds``. Every operation's outputs are checked; a
failed check counts as a failed operation and the run goes on.
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics of ``tracing.py`` instead of the end-to-end ones.

Operation times are calibrated: a fixed reference loop runs right after
every operation, and a wall time t followed by a reference time r is
reported as ``t * REF_NOMINAL_S / r``, i.e. in seconds of a machine on which
the reference loop takes REF_NOMINAL_S. On a processor shared with other
tenants this removes much of the drift in machine speed between runs; the
raw wall and reference times are kept in the result file. Set-up times are
reported as measured: they are mostly interpreter start-up and imports,
which the reference loop does not track.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
Lines before it give the environment and the per-command timings. Inputs,
outputs, the result with its environment and the trace spans are written
under ``.bench_work/`` in the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

STARTED = time.perf_counter()
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Set-up runs per benchmark run, by input size; ``setup_s`` is their median.
SETUP_REPEATS = {"full": 9, "smoke": 1}
#: Timed operations per run at the least, however short ``--seconds`` is.
MIN_OPERATIONS = 3
#: Reference-loop time, in seconds, that defines nominal machine speed.
REF_NOMINAL_S = 0.03

END_TO_END = {
    "op_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ops_frac": "frac",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs that run every check in seconds")
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's output digests as the reference "
                             "(only with the reference seed)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def reference_loop() -> float:
    """Wall time of a fixed mix of interpreter and small-array numpy work."""
    import numpy as np

    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    table = {}
    for i in range(6000):
        x = rng.uniform(-5.0, 5.0, 10)
        table[i % 97] = f"{float(np.dot(x, x))!r}"
    return time.perf_counter() - start


def calibrated(seconds: float, reference: float) -> float:
    """A wall time at nominal speed, given the reference-loop time that followed it."""
    return seconds * REF_NOMINAL_S / reference


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(HERE.parent),
        "loadavg_at_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def timed_setup(args) -> tuple:
    """Time one fresh set-up; return its seconds and the digest of its input."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--size", args.size]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"set-up of {args.workload} failed (exit {done.returncode})")
    digest, seconds = done.stdout.split()
    return float(seconds), digest


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "attainbench" / "__init__.py").is_file():
        print(f"benchmark: no attainbench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import attainbench
    if Path(attainbench.__file__).resolve().parent != SRC / "attainbench":
        print(f"benchmark: imported attainbench from {attainbench.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    from tracing import METRICS, Tracer, median_metrics

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = Path(".bench_work") / args.workload
    if args.setup_only:
        digest = workload.prepare(args.seed, workdir, args.size)
        print(digest, repr(time.perf_counter() - STARTED))
        return 0
    recording = args.record_digests
    if recording and args.seed != workloads.REFERENCE_SEED:
        print(f"benchmark: --record-digests needs --seed {workloads.REFERENCE_SEED}",
              file=sys.stderr)
        return 2
    expected = None
    if args.seed == workloads.REFERENCE_SEED and not recording:
        expected = workloads.reference_digests(args.workload, args.size)
        if expected is None:
            print(f"benchmark: no reference digests for {args.workload} ({args.size})",
                  file=sys.stderr)
            return 2

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    seconds, input_digest = timed_setup(args)
    setup_times = [seconds]
    setups = SETUP_REPEATS[args.size]

    def setup_again() -> None:
        seconds, digest = timed_setup(args)
        if digest != input_digest:
            raise SystemExit(f"set-up of {args.workload} is not deterministic")
        setup_times.append(seconds)

    session = workload.session(args.seed, workdir, args.size)

    tracer = Tracer() if args.trace else None
    attempted = failed = 0
    first_digests = None
    samples = []        # timed operations: (traced, {phase: wall seconds}, reference seconds)
    layer_samples = []  # per-layer metrics of traced operations

    def operation(traced: bool):
        """Run and check one operation; return its phase timings, or None if it failed."""
        nonlocal attempted, failed, first_digests
        attempted += 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            timings = session.operation()
        except (Exception, SystemExit):
            failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            if traced:
                tracer.remove()
        try:
            digests = {"input": input_digest, **session.digests()}
            if first_digests is None:
                # Later operations are checked by reproducing these verified bytes.
                session.verify()
                first_digests = digests
            elif digests != first_digests:
                raise workloads.CheckFailed("outputs differ from the first operation's")
            if expected is not None and digests != expected:
                changed = sorted(k for k in set(digests) | set(expected)
                                 if digests.get(k) != expected.get(k))
                raise workloads.CheckFailed(f"outputs differ from the reference: {changed}")
        except (workloads.CheckFailed, OSError, ValueError, KeyError) as exc:
            failed += 1
            print(f"check failed: {exc}", file=sys.stderr)
            return None
        return timings

    operation(traced=False)  # warm-up: checked, not timed
    counts = [0, 0]          # timed operations without and with tracing
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(samples) % 2 == 1
        timings = operation(traced)
        if timings is not None:
            layers = tracer.operation_metrics(sum(timings.values())) if traced else {}
            ref = reference_loop()
            samples.append((traced, timings, ref))
            counts[traced] += 1
            if traced:
                layer_samples.append({name: calibrated(value, ref)
                                      if name.endswith("_s") else value
                                      for name, value in layers.items()})
        elapsed = time.perf_counter() - start
        if len(setup_times) < setups and elapsed >= len(setup_times) * args.seconds / setups:
            setup_again()
        enough = counts[0] >= MIN_OPERATIONS and (not args.trace or counts[1] >= MIN_OPERATIONS)
        if elapsed >= args.seconds and (enough or failed >= MIN_OPERATIONS):
            break
    while len(setup_times) < setups:
        setup_again()

    if recording and first_digests is not None and failed == 0:
        workloads.record_reference_digests(args.workload, args.size, first_digests)

    def median_time(traced: bool, phases=None) -> float:
        """Calibrated median wall time of the (traced) operations or some of their phases."""
        return statistics.median(calibrated(sum(t[p] for p in (phases or t)), r)
                                 for tr, t, r in samples if tr == traced)

    report = {}
    if counts[0]:
        report = {
            "op_s": median_time(False),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ops_frac": (attempted - failed) / attempted,
        }
        print(f"workload {args.workload} seed {args.seed} size {args.size}: "
              f"{counts[0]} timed operations, {attempted} attempted, {failed} failed")
        phases = samples[0][1]
        if "run_benchmark" in phases:
            print(f"evals_per_s\t{session.evaluations / report['op_s']!r}\t1/s")
        else:
            for phase in phases:
                print(f"{phase}_s\t{median_time(False, [phase])!r}\ts")
        for name, value in report.items():
            print(f"{name}\t{value!r}\t{END_TO_END[name]}")
        print(f"failed_ops_frac\t{failed / attempted!r}\tfrac")

    metrics, units = report, END_TO_END
    if args.trace:
        metrics, units = {}, METRICS
        if layer_samples and report:
            metrics = median_metrics(layer_samples)
            metrics["trace.overhead_frac"] = median_time(True) / report["op_s"] - 1.0
    result = {
        "correct": failed == 0 and set(metrics) == set(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }

    results = Path(".bench_work") / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "environment": env, "setup_s": setup_times,
              "operations": samples, "end_to_end": report, "result": result}
    with open(results / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.dump(results / f"{stem}-spans.json", {"layers": layer_samples})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
