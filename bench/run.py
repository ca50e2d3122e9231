#!/usr/bin/env python3
"""orthlag benchmark: runs a workload's CLI commands in-process and prints
one JSON result line.

    python3 bench/run.py --workload expand --seed 1 --seconds 18 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 18 --trace 1

Run from the repository root; the program is imported from ./src.  One
client thread drives `orthlag.cli.main(argv)` in a closed loop: a pass runs
the workload's command list in order, each command starting when the
previous one has returned and its output has been checked, and passes repeat
until --seconds have elapsed; the first pass is untimed and measures memory.
Each pass runs in a child forked after the import, so no state a pass
leaves behind carries into the next.  Every
command's output is compared with an oracle (see workloads.py); a command
that raises, exits nonzero or misses its gate counts as failed, and the run
goes on.  The result line's `attempted` and `failed` count the distinct
commands of the list, not their runs in each pass.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics (see spantrace.py), writing
the raw spans to .bench_out/; its `correct` is also false when the
layer-isolation or self-time check fails.  --workload all runs every workload, each in
a fresh process, and prints a table before the JSON lines.
"""

from __future__ import annotations

import os

# Cap BLAS/OpenMP threads at the CPUs this process may use, before NumPy loads.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import spantrace  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "cmd_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "accuracy_digits": "digits",
}
# On shared virtual machines CPU speed can drift by 20% and more over
# minutes under load from outside the process.  Every reported time is
# therefore scaled by a reference workload timed next to it: seconds at the
# speed where the reference takes its nominal time.  Uncalibrated seconds go
# to the log line.  For the commands and the input generation the reference
# is a fixed calibration loop (CAL_NOMINAL_S).  The speed changes in
# episodes of about half a second, so a command longer than that is scaled by
# samples of the loop taken while it runs, every CAL_EVERY_S (see
# run_command).
CAL_NOMINAL_S = 0.010
CAL_EVERY_S = 0.1
CAL_MAX = 16
# For the import of orthlag.cli, which a fresh interpreter spends nearly all
# in NumPy and SciPy, the reference is a fresh interpreter's import of the
# third-party modules orthlag uses (REF_MODULES, REF_NOMINAL_S).  The two
# imports run one after the other.  On the machine that recorded the
# baseline, the median of 5 raw import times moved by 30% between
# neighbouring groups of 5, and the median of 5 ratios by 10%, while one
# sample of the calibration loop read anywhere from 6 to 13 ms.  Set-up is
# timed SETUP_REPEATS times and the medians are reported.
REF_MODULES = "numpy, scipy.linalg, scipy.special"
REF_NOMINAL_S = 0.4
SETUP_REPEATS = 5
SETUP_CAL_SAMPLES = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import {}; "
    "print(repr(time.perf_counter() - t))"
)


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


# ---------------------------------------------------------------------------
# calibration and set-up
# ---------------------------------------------------------------------------

_CAL_VEC = np.linspace(0.0, 1.0, 50)
_CAL_MATRIX = np.random.default_rng(0).uniform(size=(64, 64))


def calibration_seconds() -> float:
    """Time of a fixed mix of the kinds of work the program does: NumPy
    scalar arithmetic into a list, dict updates keyed by index tuples, NumPy
    calls on tiny and small arrays, float formatting and parsing, an
    interpreted integer loop and a small matrix product."""
    t0 = perf_counter()
    terms = []
    for i in range(3000):
        terms.append((_CAL_VEC[i % 50] * 0.5 + 1.0) * _CAL_VEC[(i * 7) % 50])
    math.fsum(terms)
    acc: dict[tuple[int, int], float] = {}
    for i in range(4000):
        key = (i % 37, i % 11)
        acc[key] = acc.get(key, 0.0) + i * 0.5
    x = np.zeros(8)
    for _ in range(1000):
        x = x * 0.5 + 1.0
    total = 0.0
    for text in [repr(i * 0.123456789) + "," + str(i) for i in range(1500)]:
        a, b = text.split(",")
        total += float(a) + int(b)
    n = 0
    for i in range(10_000):
        n += i * i
    y = np.linspace(0.0, 1.0, 64)
    for _ in range(100):
        y = np.exp(-y) * 0.5 + y * 0.25
    _CAL_MATRIX @ _CAL_MATRIX
    return perf_counter() - t0


def import_seconds(root: Path, modules: str) -> float:
    """Seconds to import `modules` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE.format(modules)], env=env,
                          cwd=root, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"importing {modules} failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def calibration_median() -> float:
    return statistics.median(calibration_seconds() for _ in range(SETUP_CAL_SAMPLES))


def setup(root: Path, work: Path, workload: str, seed: int):
    """Time SETUP_REPEATS imports of orthlag.cli and input generations, in
    calibrated seconds; return the sum of their medians and the last
    generation's command list."""
    imports, gens = [], []
    for k in range(SETUP_REPEATS):
        target = work / f"inputs{k}"
        ref = import_seconds(root, REF_MODULES)
        imports.append(import_seconds(root, "orthlag.cli") * REF_NOMINAL_S / ref)
        cal = calibration_median()
        t0 = perf_counter()
        commands = workloads.build(workload, seed, target)
        dt = perf_counter() - t0
        gens.append(dt * CAL_NOMINAL_S / statistics.median((cal, calibration_median())))
        if k < SETUP_REPEATS - 1:
            shutil.rmtree(target)
    return statistics.median(imports) + statistics.median(gens), commands


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class Tally:
    """Counts and latencies over a run.  `attempted` and `failed` count the
    distinct commands of the list, a command failing if it fails in any pass,
    so neither depends on how many passes fit in the run.  The log line shows
    in how many passes each failure occurred."""

    def __init__(self, commands: int):
        self.latencies: list[float] = []  # calibrated seconds
        self.cal_gap = [calibration_seconds()]  # calibration times since the last command
        self.attempted = commands
        self.failed_commands: set[int] = set()  # positions in the list
        self.passes = 0
        self.wrong = 0
        self.worst_err = 0.0  # over the outputs counted in accuracy_digits
        self.worst_floor_err = 0.0  # over the outputs with a known floor
        self.failures: dict[str, int] = {}

    @property
    def failed(self) -> int:
        return len(self.failed_commands)

    def note_failure(self, pos: int, cmd, why: str) -> None:
        self.failed_commands.add(pos)
        key = f"{cmd.label}: {why}"
        self.failures[key] = self.failures.get(key, 0) + 1


def run_command(main, pos: int, cmd, tally: Tally, inside: list[float] | None = None) -> float:
    """Run one command, check it, and return its latency in seconds.  With
    `inside`, a SIGALRM handler runs the calibration loop every CAL_EVERY_S
    while the command runs and appends the loop's times to `inside`; their
    sum is taken out of the latency."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    if inside is not None:
        signal.signal(signal.SIGALRM, _calibrate_into(inside))
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if inside is not None:
            signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        t0 = perf_counter()
        try:
            rc = main(list(cmd.argv))
        except Exception as e:  # the CLI's contract is an exit code; count and go on
            exc = e
        finally:
            dt = perf_counter() - t0
            if inside is not None:
                signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
    if inside:
        dt -= math.fsum(inside)
    if exc is not None:
        tally.note_failure(pos, cmd, f"raised {type(exc).__name__}")
        return dt
    if rc != 0:
        tally.note_failure(pos, cmd, f"exit {rc}: {err.getvalue().strip()[:120]}")
        return dt
    try:
        rel = cmd.check(out.getvalue())
    except (oracles.GateMiss, KeyError, ValueError, OSError) as e:
        tally.wrong += 1
        tally.note_failure(pos, cmd, f"wrong output: {e}")
        return dt
    if rel is not None:
        if rel > cmd.tol:
            tally.wrong += 1
            tally.note_failure(pos, cmd, f"error {rel:.3e} above {cmd.tol:.0e}")
        elif cmd.in_digits:
            tally.worst_err = max(tally.worst_err, rel)
        else:
            tally.worst_floor_err = max(tally.worst_floor_err, rel)
    return dt


def _calibrate_into(samples: list[float]):
    """A signal handler that appends one calibration time to `samples`."""
    busy = []

    def handler(_signum, _frame):
        if not busy:  # a handler slower than the timer is not re-entered
            busy.append(1)
            samples.append(calibration_seconds())
            busy.clear()
    return handler


def run_pass(main, commands, tally: Tally, sample_inside: bool = True) -> tuple[list[float], list[float]]:
    """Run the command list once.  Return each command's latency in seconds
    and in calibrated seconds.  A command is scaled by the mean calibration
    time over one sample in the gap before it (after the previous command,
    or the previous pass), the samples taken while it ran, and one sample
    after it.  Without `sample_inside` (the memory pass, and the traced run,
    whose spans must not hold calibration time) the loop instead runs after
    the command about once per CAL_EVERY_S of its latency."""
    raw, scaled = [], []
    tally.passes += 1
    for pos, cmd in enumerate(commands):
        inside = [] if sample_inside else None
        dt = run_command(main, pos, cmd, tally, inside)
        n_after = 1 if sample_inside else min(CAL_MAX, 1 + int(dt / CAL_EVERY_S))
        after = [calibration_seconds() for _ in range(n_after)]
        raw.append(dt)
        scaled.append(dt * CAL_NOMINAL_S / statistics.fmean(tally.cal_gap + (inside or []) + after))
        tally.cal_gap = after[-1:]
    tally.latencies.extend(scaled)
    return raw, scaled


def forked(fn, *args):
    """Return fn(*args) and the peak RSS in KiB of the child, forked from
    this process, that ran it.  Nothing the call does to the process's state
    outlives it."""
    rfd, wfd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        status = 1
        try:
            result = fn(*args)
            with os.fdopen(wfd, "wb") as fh:
                pickle.dump((result, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss), fh)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        fail("the child process running a pass failed")
    return pickle.loads(data)


def child_pass(main, commands, tally: Tally, tracer, sample_inside: bool = True):
    """One pass, run in a forked child: the tally after it, its latencies,
    and, when traced, the tracer's spans and per-pass records."""
    if tracer is None:
        return tally, run_pass(main, commands, tally, sample_inside), None
    tracer.begin_pass()
    try:
        latencies = run_pass(main, commands, tally, sample_inside=False)
    finally:
        tracer.end_pass()
    return tally, latencies, (tracer.spans, tracer.passes)


def list_seconds(passes: list[list[float]], stat=statistics.median) -> float:
    """Seconds for the whole command list: each command's latency across
    passes reduced by `stat`, summed.  Taken command by command, a burst of
    load from outside slows one sample of a command, not a whole pass."""
    return sum(stat(col) for col in zip(*passes))


def result_line(tally: Tally, metrics: dict, units: dict, checks_hold: bool = True) -> str:
    return json.dumps({
        "correct": tally.wrong == 0 and checks_hold,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> str:
    work = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        setup_s, commands = setup(root, work, workload, seed)
        sys.path.insert(0, str(root / "src"))
        import orthlag
        from orthlag import cli

        tally = Tally(len(commands))
        tracer = spantrace.Tracer(orthlag) if trace else None
        untraced, traced = [], []  # (raw, scaled) latencies per pass
        t_end = perf_counter() + seconds
        # The first pass is untimed and takes no calibration samples while a
        # command runs: their allocations, landing at random points of a
        # command, raised a pass's peak RSS by up to 4 MiB.  peak_rss_mb is
        # the peak RSS of the child that ran this pass.
        (tally, _, _), peak_rss_kib = forked(child_pass, cli.main, commands, tally, None, False)
        tally.latencies.clear()
        while perf_counter() < t_end or not untraced or (trace and not traced):
            traced_pass = trace and len(traced) < len(untraced)
            # the traced run times its untraced passes as it times the traced
            # ones, so that trace.overhead_frac compares like with like
            (tally, latencies, spans), _ = forked(
                child_pass, cli.main, commands, tally, tracer if traced_pass else None, not trace)
            if traced_pass:
                tracer.spans, tracer.passes = spans
                traced.append(latencies)
            else:
                untraced.append(latencies)
        raw_untraced = [r for r, _ in untraced]
        untraced = [c for _, c in untraced]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for key, count in sorted(tally.failures.items()):
        print(f"failed in {count} of {tally.passes} passes: {key}")
    print(f"{workload}: {len(commands)} commands per pass, 1 memory + {len(untraced)} untraced"
          f" + {len(traced)} traced passes, {len(tally.latencies)} latency samples,"
          f" failed {tally.failed}/{tally.attempted}; uncalibrated list seconds"
          f" {list_seconds(raw_untraced):.4f}")
    if tally.worst_floor_err:
        print(f"l:<n> fields (known floor, not in accuracy_digits): worst relative error"
              f" {tally.worst_floor_err:.3e}, {oracles.digits(tally.worst_floor_err):.4f} digits")
    if trace:
        idle = workloads.IDLE_LAYERS[workload]
        metrics = spantrace.per_layer_metrics(
            tracer, [sum(r) for r, _ in traced], list_seconds([c for _, c in traced]),
            list_seconds(untraced), idle)
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.spans.write_tsv(out_dir / f"spans-{workload}-seed{seed}.tsv")
        problems = spantrace.check_problems(metrics)
        for problem in problems:
            print(f"trace check failed: {problem}")
        return result_line(tally, metrics, spantrace.metric_units(), not problems)
    metrics = {
        "wall_s": list_seconds(untraced),
        "cmd_p50_ms": 1e3 * statistics.median(tally.latencies),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_kib / 1024.0,
        "accuracy_digits": oracles.digits(tally.worst_err),
    }
    return result_line(tally, metrics, END_TO_END)


# ---------------------------------------------------------------------------
# all workloads
# ---------------------------------------------------------------------------

def run_all(seed: int, seconds: float, trace: int) -> int:
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print()
    print(f"{'metric':32s} {'unit':7s} " + " ".join(f"{n:>12s}" for n in results))
    rows = list(next(iter(results.values()))["metrics"].items())
    for key, m in rows:
        vals = " ".join(f"{r['metrics'][key]['value']:12.6g}" for r in results.values())
        print(f"{key:32s} {m['unit']:7s} {vals}")
    fracs = " ".join(f"{r['failed'] / r['attempted']:12.6g}" for r in results.values())
    print(f"{'failed_frac':32s} {'ratio':7s} {fracs}")
    counts = " ".join(f"{r['attempted']:12d}" for r in results.values())
    print(f"{'commands_attempted':32s} {'count':7s} {counts}")
    for name, r in results.items():
        print(json.dumps({"workload": name, **r}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    root = Path.cwd()
    if not (root / "src" / "orthlag" / "__init__.py").is_file():
        fail(f"no orthlag sources under {root / 'src'}; run from the repository root")
    print(run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
