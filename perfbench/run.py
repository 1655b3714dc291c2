"""levyfock benchmark: times the real CLI on seeded workloads and gates its output.

Run from the root of a levyfock checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every timed invocation is a fresh ``python -m levyfock.cli COMMAND --config
CFG --out FILE`` child, run one at a time.  Before timing, each run proves
its gate can fail (a fault-injected twin of a verify-moments workload must
exit 1 with ``status fail``) and smoke-tests the two table-level commands
against closed forms.

``--trace 0`` reports the end-to-end metrics: median wall time, CPU time
and peak RSS of the CLI children, and the median wall time of a set-up
probe (``probe.py``), run twice after each timed child.  ``--trace 1``
spends half its time on untraced children and half on traced ones
(``tracer.py``), and reports the per-layer metrics plus the tracing
overhead.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it gives each
timing's quartiles and sample count, the failure share and the recorded
environment.  Exit codes: 0 measured, 2 not run from a levyfock checkout,
3 the gate is dead (a fault-injected twin passed), 4 the measurement is
invalid (see below).

Peak RSS comes from each child's own rusage (``os.wait4``).  On Linux a
child's ``ru_maxrss`` also covers the high-water RSS of the process that
spawned it, so this process stays small -- standard library only, numpy
is never imported here -- and a run whose own peak reaches a child's is
refused rather than reported.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
from workloads import SMOKE, WORKLOADS, check_smoke, check_twin, twin

# BLAS and OpenMP pools are pinned to one thread (never more than nproc),
# the same on every commit, so a run measures the program and not the pool.
THREADS = "1"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
PROBES_PER_CHILD = 2
MIN_SAMPLES = 3
MIN_PROBES = 16
CHILD_TIMEOUT_S = 60


@dataclass
class Sample:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


class Runner:
    """Spawns children one at a time inside a scratch directory and counts the gate."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.env.update({var: THREADS for var in THREAD_VARS})
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def write(self, name: str, text: str) -> Path:
        path = self.work / name
        path.write_text(text, encoding="utf-8")
        return path

    def spawn(self, argv: list[str]) -> tuple[Sample, str]:
        """Run ``python argv`` to completion; return its usage and its stdout + stderr."""
        log = self.work / "child.log"
        with open(log, "wb") as handle:
            previous = signal.getsignal(signal.SIGALRM)
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv],
                cwd=self.root,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=handle,
                stderr=subprocess.STDOUT,
            )
            signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.alarm(CHILD_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        sample = Sample(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
        return sample, log.read_text(encoding="utf-8", errors="replace")

    def cli(self, command: str, config: Path, launcher=("-m", "levyfock.cli")) -> tuple[Sample, str]:
        """One CLI invocation; returns its usage and its report text."""
        out = self.work / "report.txt"
        out.unlink(missing_ok=True)
        sample, _log = self.spawn([*launcher, command, "--config", str(config), "--out", str(out)])
        text = out.read_text(encoding="utf-8") if out.exists() else ""
        return sample, text

    def judge(self, what: str, problems: list[str]) -> None:
        """Count one gated invocation; it failed if the gate found any problem."""
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += [f"{what}: {p}" for p in problems]


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def loop(run_once, seconds: float, minimum: int = MIN_SAMPLES) -> list:
    """Call ``run_once`` until ``seconds`` have passed, at least ``minimum`` times."""
    results = []
    start = time.perf_counter()
    while len(results) < minimum or time.perf_counter() - start < seconds:
        results.append(run_once())
    return results


def controls(runner: Runner, workload, inputs) -> list[str]:
    """Negative control and smoke; returns the twin's problems if the gate is dead.

    The twin must fail twice over: by the program's own verdict, and by the
    harness's independent moment check, so neither can go dead unseen.
    """
    if workload.has_twin:
        faulty = twin(inputs)
        sample, text = runner.cli(workload.command, runner.write("twin.cfg", faulty.config_text()))
        problems = check_twin(faulty, sample.code, text)
        if problems:
            return problems
        runner.judge("twin", problems)
    smoke = runner.write("smoke.cfg", SMOKE.config_text())
    for command in ("recurrence", "classify"):
        sample, text = runner.cli(command, smoke)
        runner.judge(command, check_smoke(command, sample.code, text))
    return []


def per_layer(runs: list, untraced: list[Sample]) -> dict:
    """Median of each traced metric, plus the traced minus the untraced median wall time.

    A metric some traced run could not measure is left out; that run has
    already failed the gate.
    """
    metrics = {}
    for name in tracer.METRICS:
        values = [record["metrics"].get(name) for _, record in runs]
        if None not in values:
            metrics[name] = {"value": statistics.median(values), "unit": tracer.unit(name)}
    overhead = statistics.median(s.wall_s for s, _ in runs) - statistics.median(
        s.wall_s for s in untraced
    )
    metrics["trace.overhead_s"] = {"value": overhead, "unit": tracer.unit("trace.overhead_s")}
    return metrics


def measure(args, root: Path, work: Path) -> int:
    workload = WORKLOADS[args.workload]
    inputs = workload.generate(args.seed)
    runner = Runner(root, work)
    config = runner.write("main.cfg", inputs.config_text())
    probe = [str(Path(__file__).with_name("probe.py")), str(config)]

    # Warm-up: fills the bytecode caches and shows which levyfock runs.
    sample, out = runner.spawn(probe)
    try:
        found = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        found = {}
    if sample.code != 0 or not Path(found.get("levyfock", "/")).is_relative_to(root / "src"):
        print(f"error: set-up probe failed or imported levyfock from elsewhere:\n{out}", file=sys.stderr)
        return 2
    dead = controls(runner, workload, inputs)
    if dead:
        print(f"error: dead gate, the fault-injected twin did not fail: {dead}", file=sys.stderr)
        return 3

    def untraced() -> Sample:
        sample, text = runner.cli(workload.command, config)
        runner.judge(f"run{runner.attempted}", workload.check(inputs, sample.code, text))
        return sample

    trace_out = work / "trace.json"
    launcher = (str(Path(__file__).with_name("tracer.py")), str(trace_out))
    counts_seen: list[dict] = []

    def traced() -> tuple[Sample, dict]:
        trace_out.unlink(missing_ok=True)
        sample, text = runner.cli(workload.command, config, launcher)
        problems = workload.check(inputs, sample.code, text)
        try:
            record = json.loads(trace_out.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            record = {"metrics": {}}
            problems.append("no trace record")
        missing = [name for name in tracer.METRICS if name not in record["metrics"]]
        if missing:
            problems.append(f"not measured: {missing}; entry points not found: {record.get('unwrapped')}")
        # Counts repeat exactly; the RSS high-water mark is not a count.
        counts_seen.append({n: record["metrics"].get(n) for n in tracer.COUNTS if not n.endswith("_mb")})
        if counts_seen[-1] != counts_seen[0]:
            problems.append(f"counts {counts_seen[-1]} differ from the first traced run's")
        runner.judge(f"traced{runner.attempted}", problems)
        return sample, record

    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": found["numpy"],
        "nproc": os.cpu_count(),
        "threads": {var: THREADS for var in THREAD_VARS},
        "levyfock": found["levyfock"],
    }
    if not args.trace:
        setup: list[float] = []

        def untraced_then_probes() -> Sample:
            # Probes follow every timed child, so setup_s sees the same host
            # drift over the run as wall_s does.
            sample = untraced()
            setup.extend(runner.spawn(probe)[0].wall_s for _ in range(PROBES_PER_CHILD))
            return sample

        samples = loop(untraced_then_probes, args.seconds, MIN_PROBES // PROBES_PER_CHILD)
        timings = {
            "wall_s": [s.wall_s for s in samples],
            "cpu_s": [s.cpu_s for s in samples],
            "peak_rss_mb": [s.peak_rss_mb for s in samples],
            "setup_s": setup,
        }
        metrics = {
            name: {"value": statistics.median(values), "unit": tracer.unit(name)}
            for name, values in timings.items()
        }
    else:
        samples = loop(untraced, args.seconds / 2)
        runs = loop(traced, args.seconds / 2)
        timings = {"wall_s": [s.wall_s for s in samples], "traced_wall_s": [s.wall_s for s, _ in runs]}
        metrics = per_layer(runs, samples)
        self_times = {n: m["value"] for n, m in metrics.items() if n.endswith(".self_s")}
        detail["dominant_self"] = max(self_times, key=self_times.get)
        detail["unwrapped"] = runs[0][1].get("unwrapped", [])
        trace_file = work.parent / f"trace-{workload.name}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"detail": detail, **runs[0][1]}), encoding="utf-8")

    own_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if own_peak >= min(s.peak_rss_mb for s in samples):
        print(
            f"error: harness peak RSS {own_peak:.1f} MB reaches a child's; "
            "its peak_rss_mb would include the harness",
            file=sys.stderr,
        )
        return 4

    detail["fail_share"] = runner.failed / runner.attempted
    detail["timings"] = {name: summary(values) for name, values in timings.items()}
    detail["problems"] = runner.problems[:20]
    print(json.dumps(detail))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "levyfock" / "cli.py").is_file():
        print("error: no levyfock sources under ./src; run from a levyfock checkout", file=sys.stderr)
        return 2
    keep = root / ".perfbench"  # traces are kept here, scratch files removed
    keep.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=keep))
    try:
        return measure(args, root, work)
    finally:
        shutil.rmtree(work)


if __name__ == "__main__":
    sys.exit(main())
