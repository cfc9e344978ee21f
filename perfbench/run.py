"""Benchmark of the sigmabrauer command line, measured from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke     # tiny run of every workload and metric
    python3 perfbench/run.py --record    # re-record expected.json at DEFAULT_SEED

Run from anywhere; the package is taken from `src/` next to this
directory.  The unit of work is one CLI job: `python -m sigmabrauer.cli
ARG...` in a fresh child process, so every job pays the interpreter
start, the imports and empty caches, as a user does.  Jobs run one at a
time from this process (a closed loop with one client).  Wall time is
taken around spawn and reap, CPU time and peak RSS from `os.wait4`.

A run first writes the workload's generated inputs, then times
SETUP_REPS children that only import `sigmabrauer.cli` (`setup_s` is
their median), then runs the job list in whole cycles for `--seconds`.
Every job's output goes through the gate in `jobs.verdict`.

End-to-end times are scaled to a fixed host speed (see `Pace`): on a
shared host the raw time of the same job moves by up to 70 % from one
second to the next and a run's raw totals by 20-30 % from one run to
the next, while the scaled totals move by a few per cent.

With `--trace 0` the last stdout line holds the end-to-end metrics.
With `--trace 1` each job runs once plain and once under
`traced_cli.py`, and the last line holds the per-layer metrics; the
lines before it show where the time goes, layer by layer.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import jobs as jobslib
from traced_cli import CACHED, COUNTED, KERNEL, LAYERS, SPANNED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 15
# the calibration child's wall time at the host speed that end-to-end
# times are scaled to: about its time in the faster of a shared 2-core
# x86 host's two speeds, with Python 3.11
CALIBRATION_S = 0.06
# a run must end within 180 s; stop and fail rather than overrun
WATCHDOG_S = 170

clock = time.perf_counter

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "job_p50_s": "s",
    "job_max_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPANNED:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    for name in COUNTED:
        units[f"{name}.calls"] = "count"
    for attr in ("rows", "cols", "nnz", "rank"):
        units[f"{KERNEL}.{attr}"] = "count"
    units[f"{KERNEL}.rank_per_row"] = "ratio"
    for name in CACHED:
        units[f"{name}.hit_ratio"] = "ratio"
    units["cli.import_s"] = "s"
    for layer in LAYERS:
        units[f"layer.{layer}.self_s"] = "s"
        units[f"layer.{layer}.share"] = "ratio"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.unattributed_s"] = "s"
    return units


class Child:
    """Spawns CLI children with the package on the path and reaps each
    one before the next starts."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.stdout = tmp / "stdout"
        self.stderr = tmp / "stderr"

    def run(self, args: list[str]):
        """Run `python ARG...`; return (wall, cpu, rss_mb, code, stdout, stderr)."""
        cmd = [sys.executable, *args]
        with open(self.stdout, "wb") as out, open(self.stderr, "wb") as err:
            actions = [
                (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
            ]
            start = clock()
            pid = os.posix_spawn(cmd[0], cmd, self.env, file_actions=actions)
            try:
                _, status, usage = os.wait4(pid, 0)
            except BaseException:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                raise
            wall = clock() - start
        return (
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024,
            os.waitstatus_to_exitcode(status),
            self.stdout.read_text(),
            self.stderr.read_text(),
        )

    def cli(self, argv: list[str]):
        return self.run(["-m", "sigmabrauer.cli", *argv])

    def setup_s(self, pace: Pace) -> float:
        """Median scaled wall time of a child that only imports the CLI."""
        self.run(["-c", "import sigmabrauer.cli"])  # writes bytecode caches
        pace.scale()
        return statistics.median(
            self.run(["-c", "import sigmabrauer.cli"])[0] * pace.scale() for _ in range(SETUP_REPS)
        )


class Pace:
    """The host speed each child ran at, as a factor for its times.

    A shared host runs a core at two speeds about 1.7x apart, switches
    between them every second or so, and its fast speed drifts by 10-20 %
    over minutes.  A calibration child (`calibrate.py`, stdlib only) is
    timed right before and right after each child; the child's times are
    scaled by CALIBRATION_S over the mean of the two, so they read as
    seconds at the speed where the calibration takes CALIBRATION_S.  A
    child, rather than a loop in this process, because its start-up and
    imports slow down with the host as a CLI job's do; a loop in this
    process slows down more than the jobs."""

    def __init__(self, child: Child):
        self.child = child
        self.before = self.read()

    def read(self) -> float:
        return self.child.run(["-I", str(HERE / "calibrate.py")])[0]

    def scale(self) -> float:
        """The factor for the child that ran since the last reading."""
        after = self.read()
        factor = 2 * CALIBRATION_S / (self.before + after)
        self.before = after
        return factor


class Gate:
    """Counts attempted and failed jobs; prints each failure on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.seen = {}

    def check(self, job, code, stdout, stderr) -> None:
        self.attempted += 1
        reason = jobslib.verdict(job, code, stdout, stderr, self.seen)
        if reason is not None:
            self.failed += 1
            print(f"FAIL {job.name}: {reason}", file=sys.stderr)


def cycles(seconds: float):
    """Yield cycle numbers while another whole cycle, at the mean cycle
    time so far, still ends within `seconds`; always at least one."""
    start = clock()
    n = 0
    while True:
        yield n
        n += 1
        elapsed = clock() - start
        if elapsed + elapsed / n > seconds:
            return


def measure(child: Child, jobs, seconds: float, gate: Gate) -> dict:
    """The end-to-end metrics of the job list, run in whole cycles.

    A job's wall and CPU time is the mean of its scaled samples in the
    run (see `Pace`); with a handful of samples per job, the mean spreads
    less from run to run than the median."""
    start = clock()
    pace = Pace(child)
    setup_s = child.setup_s(pace)
    samples = [[] for _ in jobs]  # per job: [(wall, cpu, rss, raw wall)]
    for _ in cycles(seconds - (clock() - start)):
        for job, runs in zip(jobs, samples):
            wall, cpu, rss, code, out, err = child.cli(job.argv)
            factor = pace.scale()
            gate.check(job, code, out, err)
            runs.append((wall * factor, cpu * factor, rss, wall))
    walls = [statistics.fmean(x[0] for x in runs) for runs in samples]
    cpus = [statistics.fmean(x[1] for x in runs) for runs in samples]
    rss = [max(x[2] for x in runs) for runs in samples]
    for i, job in enumerate(jobs):
        raw = [x[3] for x in samples[i]]
        print(
            f"  {walls[i]:8.3f} s wall  {cpus[i]:8.3f} s cpu  {rss[i]:7.1f} MB"
            f"  (raw wall {min(raw):.3f}-{max(raw):.3f} s)  n={len(raw)}  {job.name}"
        )
    return {
        "wall_s": sum(walls),
        "cpu_s": sum(cpus),
        "job_p50_s": statistics.median(walls),
        "job_max_s": max(walls),
        "peak_rss_mb": max(rss),
        "setup_s": setup_s,
    }


def layer_totals(doc: dict) -> dict[str, float]:
    """Per-layer sums of one traced job: self time and calls of each
    spanned name, kernel shapes, cache counters and the attributed time."""
    names = doc["names"]
    spans = doc["spans"]
    child_s = [0.0] * len(spans)
    for index, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out = defaultdict(float)
    top_s = doc["import_s"]
    for k, (index, start, end, parent) in enumerate(spans):
        out[f"{names[index]}.self_s"] += end - start - child_s[k]
        out[f"{names[index]}.calls"] += 1
        if parent < 0:
            top_s += end - start
    for name, calls in doc["counts"].items():
        out[f"{name}.calls"] += calls
    for attrs in doc["attrs"].values():
        for attr, value in attrs.items():
            out[f"{KERNEL}.{attr}"] += value
    for name, (hits, misses) in doc["caches"].items():
        out[f"{name}.hits"] += hits
        out[f"{name}.misses"] += misses
    out["cli.import_s"] = doc["import_s"]
    out["attributed_s"] = top_s
    return out


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def trace(child: Child, jobs, seconds: float, gate: Gate) -> dict:
    """The per-layer metrics: each job runs plain, then traced.  Each
    metric is its median over the cycles."""
    plain = [[] for _ in jobs]  # per job: walls
    traced = [[] for _ in jobs]
    per_cycle = []
    spans_file = child.tmp / "spans.json"
    for cycle in cycles(seconds):
        totals = defaultdict(float)
        for i, job in enumerate(jobs):
            wall, _, _, code, out, err = child.cli(job.argv)
            gate.check(job, code, out, err)
            plain[i].append(wall)
            args = [str(HERE / "traced_cli.py"), str(spans_file), f"{cycle}.{i}", *job.argv]
            wall, _, _, code, out, err = child.run(args)
            gate.check(job, code, out, err)
            traced[i].append(wall)
            with open(spans_file) as fh:
                job_totals = layer_totals(json.load(fh))
            job_totals["trace.unattributed_s"] = wall - job_totals.pop("attributed_s")
            job_totals["trace.wall_s"] = wall
            for key, value in job_totals.items():
                totals[key] += value
        per_cycle.append(totals)

    metrics = {
        name: statistics.median(derived(totals, name) for totals in per_cycle)
        for name in per_layer_units()
        if name != "trace.overhead_s"
    }
    metrics["trace.overhead_s"] = sum(map(statistics.median, traced)) - sum(
        map(statistics.median, plain)
    )
    return metrics


def derived(totals: dict, name: str) -> float:
    """A per-layer metric of one cycle from its summed totals."""
    if name.endswith(".hit_ratio"):
        base = name[: -len(".hit_ratio")]
        hits = totals[f"{base}.hits"]
        return ratio(hits, hits + totals[f"{base}.misses"])
    if name == f"{KERNEL}.rank_per_row":
        return ratio(totals[f"{KERNEL}.rank"], totals[f"{KERNEL}.rows"])
    if name.startswith("layer."):
        layer, what = name.split(".")[1:]
        self_s = sum(totals[f"{s}.self_s"] for s in SPANNED if s.split(".")[0] == layer)
        return self_s if what == "self_s" else ratio(self_s, totals["trace.wall_s"])
    return totals[name]


def report_layers(metrics: dict) -> None:
    wall = metrics["trace.wall_s"]
    print(f"where the traced wall time ({wall:.3f} s) goes:")
    rows = [(f"layer {layer}", metrics[f"layer.{layer}.self_s"]) for layer in LAYERS]
    rows.append(("import sigmabrauer.cli", metrics["cli.import_s"]))
    rows.append(("unattributed (start-up, tracer)", metrics["trace.unattributed_s"]))
    for label, value in rows:
        print(f"  {label:34s} {value:9.3f} s  {100 * ratio(value, wall):5.1f} %")
    top = sorted(SPANNED, key=lambda s: -metrics[f"{s}.self_s"])[:8]
    print("largest self times:")
    for name in top:
        print(
            f"  {name:34s} {metrics[name + '.self_s']:9.3f} s"
            f"  {metrics[name + '.calls']:8.0f} calls"
        )


def run(workload: str, seed: int, seconds: float, traced: bool, expected=None, only=None) -> dict:
    """One benchmark run; returns the result document.  `expected`
    replaces the recorded outputs and `only` keeps the jobs whose
    templates it holds (both for the smoke test)."""
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_tmp"))
    try:
        if expected is None:
            expected = jobslib.load_expected()
        docs = jobslib.write_compose_docs(seed, tmp) if workload == "quick" else []
        jobs = jobslib.build_jobs(workload, seed, docs, expected)
        jobs = [job for job in jobs if only is None or job.key in only]
        child = Child(tmp)
        gate = Gate()
        print(f"workload {workload}, seed {seed}, {len(jobs)} jobs, {seconds} s")
        if traced:
            metrics = trace(child, jobs, seconds, gate)
            report_layers(metrics)
            units = per_layer_units()
        else:
            metrics = measure(child, jobs, seconds, gate)
            units = END_TO_END
            for name, unit in units.items():
                print(f"  {name:12s} {metrics[name]:10.4f} {unit}  (jobs attempted: {gate.attempted})")
        print(f"jobs: {gate.attempted} attempted, {gate.failed} failed")
        return {
            "correct": gate.failed == 0,
            "attempted": gate.attempted,
            "failed": gate.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _timeout(signum, frame):
    raise TimeoutError(f"the run exceeded {WATCHDOG_S} s")


def _terminate(signum, frame):
    # unwinds through Child.run, which kills and reaps the running child
    raise SystemExit(128 + signum)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(jobslib.TEMPLATES))
    p.add_argument("--seed", type=int, default=jobslib.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true")
    mode.add_argument("--record", action="store_true")
    args = p.parse_args()
    if not (SRC / "sigmabrauer" / "cli.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    # the inputs are generated, and the record cross-checked, with the package
    sys.path.insert(0, str(SRC))
    if args.smoke:
        import selfcheck

        return selfcheck.smoke(run)
    if args.record:
        import selfcheck

        return selfcheck.record(Child)
    if args.workload is None:
        p.error("--workload is required")
    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(WATCHDOG_S)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except TimeoutError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    signal.alarm(0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
