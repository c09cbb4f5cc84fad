"""homlab benchmark: seeded lists of ``homlab`` CLI jobs, one cold process each.

    python3 bench/run.py --workload grids --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload grids --seed 0 --list

Every job is a fresh ``python -m homlab.cli`` process importing homlab from
this checkout's ``src/``, run one at a time (a closed loop with one client)
with HOMLAB_THREADS=1.  A fresh process per job matters: the unbounded
amplitude cache makes a repeat inside one process an order of magnitude
faster, which no user running the CLI sees.

--trace 0 cycles through the job list until --seconds have passed and
reports the end-to-end metrics (see BENCHMARK.json).  --trace 1 alternates
untraced passes with passes run under tracer.py and reports the per-layer
metrics, including the tracing overhead.  Every job output is checked by
oracles.py; the last line of stdout is the JSON result.  A full record
(metadata, every sample) goes to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import jobs as workloads
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: cold `--version` starts (setup_s) and cold references per run, one of
#: each before the jobs and after every SAMPLE_EVERY_S of jobs, and more
#: after the jobs up to SETUP_SAMPLES
SETUP_SAMPLES = 8
SAMPLE_EVERY_S = 3.0
#: a job slower than this is killed and counted as failed
JOB_TIMEOUT_S = 60.0
#: no job starts later than this into a run, and every job is killed by
#: RUN_DEADLINE_S, so a run ends within 180 s
RUN_LIMIT_S = 110.0
RUN_DEADLINE_S = 170.0
#: the cold start that setup_s times
SETUP = ["-m", "homlab.cli", "--version"]
#: a cold interpreter importing numpy and doing exact arithmetic, like a
#: job, but sharing no code with homlab: a gauge of the host's current speed
REFERENCE = ["-c", """import numpy
from fractions import Fraction
x = Fraction(0)
for i in range(1, 4000):
    x += Fraction(i % 7, i)
"""]
#: the reference's typical time on the 2-vCPU VM the benchmark was tuned on
REFERENCE_NOMINAL_S = 0.25
WORKLOADS = ("grids", "lossy-io", "exact-search")
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Sample:
    job: str
    wall_s: float
    rss_mb: float
    ok: bool
    error: str
    bytes_out: int
    trace: dict | None = None


class Runner:
    """Runs jobs as child processes in a private work directory."""

    def __init__(self, workdir: Path, workload: str, seed: int):
        self.workdir = workdir
        self.workload = workload
        self.seed = seed
        self.env = dict(os.environ, PYTHONPATH=str(SRC), HOMLAB_THREADS="1")
        self.started = time.perf_counter()
        self.verified: dict[str, str] = {}  # job name -> digest of checked output

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def spawn(self, argv: list[str], stdout, stderr):
        """Run argv to completion; return (wall seconds, exit code, rusage)."""
        timeout = max(1.0, min(JOB_TIMEOUT_S, RUN_DEADLINE_S - self.elapsed()))
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                stdout=stdout, stderr=stderr)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage

    def timed(self, args: list[str]) -> float:
        """Wall time of a short interpreter run that must succeed."""
        wall, code, _ = self.spawn([sys.executable, *args],
                                   subprocess.DEVNULL, subprocess.DEVNULL)
        if code != 0:
            raise SystemExit(f"bench: `python {' '.join(args)[:40]}` exited {code}")
        return wall

    def run(self, job: workloads.Job, traced: bool = False) -> Sample:
        """Run one job.  Its first output is checked by the job's oracle;
        every later output must be byte-identical to that one."""
        out = self.workdir / "job.out"
        trace_path = self.workdir / "trace.json"
        for path in (out, trace_path):
            path.unlink(missing_ok=True)
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(trace_path), "--"]
        else:
            argv = [sys.executable, "-m", "homlab.cli"]
        argv += [*job.argv, "-o", str(out)]
        stdout_path, stderr_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(stdout_path, "wb") as so, open(stderr_path, "wb") as se:
            wall, code, usage = self.spawn(argv, so, se)
        error = ""
        if code != 0:
            tail = stderr_path.read_text(errors="replace").strip().splitlines()
            error = f"exit {code}: {tail[-1] if tail else ''}"
        else:
            error = self.verify(job, out)
        bytes_out = stdout_path.stat().st_size + (out.stat().st_size if out.exists() else 0)
        trace = json.loads(trace_path.read_text()) if traced and trace_path.exists() else None
        return Sample(job.name, wall, usage.ru_maxrss / 1024.0, not error, error,
                      bytes_out, trace)

    def verify(self, job: workloads.Job, out: Path) -> str:
        """Empty if the output is good, else the reason.  The oracle runs in
        its own process: parsing a large grid here would raise this
        process's peak RSS, which every later child inherits as its own
        ``ru_maxrss`` floor."""
        try:
            digest = _sha256(out)
        except OSError as exc:
            return f"{type(exc).__name__}: {exc}"
        if job.name in self.verified:
            if digest != self.verified[job.name]:
                return "output differs from this job's first, verified output"
            return ""
        proc = subprocess.run([sys.executable, str(BENCH / "jobs.py"), self.workload,
                               str(self.seed), job.name, str(out)],
                              capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
        if proc.returncode != 0:
            return proc.stdout.strip() or f"checker exited {proc.returncode}: {proc.stderr[-300:]}"
        self.verified[job.name] = digest
        return ""


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def measure_e2e(runner: Runner, workload, seconds: float) -> dict:
    """Cycle through the jobs while the next one, judged by its previous
    time, fits in ``seconds``, after at least one full pass.  A cold
    `--version` and a cold reference run before the jobs, after every
    SAMPLE_EVERY_S of jobs and after the jobs."""
    setup: list[float] = []
    reference: list[float] = []

    def sample_host():
        setup.append(runner.timed(SETUP))
        reference.append(runner.timed(REFERENCE))

    sample_host()
    samples: list[Sample] = []
    last_sample = start = runner.elapsed()
    n = len(workload.jobs)
    while len(samples) < n or (runner.elapsed() - start + samples[-n].wall_s <= seconds
                                and runner.elapsed() < RUN_LIMIT_S):
        samples.append(runner.run(workload.jobs[len(samples) % n]))
        if runner.elapsed() - last_sample >= SAMPLE_EVERY_S:
            sample_host()
            last_sample = runner.elapsed()
    while len(setup) < SETUP_SAMPLES:
        sample_host()
    by_job = {job.name: [s for s in samples if s.job == job.name] for job in workload.jobs}
    passes = [sum(s.wall_s for s in samples[i:i + n])
              for i in range(0, len(samples) - n + 1, n)]
    # mean pass time: the sum of per-job means, so every sample counts, the
    # last partial pass too; with 2-7 samples per job a mean spreads less
    # than a median across runs
    raw_wall = sum(statistics.fmean(s.wall_s for s in runs) for runs in by_job.values())
    # interpreter starts speed up and slow down by 20-30 % between periods,
    # not in step with the jobs' own work: each cold start is scaled by the
    # reference timed right after it, and every job's start, taken as the
    # run's median raw `--version` time, is replaced by that corrected value
    setup_s = REFERENCE_NOMINAL_S * statistics.median(
        cold / ref for cold, ref in zip(setup, reference))
    metrics = {
        "wall_s": raw_wall + n * (setup_s - statistics.median(setup)),
        "setup_s": setup_s,
        "peak_rss_mb": max(statistics.median(s.rss_mb for s in runs)
                           for runs in by_job.values()),
    }
    return {"metrics": metrics, "samples": samples, "passes": passes, "setup": setup,
            "reference": reference, "raw_wall_s": raw_wall}


def measure_trace(runner: Runner, workload, seconds: float) -> dict:
    """Passes that run each job untraced and traced back to back (the order
    alternating between passes), at least one pass and more while the next
    is expected to fit in ``seconds``."""
    samples: list[Sample] = []
    plain, traced, per_pass, layer_self = [], [], [], []
    start = runner.elapsed()
    while not plain or (runner.elapsed() - start + plain[-1] + traced[-1] <= seconds
                        and runner.elapsed() < RUN_LIMIT_S):
        order = (True, False) if len(plain) % 2 else (False, True)
        batch = [runner.run(job, traced=t) for job in workload.jobs for t in order]
        samples += batch
        traced_batch = [s for s in batch if s.trace is not None]
        plain.append(sum(s.wall_s for s in batch if s.trace is None))
        traced.append(sum(s.wall_s for s in traced_batch))
        values, layers = tracer.summarize([s.trace for s in traced_batch], workload.targets)
        values["cli.bytes_out"] = sum(s.bytes_out for s in traced_batch)
        per_pass.append(values)
        layer_self.append(layers)
    metrics = {name: statistics.median(p[name] for p in per_pass) for name, _ in tracer.METRICS}
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    layers = {k: statistics.median(p[k] for p in layer_self) for k in tracer.LAYERS}
    missing = sorted({m for s in samples if s.trace for m in s.trace["missing"]})
    return {"metrics": metrics, "samples": samples, "passes": plain, "traced_passes": traced,
            "layer_self": layers, "missing": missing}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def metadata(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "cpu_count": os.cpu_count(), "seed": seed}


def print_report(workload, result: dict, probes: list[Sample], units: dict) -> None:
    samples = result["samples"]
    print(f"{'job':30s} {'runs':>4s} {'median_s':>9s} {'rss_mb':>7s}  status")
    for job in workload.jobs:
        runs = [s for s in samples if s.job == job.name and s.trace is None]
        bad = [s for s in runs if not s.ok]
        status = "ok" if not bad else f"FAILED {len(bad)}x: {bad[0].error}"
        print(f"{job.name:30s} {len(runs):4d} {statistics.median(s.wall_s for s in runs):9.3f} "
              f"{max(s.rss_mb for s in runs):7.1f}  {status}")
    for probe in probes:
        status = "now passes" if probe.ok else f"still fails: {probe.error}"
        print(f"known-defect probe {probe.job}: {status}")
    failed = sum(not s.ok for s in samples)
    passes = result["passes"]
    print(f"passes: {len(passes)} untraced, totals {[round(p, 3) for p in passes]} s; "
          f"no percentile of pass time has >=10 samples beyond it (n={len(passes)})")
    if "reference" in result:
        print(f"raw wall_s {result['raw_wall_s']:.4f} s (sum of per-job means), raw setup_s "
              f"{statistics.median(result['setup']):.4f} s; reference median "
              f"{statistics.median(result['reference']):.4f} s over "
              f"{len(result['reference'])} samples, nominal {REFERENCE_NOMINAL_S} s")
    print(f"failed_frac {failed}/{len(samples)} = {failed / len(samples):.4g} "
          f"(jobs failed / jobs attempted)")
    if "layer_self" in result:
        total = result["metrics"]["trace.inprocess_s"] or 1.0
        shares = ", ".join(f"{k} {v / total:.1%}" for k, v in result["layer_self"].items())
        print(f"in-process self time by layer: {shares}")
        if result["missing"]:
            print(f"tracer could not wrap: {', '.join(result['missing'])}")
    for name, value in result["metrics"].items():
        print(f"{name:28s} {value:14.6g} {units[name]}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = workloads.build(name, seed)
    meta = metadata(seed)
    print(f"workload {name}, seed {seed}, trace {int(trace)}, {seconds:g} s: {json.dumps(meta)}")
    workdir = WORK / f"run-{os.getpid()}-{name}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workdir, name, seed)
        runner.timed(SETUP)  # compiles bytecode, warms the page cache
        measure = measure_trace if trace else measure_e2e
        result = measure(runner, workload, seconds)
        probes = [runner.run(job) for job in workload.probes]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = dict(tracer.METRICS) if trace else E2E_UNITS
    print_report(workload, result, probes, units)
    samples = result["samples"]
    failed = sum(not s.ok for s in samples)
    summary = {"correct": failed == 0, "attempted": len(samples), "failed": failed,
               "metrics": {k: {"value": v, "unit": units[k]}
                           for k, v in result["metrics"].items()}}
    record = dict(summary, workload=name, meta=meta, seconds=seconds, trace=int(trace),
                  passes=result["passes"], setup=result.get("setup"),
                  reference=result.get("reference"), raw_wall_s=result.get("raw_wall_s"),
                  probes=[vars(p) for p in probes],
                  samples=[{k: v for k, v in vars(s).items() if k != "trace"}
                           for s in samples])
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.BUILDERS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true", help="print the job lists and exit")
    args = parser.parse_args()
    # on SIGTERM, unwind so the running job is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.list:
        for name in names:
            workload = workloads.build(name, args.seed)
            for job in workload.jobs + workload.probes:
                kind = "probe" if job in workload.probes else "job"
                print(f"{name}\t{kind}\t{job.name}\thomlab {' '.join(job.argv)}")
        return 0
    if not (SRC / "homlab" / "cli.py").is_file():
        print(f"bench: no homlab sources under {SRC}", file=sys.stderr)
        return 2
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
