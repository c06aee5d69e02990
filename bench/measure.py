"""Closed-loop timing of CLI jobs: one client, one fresh process per job.

Each job is `python -m qdw.cli <argv>` started from the checkout root,
timed from spawn to exit, with its peak RSS and CPU time read from
`wait4`.  Import-only spawns (`python -c "import qdw.cli"`) are
interleaved between jobs; their median is `setup_s`.

The host this runs on is shared, and its speed drifts by half or more
within minutes; a process's CPU time drifts with it.  So a calibration
spawn, a fixed piece of interpreter start, numpy import and arithmetic
that uses no qdw code, runs before every CALIBRATE_EVERY-th job and
after the last.  Every time in a round is multiplied by
(CALIBRATION_REF_S / mean calibration time) ** CALIBRATION_ELASTICITY,
which estimates the seconds the round would have taken on a host where
the calibration takes CALIBRATION_REF_S.  The jobs follow the host's
speed less closely than the calibration does: over 27 runs in five sets,
taken with the calibration between 0.9 and 1.5 times CALIBRATION_REF_S,
the slope of log job time on log calibration time was 0.61 to 0.98 per
set and 0.75 pooled, hence the exponent.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

import oracles
from workloads import Job

JOB_TIMEOUT_S = 150.0
PROBES_PER_ROUND = 8
TAIL_BEYOND = 10        # job_tail_s: highest percentile with this many jobs beyond it

# Reference host speed: the calibration's time on a 2 vCPU Xeon in a quiet phase.
CALIBRATION_REF_S = 0.25
CALIBRATION_ELASTICITY = 0.75
CALIBRATE_EVERY = 2
CALIBRATION = """
import numpy as np
d = {}
s = 0
for i in range(100000):
    d[i % 1009] = d.get(i % 1009, 0) + i
    s += i * i % 7
a = np.arange(4096, dtype=np.int64).reshape(64, 64)
for _ in range(100):
    a = (a @ a) % 1009
"""


@dataclass
class Spawn:
    wall_s: float
    exit_code: int
    stdout: str
    stderr: str
    maxrss_kb: int
    cpu_s: float


@dataclass
class JobRun:
    spawn: Spawn
    failure: Optional[str]


@dataclass
class Round:
    jobs: list[JobRun] = field(default_factory=list)
    probes_s: list[float] = field(default_factory=list)
    calibrations_s: list[float] = field(default_factory=list)
    duration_s: float = 0.0

    @property
    def job_wall_s(self) -> float:
        return sum(r.spawn.wall_s for r in self.jobs)

    @property
    def speed(self) -> float:
        """Factor that takes this round's times to the reference host speed."""
        if not self.calibrations_s:
            return 1.0
        ratio = CALIBRATION_REF_S / statistics.mean(self.calibrations_s)
        return ratio ** CALIBRATION_ELASTICITY


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


def spawn(args: list[str], cwd: str, env: dict) -> Spawn:
    """Run one child to completion; kill it if it outlives JOB_TIMEOUT_S."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    return Spawn(wall_s=wall, exit_code=proc.returncode,
                 stdout=out.decode("utf-8", "replace"),
                 stderr=b"".join(err).decode("utf-8", "replace"),
                 maxrss_kb=usage.ru_maxrss, cpu_s=usage.ru_utime + usage.ru_stime)


def import_probe(root: str, env: dict) -> float:
    s = spawn(["-c", "import qdw.cli"], root, env)
    if s.exit_code != 0:
        raise RuntimeError(f"import qdw.cli failed: {s.stderr.strip()[-300:]}")
    return s.wall_s


def calibrate(root: str, env: dict) -> float:
    s = spawn(["-c", CALIBRATION], root, env)
    if s.exit_code != 0:
        raise RuntimeError(f"calibration failed: {s.stderr.strip()[-300:]}")
    return s.wall_s


def run_job(job: Job, expected: dict, root: str, env: dict) -> JobRun:
    s = spawn(["-m", "qdw.cli", *job.argv], root, env)
    return JobRun(s, oracles.check(job, expected, s.exit_code, s.stdout))


def run_round(jobs: list[Job], expected: list[dict], root: str, env: dict,
              calibrated: bool = True) -> Round:
    """All jobs once, in order, with PROBES_PER_ROUND import spawns spread
    between them and, if `calibrated`, a calibration before every
    CALIBRATE_EVERY-th job and after the last."""
    before = {round(k * len(jobs) / PROBES_PER_ROUND) for k in range(PROBES_PER_ROUND)}
    rnd = Round()
    t0 = time.perf_counter()
    for i, (job, exp) in enumerate(zip(jobs, expected)):
        if i in before:
            rnd.probes_s.append(import_probe(root, env))
        if calibrated and i % CALIBRATE_EVERY == 0:
            rnd.calibrations_s.append(calibrate(root, env))
        rnd.jobs.append(run_job(job, exp, root, env))
    if calibrated:
        rnd.calibrations_s.append(calibrate(root, env))
    rnd.duration_s = time.perf_counter() - t0
    return rnd


def run_rounds(jobs: list[Job], expected: list[dict], root: str, env: dict,
               seconds: float) -> list[Round]:
    """Whole rounds while the next one is expected to end within `seconds`; at least one."""
    t0 = time.perf_counter()
    rounds = [run_round(jobs, expected, root, env)]
    while time.perf_counter() - t0 + rounds[-1].duration_s <= seconds:
        rounds.append(run_round(jobs, expected, root, env))
    return rounds


def per_job_wall(rounds: list[Round]) -> list[float]:
    """Each job's median wall time at reference speed over the rounds, in job order."""
    return [statistics.median(r.jobs[i].spawn.wall_s * r.speed for r in rounds)
            for i in range(len(rounds[0].jobs))]


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND values above it."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(0, n - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / n


def end_to_end(rounds: list[Round]) -> tuple[dict, dict]:
    """End-to-end metrics and their sample descriptions."""
    per_job = per_job_wall(rounds)
    tail_s, tail_pct = tail(per_job)
    probes = [p * r.speed for r in rounds for p in r.probes_s]
    calibrations = [c for r in rounds for c in r.calibrations_s]
    runs = [j for r in rounds for j in r.jobs]
    failed = sum(1 for j in runs if j.failure)
    metrics = {
        "wall_s": (statistics.median(r.job_wall_s * r.speed for r in rounds), "s"),
        "job_p50_s": (statistics.median(per_job), "s"),
        "job_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(probes), "s"),
        "peak_rss_mb": (max(j.spawn.maxrss_kb for j in runs) / 1024.0, "MB"),
        "failed_frac": (failed / len(runs), "ratio"),
    }
    raw_wall = statistics.median(r.job_wall_s for r in rounds)
    samples = {
        "wall_s": f"median of {len(rounds)} round(s) of {len(per_job)} jobs; "
                  f"raw {raw_wall:.3f} s, host at "
                  f"{statistics.mean(calibrations) / CALIBRATION_REF_S:.3f}x "
                  f"reference time over n={len(calibrations)} calibrations",
        "job_p50_s": f"n={len(per_job)} jobs",
        "job_tail_s": f"p{tail_pct:.1f} of n={len(per_job)} jobs, "
                      f"{min(TAIL_BEYOND, len(per_job) - 1)} beyond",
        "setup_s": f"n={len(probes)} import spawns",
        "peak_rss_mb": f"max of n={len(runs)} jobs",
        "failed_frac": f"{failed}/{len(runs)} jobs",
    }
    return metrics, samples
