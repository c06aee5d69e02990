"""qdw benchmark: seeded CLI workloads, end to end or traced per layer.

    python3 bench/run.py --workload algebra --seed 1 --seconds 40 --trace 0

Run from anywhere; the checkout is the directory above this file, and
the program is imported from its `src/`.  With `--trace 0` every job of
the workload runs as a fresh `python -m qdw.cli` process, in whole
rounds for about `--seconds`, between calibration spawns that scale its
times to a reference host speed, and the end-to-end metrics are printed.
With `--trace 1` one untraced round runs, then the same jobs in process
with spans around each layer, and the per-layer metrics are printed.
Every job is checked against an oracle.  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  A result
record (environment, job-list hash, samples) and, when traced, the
spans as JSON lines go to `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

EXIT_NO_PROGRAM = 2


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program():
    """Import qdw from this checkout's src/, or return None if it is not there."""
    if not (SRC / "qdw" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import qdw
    if Path(qdw.__file__).resolve().parent != SRC / "qdw":
        return None
    return qdw


def environment() -> dict:
    env = {"git_commit": None, "nproc": os.cpu_count(),
           "cpu_model": platform.processor() or None,
           "platform": platform.platform(), "python": platform.python_version()}
    for mod in ("numpy", "scipy"):
        try:
            env[mod] = __import__(mod).__version__
        except ImportError:
            env[mod] = None
    if (ROOT / ".git").exists():
        try:
            env["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                     if line.startswith("model name")), env["cpu_model"])
    except OSError:
        pass
    return env


def _print_metrics(metrics: dict, samples: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit:<6} {samples.get(name, '')}")


def main(argv=None) -> int:
    args = _parse(argv)
    if _import_program() is None:
        print(f"error: no qdw program under {SRC}", file=sys.stderr)
        return EXIT_NO_PROGRAM

    import measure
    import oracles
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    jobs = workloads.generate(args.workload, args.seed)
    expected = [oracles.expect(j) for j in jobs]
    env = measure.child_env(str(SRC))
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "jobs": len(jobs), "job_list_sha256": workloads.job_list_hash(jobs),
              "environment": environment(), "started": time.time()}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        rounds = [measure.run_round(jobs, expected, str(ROOT), env, calibrated=False)]
        tracer = tracing.Tracer()
        traced_s, traced_failures = tracing.run_traced(jobs, expected, tracer)
        tracer.write_jsonl(f"{stem}.spans.jsonl")
        metrics = tracing.per_layer(tracer, traced_s, rounds[0])
        samples = {"trace.overhead_frac": f"traced {traced_s:.3f} s in process"}
        failures = [j.failure for j in rounds[0].jobs] + traced_failures
    else:
        rounds = measure.run_rounds(jobs, expected, str(ROOT), env, args.seconds)
        metrics, samples = measure.end_to_end(rounds)
        failures = [j.failure for r in rounds for j in r.jobs]

    bad = [(jobs[i % len(jobs)], f) for i, f in enumerate(failures) if f]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"jobs={len(jobs)} rounds={len(rounds)} "
          f"job_list_sha256={record['job_list_sha256'][:16]}")
    _print_metrics(metrics, samples)
    for job, why in bad:
        print(f"  FAILED job {job.id} ({' '.join(job.argv)[:120]}): {why}")
    print(f"environment: {json.dumps(record['environment'], sort_keys=True)}")

    # failed_frac is 0 when all is well, so it stays out of the final line;
    # the line's attempted/failed carry the same ratio
    final = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()
             if name != "failed_frac"}
    result = {"correct": not bad, "attempted": len(failures), "failed": len(bad),
              "metrics": final}
    record.update(result=result, samples=samples,
                  job_wall_s=[[j.spawn.wall_s for j in r.jobs] for r in rounds],
                  probes_s=[r.probes_s for r in rounds],
                  calibrations_s=[r.calibrations_s for r in rounds],
                  failures=[{"job": j.id, "argv": j.argv, "reason": f} for j, f in bad])
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
