#!/usr/bin/env python3
"""clonelab benchmark: seeded job-mix workloads run by one closed-loop client.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

One client in one process runs jobs back to back, each after the previous
one completes (a closed loop, no threads). A job is a CLI pipeline run in
process through ``clonelab.cli.run`` on files the generator wrote, or one
library call where the CLI has no subcommand. Every output is checked (see
``checker.py``).

A run makes whole passes over the workload's rounds until ``--seconds``
have passed. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
makes the same passes untraced, traced and untraced again and prints the
per-layer metrics of the traced passes. The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--write-golden`` records the output digests of the default seed.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits 1 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
OUT = os.path.join(HERE, ".out")
GOLDEN = os.path.join(HERE, "golden.json")
sys.path.insert(0, HERE)

import checker as checker_mod  # noqa: E402
import jobs  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 5
MIN_PASSES = 3
PROGRAM_MODULES = (
    "finite_core", "clone_engine", "interpolation", "ultralocal", "baker_pixley",
    "structure_detect", "symbolic_perms", "simple_module", "cli",
)
UNITS = {
    "setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms", "job_p90_ms": "ms",
    "done_frac": "frac", "uncapped_frac": "frac", "peak_rss_mb": "MB",
}


class ProgramMissing(Exception):
    pass


def import_program() -> None:
    """Import every clonelab module afresh from ``src/``."""
    for name in [n for n in sys.modules if n == "clonelab" or n.startswith("clonelab.")]:
        del sys.modules[name]
    if not os.path.isdir(os.path.join(SRC, "clonelab")):
        raise ProgramMissing(f"no clonelab package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for mod in PROGRAM_MODULES:
        importlib.import_module(f"clonelab.{mod}")


def setup(workload: str, seed: int) -> tuple:
    """Imports and input generation; returns (seconds, rounds)."""
    t0 = time.perf_counter()
    import_program()
    workdir = os.path.join(WORK, workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    rounds = workloads.build(workload, seed, workdir)
    return time.perf_counter() - t0, rounds


def closed_loop(rounds, seconds=None, passes=None, tracer=None) -> tuple:
    """Run whole passes over all rounds until ``seconds`` have passed and
    at least MIN_PASSES passes ran, or for exactly ``passes`` passes. Whole
    passes keep the job mix of a run the same however fast the program is.
    Returns ([(job, outcome, latency_s)], elapsed_s, [seconds per pass])."""
    records = []
    done = 0
    t_start = time.perf_counter()
    pass_s = []
    while True:
        t_pass = time.perf_counter()
        for job in (job for jobs_of_round in rounds for job in jobs_of_round):
            jobs.prepare(job)
            sid = tracer.begin_job(job.id) if tracer else None
            error = None
            t0 = time.perf_counter()
            try:
                steps = jobs.execute(job)
            except Exception:
                steps, error = [], traceback.format_exc()
            t1 = time.perf_counter()
            if tracer:
                tracer.end_job(sid)
            outcome = jobs.Outcome(steps, jobs.collect_artifacts(job), error)
            records.append((job, outcome, t1 - t0))
        done += 1
        pass_s.append(time.perf_counter() - t_pass)
        elapsed = time.perf_counter() - t_start
        if passes is not None:
            if done >= passes:
                break
        elif elapsed >= seconds and done >= MIN_PASSES:
            break
    return records, elapsed, pass_s


def judge(records, checker) -> tuple:
    """(failed count, capped count, first failure reasons)."""
    failed, capped, reasons = 0, 0, []
    for job, outcome, _ in records:
        ok, reason = checker.check(job, outcome)
        if not ok:
            failed += 1
            if len(reasons) < 5:
                reasons.append(reason)
        if outcome.exit_code() == jobs.CAPPED:
            capped += 1
    return failed, capped, reasons


def load_golden(workload: str, seed: int) -> dict:
    if seed != DEFAULT_SEED or not os.path.exists(GOLDEN):
        return {}
    with open(GOLDEN) as fh:
        return json.load(fh).get(workload, {})


def git_revision() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(workload, seed, seconds) -> tuple:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        dt, rounds = setup(workload, seed)
        setup_times.append(dt)
    records, elapsed, pass_s = closed_loop(rounds, seconds=seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, capped, reasons = judge(records, checker_mod.Checker(load_golden(workload, seed)))
    attempted = len(records)
    # Each job runs once per pass; its latency is the median over passes,
    # which keeps a burst of interference on the machine from moving it.
    by_job: dict = {}
    for job, _, lat in records:
        by_job.setdefault(job.id, []).append(lat * 1000.0)
    typical_ms = [statistics.median(v) for v in by_job.values()]
    done = (attempted - failed) / attempted
    values = {
        "setup_s": statistics.median(setup_times),
        "jobs_per_s": done * len(typical_ms) / (sum(typical_ms) / 1000.0),
        "job_p50_ms": statistics.median(typical_ms),
        "job_p90_ms": statistics.quantiles(typical_ms, n=10)[-1],
        "done_frac": done,
        "uncapped_frac": (attempted - capped) / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {name: attempted for name in values}
    samples.update(setup_s=SETUP_REPEATS, peak_rss_mb=1,
                   jobs_per_s=len(typical_ms), job_p50_ms=len(typical_ms),
                   job_p90_ms=len(typical_ms), fail_frac=attempted, capped_frac=attempted)
    report = {
        "metrics": {k: (v, UNITS[k]) for k, v in values.items()},
        "also": {
            "fail_frac": (failed / attempted, "frac"),
            "capped_frac": (capped / attempted, "frac"),
        },
        "samples": samples,
        "pass_s": pass_s,
        "elapsed_s": elapsed,
    }
    return report, attempted, failed, reasons


def trace_pass(rounds, passes: int) -> tuple:
    """Run ``passes`` passes with the tracer installed; returns
    (tracer, records, elapsed_s). The original bindings are back
    afterwards, also when a job raised."""
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        records, elapsed, _ = closed_loop(rounds, passes=passes, tracer=tracer)
    finally:
        tracer.uninstall()
    return tracer, records, elapsed


def traced(workload, seed, seconds) -> tuple:
    _, rounds = setup(workload, seed)
    check = checker_mod.Checker(load_golden(workload, seed))
    warm, _, warm_s = closed_loop(rounds, passes=1)
    n = max(1, round(seconds / (2.0 * warm_s[0])))
    tracer, spans, traced_s = trace_pass(rounds, n)
    plain, plain_s, _ = closed_loop(rounds, passes=n)
    records = warm + spans + plain
    failed, _, reasons = judge(records, check)

    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans_{workload}.bin.gz"))
    totals = tracer.totals()
    _, job_total, job_self = totals.pop(tracer_mod.JOB_SPAN)
    metrics = {}
    for name, (calls, total, own) in totals.items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.total_s"] = (total, "s")
        metrics[f"{name}.self_s"] = (own, "s")
    for mod in tracer_mod.MODULES:
        own = sum(v[2] for k, v in totals.items() if k.startswith(mod + "."))
        metrics[f"{mod}.self_share"] = (own / job_total, "frac")
    c = tracer.counts
    metrics["clone_engine.members_built"] = (c["members_built"], "count")
    metrics["ultralocal.search_dagger.found_ratio"] = (c["found"] / max(c["searches"], 1), "frac")
    metrics["interpolation.holds_ratio"] = (c["interp_holds"] / max(c["interp_queries"], 1), "frac")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "frac")
    metrics["trace.unattributed_share"] = (job_self / job_total, "frac")
    report = {
        "metrics": metrics,
        "also": {},
        "samples": {"passes": n, "traced_jobs": len(spans), "spans": len(tracer.start)},
        "pass_s": warm_s,
        "elapsed_s": traced_s,
    }
    return report, len(records), failed, reasons


def write_golden(workload) -> int:
    _, rounds = setup(workload, DEFAULT_SEED)
    records, _, _ = closed_loop(rounds, passes=1)
    check = checker_mod.Checker()
    failed, _, reasons = judge(records, check)
    if failed:
        print("\n".join(reasons), file=sys.stderr)
        return 1
    golden = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN) as fh:
            golden = json.load(fh)
    golden[workload] = {
        job.id: [checker_mod.digest(outcome), outcome.exit_code()]
        for job, outcome, _ in records
    }
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden[workload])} digests for {workload}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)

    try:
        if args.write_golden:
            return write_golden(args.workload)
        run = traced if args.trace else end_to_end
        report, attempted, failed, reasons = run(args.workload, args.seed, args.seconds)
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(WORK, args.workload), ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "pass_s": report["pass_s"],
        "elapsed_s": report["elapsed_s"],
        "samples": report["samples"],
    }
    for reason in reasons:
        print(f"bench: FAILED {reason}", file=sys.stderr)
    print(json.dumps(meta, sort_keys=True))
    shown = {**report["metrics"], **report["also"]}
    for name, (value, unit) in shown.items():
        samples = report["samples"].get(name, "")
        print(f"  {name:<52} {value:>14.6g} {unit:<6} {f'n={samples}' if samples else ''}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in report["metrics"].items()
        },
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
