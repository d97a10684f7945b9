"""vecspread benchmark: certify, resolve and shift workloads.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --compare BASE NEW

A run writes the workload's ideal files, times SETUP_STARTS fresh starts
(interpreter, `import vecspread`, loading every ideal file), then repeats
rounds until --seconds have passed.  A round is the whole job list, run once
in a fresh worker process (worker.py), so no job repeats inside a process.
Every printed output is checked by checks.py, which never calls vecspread.

With --trace 0 the last line holds the end-to-end metrics, all medians:
wall_s (a round's job list), job_p50_s and job_tail_s (over the jobs' median
times; the tail is the value with ten jobs above it, p75 of 40), setup_s
(the fresh starts) and peak_rss_mb (a round's worker).  Times are scaled by
the speed probe (see PROBE_REF_S); the unscaled ones go to the summary.  With --trace 1,
rounds alternate untraced and traced; the last line holds the per-layer
metrics of layers.py from the traced rounds plus trace.overhead, the
traced over the untraced round time.  Each run also writes a summary to
bench/results/; --compare reads two traced summaries (files or folders).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import gen
import layers
from worker import speed_probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_STARTS = 21
# Every time is scaled to a machine on which worker.speed_probe() takes
# PROBE_REF_S.  On the shared 2-core VM where the benchmark was made, speed
# drifts by 20 % and more within seconds; a probe next to each measurement
# cancels most of that.
PROBE_REF_S = 0.010
WORKER_TIMEOUT_S = 150
TAIL_BEYOND = 10


def spawn(plan: Path, out: Path, *flags: str) -> tuple[float, dict]:
    """Run one worker; returns (its start on the monotonic clock, result)."""
    # bytecode caching on, as in an installed package; fixed str hashing
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(plan), str(out), *flags],
        env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return start, json.loads(out.read_text())


def write_inputs(work: Path, jobs: list[dict]) -> Path:
    files = []
    for job in jobs:
        path = work / f"{job['id']}.json"
        path.write_text(json.dumps({
            "n": job["n"], "t": job["t"],
            "generators": [gen.fmt(tuple(u)) for u in job["gens"]]}))
        files.append(str(path))
    plan = work / "plan.json"
    plan.write_text(json.dumps({"src": str(ROOT / "src"), "jobs": jobs,
                                "files": files}))
    return plan


def tail(values: list[float]) -> float:
    """The highest order statistic with TAIL_BEYOND values above it."""
    ordered = sorted(values)
    return ordered[max(0, len(ordered) - TAIL_BEYOND - 1)]


def scaled_times(rnd: dict) -> list[float]:
    """Job times, each scaled by the mean of the probes on either side."""
    p = rnd["probes"]
    return [t * 2 * PROBE_REF_S / (p[k] + p[k + 1])
            for k, t in enumerate(rnd["times"])]


def check_rounds(jobs: list[dict], rounds: list[dict]):
    """(attempted, failed, wrong, messages) over every round.

    A job fails when it raises, exits non-zero or prints a wrong output;
    `wrong` counts the last kind.  Identical outputs of one job are checked
    once."""
    attempted = failed = wrong = 0
    messages: list[str] = []
    verdicts: dict = {}
    for rnd in rounds:
        for k, job in enumerate(jobs):
            attempted += 1
            codes, outputs = rnd["codes"][k], rnd["outputs"][k]
            if rnd["errors"][k] or any(codes):
                failed += 1
                messages.append(f"{job['id']} exit {codes}: "
                                f"{rnd['errors'][k] or outputs[-1][-300:]}")
                continue
            key = (k, tuple(outputs))
            if key not in verdicts:
                verdicts[key] = checks.CHECKS[job["kind"]](job, outputs, codes)
            if verdicts[key]:
                failed += 1
                wrong += 1
                messages.append(f"{job['id']}: {'; '.join(verdicts[key])}")
    return attempted, failed, wrong, messages


def run(args) -> int:
    src_init = ROOT / "src" / "vecspread" / "__init__.py"
    if not src_init.is_file():
        print(f"error: no vecspread sources at {src_init.parent}", file=sys.stderr)
        return 2
    jobs = gen.build_jobs(args.workload, args.seed)
    RESULTS.mkdir(exist_ok=True)
    work = RESULTS / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        plan = write_inputs(work, jobs)
        out = work / "out.json"
        setups = []
        for k in range(SETUP_STARTS + 1):  # the first start compiles .pyc files
            before = speed_probe()
            start, res = spawn(plan, out, "--setup-only")
            if Path(res["module"]).resolve() != src_init.resolve():
                print(f"error: imported {res['module']}", file=sys.stderr)
                return 2
            if k:
                setups.append((res["ready"] - start) * 2 * PROBE_REF_S
                              / (before + res["ready_probe"]))
        plain: list[dict] = []
        traced: list[dict] = []
        began = time.monotonic()
        while True:
            trace_this = args.trace == 1 and len(plain) > len(traced)
            _, res = spawn(plan, out, *(["--trace"] if trace_this else []))
            (traced if trace_this else plain).append(res)
            if time.monotonic() - began >= args.seconds and (
                    args.trace == 0 or traced):
                break
        measured = time.monotonic() - began
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, wrong, messages = check_rounds(jobs, plain + traced)
    for line in messages[:10]:
        print(f"FAILED {line}")
    med = statistics.median
    for rnd in plain + traced:
        rnd["scaled"] = scaled_times(rnd)
        rnd["speed"] = PROBE_REF_S / statistics.mean(rnd["probes"])
    walls = [sum(r["scaled"]) for r in plain]
    job_medians = [med(r["scaled"][k] for r in plain) for k in range(len(jobs))]
    print(f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs, "
          f"{len(plain)} untraced + {len(traced)} traced rounds in "
          f"{measured:.1f} s; attempted {attempted}, failed {failed}")
    summary: dict = {"workload": args.workload, "seed": args.seed,
                     "round_walls_s": walls,
                     "traced_round_walls_s": [sum(r["scaled"]) for r in traced],
                     "unscaled_round_walls_s": [sum(r["times"]) for r in plain],
                     "round_speeds": [r["speed"] for r in plain + traced],
                     "setup_samples_s": setups,
                     "job_median_s": {job["id"]: t
                                      for job, t in zip(jobs, job_medians)}}
    if args.trace == 0:
        values = {
            "wall_s": (med(walls), "s"),
            "job_p50_s": (med(job_medians), "s"),
            "job_tail_s": (tail(job_medians), "s"),
            "setup_s": (med(setups), "s"),
            "peak_rss_mb": (med(r["maxrss_kb"] for r in plain) / 1024, "MB"),
        }
    else:
        values = {name: (med(r["layers"][name] * (r["speed"] if unit == "s" else 1)
                             for r in traced), unit)
                  for name, unit in layers.METRICS}
        values["trace.overhead"] = (
            med(sum(r["scaled"]) for r in traced) / med(walls), "ratio")
        summary["absent"] = traced[0]["layers"]["absent"]
        if summary["absent"]:
            print(f"absent layers (read as 0): {', '.join(summary['absent'])}")
    for name, (value, unit) in values.items():
        print(f"  {name:<45} {value:.6g} {unit}")
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in values.items()}
    summary["metrics"] = metrics
    kind = "trace" if args.trace else "e2e"
    (RESULTS / f"{args.workload}-seed{args.seed}-{kind}.json").write_text(
        json.dumps(summary, indent=1))
    print(json.dumps({"correct": wrong == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _load_summaries(path: Path) -> dict:
    files = sorted(path.glob("*-trace.json")) if path.is_dir() else [path]
    summaries = (json.loads(f.read_text()) for f in files)
    return {s["workload"]: s for s in summaries}


def compare(base_path: str, new_path: str) -> int:
    base, new = _load_summaries(Path(base_path)), _load_summaries(Path(new_path))
    for workload in sorted(set(base) & set(new)):
        print(f"{workload} (base seed {base[workload]['seed']}, "
              f"new seed {new[workload]['seed']})")
        print(f"  {'metric':<45} {'base':>12} {'new':>12}  new/base")
        absent = set(new[workload].get("absent", []))
        for name, entry in base[workload]["metrics"].items():
            b = entry["value"]
            n = new[workload]["metrics"].get(name, {}).get("value")
            if n is None or name.rsplit(".", 1)[0] in absent:
                print(f"  {name:<45} {b:>12.6g} {'absent':>12}")
                continue
            ratio = f"{n / b:.3f} of base {b:.6g}" if b else "n/a (base 0)"
            print(f"  {name:<45} {b:>12.6g} {n:>12.6g}  {ratio}")
    for workload in sorted(set(base) ^ set(new)):
        print(f"{workload}: only in {'base' if workload in base else 'new'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
