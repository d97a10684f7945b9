"""One round of a workload in a fresh interpreter.

    python3 bench/worker.py PLAN OUT [--setup-only] [--trace]

PLAN is the JSON job list written by run.py.  The worker imports vecspread
from the checkout's src/, loads every ideal file with cli.parse_ideal_file
(the set-up a user pays on each command), then runs each job once, in
order.  Nothing repeats inside the process, so no memo kept across calls
turns a repeat into a hit a fresh CLI process would never get.  OUT
receives the job times, exit codes and printed outputs, the moment set-up
ended (time.monotonic, comparable with the parent's clock on Linux), the
peak resident set, and the speed probes: one after set-up, and one before
the first job and after every job.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def speed_probe() -> float:
    """Seconds for a fixed piece of pure-Python work (tuples, a small dict,
    int arithmetic), with the collector off so the program's live objects
    do not slow it.  run.py scales every time by it."""
    gc.disable()
    start = time.perf_counter()
    table: dict = {}
    for i in range(30000):
        key = (i % 127, i % 5)
        table[key] = table.get(key, 0) + i * i % 7
    spent = time.perf_counter() - start
    gc.enable()
    return spent


def _call_cli(cli, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse errors
            code = exc.code if isinstance(exc.code, int) else 2
    if code != 0:
        return code, out.getvalue() + err.getvalue()
    return code, out.getvalue()


def _basis_report(betti, ideal, t, top: int) -> str:
    report = betti.verify_homology_basis_range(ideal, t, top)
    return json.dumps({
        "ok": report.ok,
        "failures": report.failures,
        "label_counts": {f"{i},{j}": v for (i, j), v in report.label_counts.items()},
        "homology_counts": {f"{i},{j}": v
                            for (i, j), v in report.homology_counts.items()},
    })


def run_job(vs, job: dict, path: str, loaded) -> tuple[list[int], list[str]]:
    kind = job["kind"]
    if kind == "certify":
        steps = [["verify", "--ideal", path, "--class", "stable"],
                 ["betti", "--ideal", path, "--oracle", "--format", "json"]]
    elif kind == "resolve":
        steps = [["resolution", "--ideal", path, "--verify", "--format", "json",
                  "--max-degree", str(job["max_degree"])]]
    elif kind == "gin":
        steps = [["gin", "--ideal", path, "--seed", str(job["gin_seed"])]]
    else:
        steps = [["shift", "--ideal", path, "--t", ",".join(map(str, job["t"])),
                  "--seed", str(job["gin_seed"]), "--verify"]]
    codes, outputs = [], []
    for argv in steps:
        code, text = _call_cli(vs.cli, argv)
        codes.append(code)
        outputs.append(text)
    if kind == "certify":
        # the basis sweep has no subcommand: call the library on the ideal
        # set-up loaded from the same file
        ideal, t = loaded
        codes.append(0)
        outputs.append(_basis_report(vs.betti, ideal, t, job["top"]))
    return codes, outputs


def main(argv: list[str]) -> int:
    plan = json.loads(Path(argv[1]).read_text())
    sys.path.insert(0, plan["src"])
    import vecspread
    import vecspread.betti
    import vecspread.cli

    loaded = [vecspread.cli.parse_ideal_file(p) for p in plan["files"]]
    ready = time.monotonic()
    result: dict = {"ready": ready, "ready_probe": speed_probe(),
                    "module": vecspread.__file__}
    if "--setup-only" not in argv:
        tracer = None
        if "--trace" in argv:
            import layers
            tracer = layers.Tracer()
            tracer.install()
        times, codes, outputs, errors = [], [], [], []
        probes = [speed_probe()]
        for job, path, ld in zip(plan["jobs"], plan["files"], loaded):
            t0 = time.perf_counter()
            try:
                c, o = run_job(vecspread, job, path, ld)
                err = None
            except Exception:
                c, o, err = [], [], traceback.format_exc(limit=3)
            times.append(time.perf_counter() - t0)
            probes.append(speed_probe())
            codes.append(c)
            outputs.append(o)
            errors.append(err)
        result.update(times=times, probes=probes, codes=codes,
                      outputs=outputs, errors=errors,
                      maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        if tracer is not None:
            result["layers"] = tracer.summary()
    Path(argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
