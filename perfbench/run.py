"""specminer benchmark: seeded job lists through the real CLI entry point.

    python3 perfbench/run.py --workload deep-unroll --seed 1 --seconds 45 --trace 0

Each workload is a fixed grid of CLI invocations (README.md says why each
was chosen). The seed orders the grid. A run makes passes over the grid, in
a fresh seeded order each time, one job at a time: a closed loop with one
client. It starts another pass while that pass is expected to end within
half a pass of --seconds, and always makes at least one, so that every pass
times the same work on every seed and every commit.

Every job runs in its own process, forked from this one after it has
imported specminer but analyzed nothing, so that module-level state cannot
carry over between jobs, just as between CLI invocations. The job is timed
inside its child, around `cli.main`; its output is checked against
golden.json outside the timed region.

The last line of stdout is one JSON object. With --trace 0 it holds the
end-to-end metrics; with --trace 1 it holds the per-layer metrics from
spans.py, and each job also runs untraced so that the tracing overhead
is measured.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import pathlib
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

import golden

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
INPUTS = HERE / "inputs"
OUT = HERE / "out"

MAX_PATTERNS_ENV = "SPECMINER_MAX_PATTERNS"
SETUP_SAMPLES = 15
EXIT_BUDGET = 3


@dataclass(frozen=True)
class Cell:
    source: str  # file under inputs/
    function: str
    unroll: int
    lazy_aliasing: bool = False
    format: str = "text"

    @property
    def id(self) -> str:
        suffix = "+lazy" if self.lazy_aliasing else ""
        suffix += "+json" if self.format == "json" else ""
        return f"{self.function}@{self.unroll}{suffix}"

    def argv(self) -> list:
        argv = [str(INPUTS / self.source), "-f", self.function,
                "--unroll", str(self.unroll)]
        if self.lazy_aliasing:
            argv.append("--lazy-aliasing")
        if self.format == "json":
            argv += ["--format", "json", "--dump-patterns"]
        return argv


DLL_MODIFIERS = ("append", "length", "reverse", "head", "last", "find", "init")
CORPUS = (("dll.c", DLL_MODIFIERS), ("branch.c", ("branch",)), ("setter.c", ("set_val",)))

WORKLOADS = {
    # Named in BENCHMARK.json. A pass over either grid takes at most about
    # 5 s, so a run times every cell several times.
    "deep-unroll": [Cell("dll.c", f, 8) for f in DLL_MODIFIERS],
    "corpus-json": [Cell(src, f, 1, format="json") for src, fs in CORPUS for f in fs],
    # Run by hand, for per-cell rows such as find@12 or find@1+lazy. Their
    # jobs take up to 24 s each, and on a shared 2-core host their run times
    # spread too widely between runs to be gated.
    "deep-unroll-12": [Cell("dll.c", f, 12) for f in DLL_MODIFIERS],
    "lazy-aliasing": [Cell("dll.c", f, 1, lazy_aliasing=True) for f in DLL_MODIFIERS],
}


# ---------------------------------------------------------------- jobs

def import_cli():
    if not (SRC / "specminer" / "cli.py").is_file():
        raise SystemExit(f"run.py: no specminer sources under {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ.pop(MAX_PATTERNS_ENV, None)
    from specminer import cli
    return cli


def _child(main, argv, traced: bool) -> dict:
    tracer = None
    if traced:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    real = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    error = None
    try:
        t0 = perf_counter()
        try:
            code = main(argv)
        except Exception:
            code, error = None, traceback.format_exc()
        seconds = perf_counter() - t0
    finally:
        sys.stdout, sys.stderr = real
    report = {
        "seconds": seconds,
        "exit": code,
        "error": error,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        report["trace"] = tracer.report()
    return report


def run_job(main, argv, traced: bool = False) -> dict:
    """Run `main(argv)` in a forked child and return its report."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            report = _child(main, argv, traced)
            with os.fdopen(wfd, "w") as fh:
                json.dump(report, fh)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(wfd)
    with os.fdopen(rfd) as fh:
        raw = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not raw:
        return {"seconds": 0.0, "exit": None, "stdout": "", "stderr": "", "maxrss_mb": 0.0,
                "error": f"job process ended with wait status {status}"}
    return json.loads(raw)


def time_import() -> float:
    """Seconds to import specminer.cli in a fresh interpreter. The bytecode
    cache is already written: this process imported it first."""
    code = ("import time; t = time.perf_counter(); import specminer.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    return float(proc.stdout)


# ---------------------------------------------------------------- runs

def run_passes(cli, cells, reference, seed: int, seconds: float, traced: bool):
    """Run seeded passes over `cells`; return (passes, jobs, spans, setup),
    where `passes` is their number, `jobs` holds every checked job report
    and `setup` the import times of an untraced run. Imports are timed
    between jobs, spread over the run, because the shared host's speed
    changes from second to second."""
    rng = random.Random(seed)
    variants = [False, True] if traced else [False]
    run_job(cli.main, cells[0].argv())  # warm-up, neither timed nor checked
    start = perf_counter()
    passes, jobs, spans, setup = 0, [], [], []
    while True:
        order = list(cells)
        rng.shuffle(order)
        t_pass = perf_counter()
        for cell in order:
            for with_trace in variants:
                job = run_job(cli.main, cell.argv(), with_trace)
                job["cell"], job["traced"] = cell.id, with_trace
                ref = reference[cell.id]
                job["failure"] = job["error"] or golden.mismatch(
                    ref, job["exit"], job["stdout"], cell.format)
                job["drift"] = golden.stdout_sha256(job["stdout"]) != ref["stdout_sha256"]
                if with_trace:
                    job_spans = job.get("trace", {}).pop("spans", [])
                    spans.append({"cell": cell.id, "spans": job_spans})
                print_row(len(jobs), job)
                del job["stdout"], job["stderr"]
                jobs.append(job)
                if not traced and len(setup) * seconds < (perf_counter() - start) * SETUP_SAMPLES:
                    setup.append(time_import())
        passes += 1
        now = perf_counter()
        # Another pass if it would end within half a pass of --seconds, so
        # a run lasts --seconds give or take half a pass.
        if (now - start) + (now - t_pass) / 2 > seconds:
            if not traced:
                setup += [time_import() for _ in range(SETUP_SAMPLES - len(setup))]
            return passes, jobs, spans, setup


def print_row(n: int, job: dict) -> None:
    status = "ok" if job["failure"] is None else "FAIL " + job["failure"].strip().splitlines()[-1]
    tag = " traced" if job["traced"] else ""
    print(f"job {n:4d} {job['cell']:<16} {job['seconds']:9.4f}s exit={job['exit']}"
          f"{tag} {status}", flush=True)
    if job["failure"] is not None and job["stderr"]:
        print("  " + job["stderr"].strip().replace("\n", "\n  "), flush=True)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def upper_decile(values: list) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(jobs, setup_s: float) -> dict:
    # One pass's time: the sum of each cell's 90th-percentile job time. The
    # shared host alternates between a busy state, its usual one, and a quiet
    # one in which jobs run up to a third faster. A cell's median falls
    # between the two and moves with the share of quiet time in the run; its
    # upper decile stays in the busy state.
    by_cell = defaultdict(list)
    for j in jobs:
        by_cell[j["cell"]].append(j["seconds"])
    n = len(jobs)
    return {
        "total_s": metric(sum(upper_decile(t) for t in by_cell.values()), "s"),
        "job_p50_s": metric(statistics.median(j["seconds"] for j in jobs), "s"),
        "within_budget_share": metric(sum(j["exit"] == 0 for j in jobs) / n, "ratio"),
        "passed_share": metric(sum(j["failure"] is None for j in jobs) / n, "ratio"),
        "peak_rss_mb": metric(max(j["maxrss_mb"] for j in jobs), "MB"),
        "setup_s": metric(setup_s, "s"),
    }


def per_layer(passes: int, jobs) -> dict:
    traced = [j for j in jobs if j["traced"] and "trace" in j]
    plain = [j for j in jobs if not j["traced"]]

    def total(kind, key):
        return sum(j["trace"][kind].get(key, 0) for j in traced)

    def count(kind, key):
        return metric(total(kind, key) / passes, "count")

    def secs(key):
        return metric(total("self_s", key) / passes, "s")

    def ratio(num, den, unit="ratio"):
        return metric(num / den if den else 0.0, unit)

    return {
        "constraints.check_sat.calls": count("calls", "constraints.check_sat"),
        "constraints.check_sat.self_s": secs("constraints.check_sat"),
        "constraints.check_sat.sat": count("counts", "check_sat.sat"),
        "constraints.check_sat.unsat": count("counts", "check_sat.unsat"),
        "constraints.check_sat.unknown": count("counts", "check_sat.unknown"),
        "constraints.check_sat.repeat_ratio": ratio(total("counts", "check_sat.repeats"),
                                                    total("calls", "constraints.check_sat")),
        "constraints.entails.calls": count("calls", "constraints.entails"),
        "constraints.entails.self_s": secs("constraints.entails"),
        "engine.se.modifier.calls": count("calls", "engine.se.modifier"),
        "engine.se.modifier.self_s": secs("engine.se.modifier"),
        "engine.se.observer.calls": count("calls", "engine.se.observer"),
        "engine.se.observer.self_s": secs("engine.se.observer"),
        "engine.se.splits": count("counts", "se.splits"),
        "engine.se.truncated": count("counts", "se.truncated"),
        "engine.se.budget_errors": count("counts", "se.budget_errors"),
        "engine.se.patterns": count("counts", "se.patterns"),
        "symstate.clone.calls": count("calls", "symstate.clone"),
        "symstate.clone.self_s": secs("symstate.clone"),
        "inference.explain.pre.self_s": secs("inference.explain.pre"),
        "inference.explain.post.self_s": secs("inference.explain.post"),
        "inference.equation_yield": ratio(total("counts", "explain.equations"),
                                          total("calls", "engine.se.observer"), "eq/run"),
        "inference.simplify_spec.self_s": secs("inference.simplify_spec"),
        "inference.infer_spec.self_s": secs("inference.infer_spec"),
        "frontend.load_program.calls": count("calls", "frontend.load_program"),
        "frontend.load_program.s": secs("frontend.load_program"),
        "cli.emit.self_s": secs("cli.emit"),
        "cli.stdout_drift": metric(sum(j["drift"] for j in plain) / passes, "count"),
        "trace.overhead": ratio(sum(j["seconds"] for j in traced),
                                sum(j["seconds"] for j in plain)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = import_cli()
    reference = golden.load()
    cells = WORKLOADS[args.workload]
    passes, jobs, spans, setup = run_passes(cli, cells, reference, args.seed, args.seconds,
                                     bool(args.trace))

    failed = sum(j["failure"] is not None for j in jobs)
    plain = [j for j in jobs if not j["traced"]]
    budget_exits = sum(j["exit"] == EXIT_BUDGET for j in plain)
    print(f"summary workload={args.workload} seed={args.seed} passes={passes} "
          f"jobs={len(plain)} budget_exit_share={budget_exits / len(plain):.4f} "
          f"failed_share={failed / len(jobs):.4f} "
          f"stdout_drift={sum(j['drift'] for j in plain)}")
    if args.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        path.write_text(json.dumps(spans), encoding="utf-8")
        print(f"spans written to {path.relative_to(ROOT)}")
        metrics = per_layer(passes, jobs)
    else:
        metrics = end_to_end(jobs, statistics.median(setup))
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
