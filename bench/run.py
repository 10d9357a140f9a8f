"""emergelab benchmark: run a workload's CLI jobs in-process, check every
output, and print the metrics as one JSON object on the last line.

    python3 bench/run.py --workload rows --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 10

`--trace 0` reports the end-to-end metrics; `--trace 1` alternates plain
and traced passes and reports the per-layer metrics.  `--workload all` runs
each workload in its own process and prints one table.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy

import jobs as workloads
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = SRC / "emergelab" / "fixtures"
GOLDEN = BENCH / "golden.json"
OUT = BENCH / "_out"
DEFAULT_SEED = 1
SETUP_LAUNCHES = 15

END_TO_END = {"wall_s": "s", "job_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {name: unit for name, unit, _ in tracing.metric_specs()}


def load_program() -> dict:
    """Import emergelab from this checkout's src/, never from elsewhere."""
    if not (SRC / "emergelab" / "__init__.py").is_file():
        raise SystemExit(f"bench: no emergelab sources in {SRC}")
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"emergelab.{name}") for name in tracing.LAYERS}
    if Path(modules["cli"].__file__).resolve().parent != SRC / "emergelab":
        raise SystemExit(f"bench: emergelab was imported from {modules['cli'].__file__}")
    return modules


def environment(workload: str, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    source = hashlib.sha256()
    for path in sorted((SRC / "emergelab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(path.relative_to(SRC).as_posix().encode() + path.read_bytes())
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": commit, "src_sha256": source.hexdigest()}


def launch(workload: str) -> tuple[float, str | None]:
    """Wall time of a fresh `python -m emergelab` process running the
    workload's trivial command, and its failure, if any."""
    argv, want = workloads.SETUP_COMMANDS[workload]
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "emergelab", *argv], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    elapsed = perf_counter() - start
    if proc.returncode != 0 or proc.stdout != want or proc.stderr:
        return elapsed, (f"setup: exit {proc.returncode}, stdout {proc.stdout!r}, "
                         f"stderr {proc.stderr.strip()[-200:]!r}")
    return elapsed, None


# One plain pass of the job list in a fresh interpreter, stdout to a file,
# as a batch user would run it; prints the process's peak RSS in KiB.
# VmHWM, not ru_maxrss: Linux carries the parent's peak into ru_maxrss of a
# child across fork and exec, so the harness's own peak would show.
RSS_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from emergelab import cli
codes = []
with open(sys.argv[2], "w") as out:
    sys.stdout = out
    for argv in json.loads(sys.argv[3]):
        out.seek(0)
        out.truncate()
        codes.append(cli.main(argv))
    sys.stdout = sys.__stdout__
with open("/proc/self/status") as status:
    kib = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps([codes, kib]))
"""


def peak_rss(jobs, workdir: Path) -> tuple[float, str | None]:
    """Peak RSS in MB of a process that runs one pass of `jobs`, and its
    failure, if any.  Measured apart from the harness, whose inputs,
    captured outputs and reference checks would otherwise set the peak."""
    proc = subprocess.run([sys.executable, "-c", RSS_PROBE, str(SRC), str(workdir / "stdout"),
                           json.dumps([job.argv for job in jobs])],
                          capture_output=True, text=True, timeout=170, cwd=ROOT)
    try:
        codes, kib = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return 0.0, f"rss probe: exit {proc.returncode}, {proc.stderr.strip()[-200:]}"
    if any(codes):
        return kib / 1024, f"rss probe: exit codes {codes}"
    return kib / 1024, None


def execute(cli, job, workdir: Path, recorder=None):
    """Run one job through cli.main; return (seconds, output, error)."""
    gc.collect()
    stdout, stderr = io.StringIO(), io.StringIO()
    if recorder is not None:
        recorder.job = job.id
    error = None
    start = perf_counter()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(job.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code, error = None, "traceback: " + traceback.format_exc().strip().splitlines()[-1]
    elapsed = perf_counter() - start
    files = {}
    for name in job.files:
        path = workdir / name
        if path.exists():
            files[name] = path.read_bytes()
            path.unlink()
    if error is None:
        if code != 0:
            error = f"exit code {code}: {stderr.getvalue().strip()[-200:]}"
        elif stderr.getvalue():
            error = f"unexpected stderr: {stderr.getvalue().strip()[-200:]}"
        elif len(files) != len(job.files):
            error = f"missing output files {sorted(set(job.files) - set(files))}"
    return elapsed, workloads.Output(stdout.getvalue(), files), error


def digest(out: workloads.Output) -> str:
    h = hashlib.sha256(out.stdout.encode())
    for name in sorted(out.files):
        h.update(name.encode() + b"\0" + out.files[name])
    return h.hexdigest()


def check(job, out, reference: dict, recorded: dict) -> str | None:
    """Gate one successful execution.  The first one of each job gets the
    full check (recorded digest where one applies, then the job's own
    check); later ones must repeat its bytes exactly."""
    d = digest(out)
    if job.id in reference:
        return None if d == reference[job.id] else "output differs from the first pass"
    reference[job.id] = d
    if job.id in recorded:
        if recorded[job.id] is None:
            return "no digest recorded for this job"
        if d != recorded[job.id]:
            return "digest differs from the recorded one (golden.json)"
    try:
        return job.check(out)
    except Exception:
        # an output the check cannot even parse is a wrong output
        return "check raised: " + traceback.format_exc().strip().splitlines()[-1]


def recorded_digests(workload: str, seed: int, jobs: list, tiny: bool) -> dict:
    """Digests each job must reproduce: every job on the default seed,
    fixed-input jobs on every seed.  Tiny runs have none."""
    if tiny:
        return {}
    golden = json.loads(GOLDEN.read_text()).get(workload, {}) if GOLDEN.exists() else {}
    return {job.id: golden.get(job.id) for job in jobs if seed == DEFAULT_SEED or job.fixed}


def best_latencies(passes: list[list[float]]) -> list[float]:
    """Each job's fastest latency over `passes`.  On a shared machine other
    tenants only ever slow a job down, for seconds at a time, so the
    fastest of many runs is the steady estimate of what the job costs."""
    return [min(times) for times in zip(*passes)]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, record: bool = False, recorded: dict | None = None) -> dict:
    """Measure one workload; `recorded` overrides the digests of golden.json."""
    modules = load_program()
    cli = modules["cli"]
    env = environment(workload, seed)
    workdir = BENCH / "_work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        jobs = workloads.build(workload, seed, workdir, FIXTURES, tiny)
        if recorded is None:
            recorded = {} if record else recorded_digests(workload, seed, jobs, tiny)
        tags = {job.id: job.tag for job in jobs}
        failures, attempted, setup_times = [], 0, []

        def tally(result):
            """Count a set-up launch or the RSS probe as one attempted job."""
            nonlocal attempted
            value, error = result
            attempted += 1
            if error:
                failures.append(error)
            return value

        recorder = tracing.Recorder() if trace else None
        reference: dict[str, str] = {}
        plain, traced, layers = [], [], []
        start = perf_counter()
        index = 0
        # pass 0 warms up and is not timed.  With tracing, each job runs twice
        # in a row, plain then traced, so both see the same machine state.
        while index < 2 or perf_counter() - start < seconds:
            origin = perf_counter()
            if trace:
                recorder.reset()
            runs = []
            for job in jobs:
                # alternate which goes first: a job's second run finds warm caches
                for on in ((index % 2 == 0, index % 2 == 1) if trace else (False,)):
                    if on:
                        with recorder.installed(modules):
                            runs.append((job, True, execute(cli, job, workdir, recorder)))
                    else:
                        runs.append((job, False, execute(cli, job, workdir)))
            for job, _, (elapsed, out, error) in runs:
                attempted += 1
                error = error or check(job, out, reference, recorded)
                if error:
                    failures.append(f"{job.id} (pass {index}): {error}")
            if index:
                plain.append([result[0] for _, on, result in runs if not on])
                if trace:
                    traced.append([result[0] for _, on, result in runs if on])
                    layers.append(recorder.metrics(tags))
            # spread the set-up launches over the run, one after each pass
            if not trace and len(setup_times) < SETUP_LAUNCHES:
                setup_times.append(tally(launch(workload)))
            index += 1
        while not trace and len(setup_times) < SETUP_LAUNCHES:
            setup_times.append(tally(launch(workload)))
        if not trace:
            rss_mb = tally(peak_rss(jobs, workdir))

        if record and not failures:
            golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
            golden[workload] = dict(sorted(reference.items()))
            GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")

        if trace:
            metrics = tracing.best_metrics(layers)
            metrics["trace_overhead"] = (sum(best_latencies(traced))
                                         / sum(best_latencies(plain)) - 1)
            units = PER_LAYER
        else:
            metrics = {
                "wall_s": sum(best_latencies(plain)),
                "job_p50_ms": 1000 * statistics.median(best_latencies(plain)),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": rss_mb,
            }
            units = END_TO_END
        OUT.mkdir(exist_ok=True)
        if trace:
            recorder.export(OUT / f"spans-{workload}.jsonl", origin)
        details = {
            "env": env, "passes": index, "setup_s": setup_times,
            "failures": failures, "error_rate": len(failures) / attempted,
            "job_times_s": {job.id: list(times) for job, times in zip(jobs, zip(*plain))},
            "traced_job_times_s": {job.id: list(times) for job, times in zip(jobs, zip(*traced))},
            "metrics": metrics,
        }
        (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps(details, indent=1) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"# workload={workload} seed={seed} trace={int(trace)} passes={index} (1 warm-up)")
    print("# env " + json.dumps(env))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"error_rate = {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} failed of {attempted} attempted)")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process, so one workload's allocations and
    imports do not carry into the next; then one table of every metric."""
    results = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))],
                              capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}", file=sys.stderr)
            return 1
        results[workload] = json.loads(lines[-1])
    names = list(results["rows"]["metrics"])
    print(f"{'metric':34s}{'unit':>7s}" + "".join(f"{w:>14s}" for w in results))
    for name in names:
        unit = results["rows"]["metrics"][name]["unit"]
        print(f"{name:34s}{unit:>7s}" + "".join(
            f"{r['metrics'][name]['value']:14.6g}" for r in results.values()))
    print(f"{'error_rate':34s}{'ratio':>7s}" + "".join(
        f"{r['failed'] / r['attempted']:14.6g}" for r in results.values()))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()}}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny job sizes, for the self-test (no recorded digests)")
    parser.add_argument("--record-golden", action="store_true",
                        help="store this run's digests in golden.json (default seed only)")
    args = parser.parse_args(argv)
    if args.record_golden and (args.seed != DEFAULT_SEED or args.tiny):
        parser.error("--record-golden needs the default seed and full sizes")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.tiny, args.record_golden)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
