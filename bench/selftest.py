"""Fast self-test of the benchmark itself.

    python3 bench/selftest.py

Runs every workload at tiny sizes, with and without tracing, and checks
that each emits exactly the metrics BENCHMARK.json names, with their
units.  Then proves the correctness gate can fail: a run against one
deliberately corrupted digest must report a failed job and a non-zero
error_rate.  Last, a copy of the benchmark without the program's sources
must exit non-zero without printing a result.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import jobs as workloads
import run as bench


def require(condition: bool, message: str):
    if not condition:
        raise SystemExit(f"selftest: FAIL: {message}")


def run_script(script, *args, cwd=None):
    return subprocess.run([sys.executable, str(script), *args], capture_output=True,
                          text=True, timeout=170, cwd=cwd)


def metrics_match_spec(spec: dict):
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run_script(bench.BENCH / "run.py", "--workload", workload, "--tiny",
                              "--seconds", "0", "--trace", str(trace))
            label = f"{workload} --trace {trace}"
            require(proc.returncode == 0, f"{label} exited {proc.returncode}: {proc.stderr[-500:]}")
            result = json.loads(proc.stdout.splitlines()[-1])
            require(set(result) == {"correct", "attempted", "failed", "metrics"},
                    f"{label} result keys {sorted(result)}")
            require(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                    f"{label} failed jobs: {proc.stderr[-500:]}")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            require(units == wanted[trace], f"{label} metrics differ from BENCHMARK.json: "
                    f"{sorted(set(units.items()) ^ set(wanted[trace].items()))}")
            require("error_rate = 0 ratio" in proc.stdout, f"{label} printed no error_rate")
            print(f"selftest: {label}: {len(units)} metrics, {result['attempted']} jobs ok")


def corrupted_digest_raises_error_rate():
    workload, seed = "soup", 3
    workdir = bench.BENCH / "_work" / "selftest-digests"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cli = bench.load_program()["cli"]
        digests = {}
        for job in workloads.build(workload, seed, workdir, bench.FIXTURES, tiny=True):
            _, out, error = bench.execute(cli, job, workdir)
            require(error is None, f"{job.id}: {error}")
            digests[job.id] = bench.digest(out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    victim = sorted(digests)[0]
    digests[victim] = "0" * 64
    with redirect_stdout(io.StringIO()) as printed, redirect_stderr(io.StringIO()):
        result = bench.run_workload(workload, seed, 0, False, tiny=True, recorded=digests)
    require(not result["correct"] and result["failed"] >= 1,
            f"a corrupted digest for {victim} did not fail the run: {result}")
    line = next(line for line in printed.getvalue().splitlines()
                if line.startswith("error_rate = "))
    require(float(line.split()[2]) > 0, f"error_rate stayed 0: {line}")
    print(f"selftest: corrupted digest of {victim}: {line}")


def fails_without_sources():
    copy = bench.BENCH / "_work" / "selftest-bare"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(bench.BENCH, copy / "bench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", copy)
    try:
        proc = run_script("bench/run.py", "--workload", "rows", "--seconds", "1",
                          "--trace", "0", cwd=copy)
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    require(proc.returncode != 0 and not proc.stdout.strip(),
            f"run without sources exited {proc.returncode} with {proc.stdout[-200:]!r}")
    print(f"selftest: without sources: exit {proc.returncode}, no result")


def main():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    metrics_match_spec(spec)
    corrupted_digest_raises_error_rate()
    fails_without_sources()
    print("selftest: ok")


if __name__ == "__main__":
    main()
