"""Run one benchmark workload against this checkout and print its metrics.

    python3 benchmarks/run.py --workload fit --seed 0 --seconds 10 --trace 0

The program is imported from ``src/`` of the checkout in fresh worker
processes (see worker.py) with the numeric thread pools pinned to one
thread, one worker at a time.  Set-up time is the median over several
workers of the time from process start to ``curveforge.cli`` being
imported.  Command times are normalized by a machine-speed probe that runs
in its own process on the worker's CPU (speed.py) and are reported raw
beside it.  With ``--trace 0`` the end-to-end metrics are reported; with
``--trace 1`` the same rounds run untraced and then traced, and the
per-layer metrics are reported.  Every figure is printed by name with its
unit, the run environment is printed as one JSON line, and the last line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  A full
record (environment, checks, per-kind work, spans) is written to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import INTERVAL_S, NOMINAL_S, REPEATS, SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# workloads.py imports the program, which this process never does
WORKLOADS = ("oracle", "fit", "calibrate", "surface")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
THREADS = 1
SETUP_PROBES = 8  # import-only workers, half before and half after the measuring one
DEADLINE_S = 160.0  # for the measuring worker; each later probe gets 5 s more
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}


class WorkerError(RuntimeError):
    """A worker or the speed probe failed; the run ends without a result."""


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.update({var: str(THREADS) for var in THREAD_VARS})
    return env


def start_worker(args: list[str], deadline: float, cpu: int):
    """Start a worker pinned to ``cpu`` and wait for its READY line; return
    (process, (start, ready) in ``time.monotonic`` seconds)."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT, text=True,
        start_new_session=True, preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    timeout = max(deadline - time.monotonic(), 5.0)
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    line = proc.stdout.readline().strip() if ready else ""
    setup = (start, time.monotonic())
    if line != "READY":
        stop(proc)
        raise WorkerError(f"worker did not become ready (got {line!r})")
    return proc, setup


def stop(proc):
    """Kill a worker that is still running, with its speed probe, and wait."""
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(args) -> dict:
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }
    for package in ("numpy", "scipy", "click"):
        env[package] = importlib.metadata.version(package)
    env["git_commit"] = git_commit()
    env["threads"] = {var: str(THREADS) for var in THREAD_VARS}
    env["workers_at_once"] = 1
    env["speed_probe"] = {"nominal_s": NOMINAL_S, "interval_s": INTERVAL_S,
                          "repeats": REPEATS}
    return env


def probe_setups(n: int, deadline: float, cpu: int) -> list[tuple[float, float]]:
    """Start ``n`` import-only workers one after another, with the speed
    probe on their CPU; return (raw, normalized) set-up seconds of each."""
    if not n:
        return []
    marks = []
    with SpeedProbe(cpu, worker_env()) as probe:
        for _ in range(n):
            proc, mark = start_worker(["--probe"], deadline, cpu)
            try:
                proc.wait(timeout=max(deadline - time.monotonic(), 5.0))
            except subprocess.TimeoutExpired:
                raise WorkerError("an import-only worker did not exit") from None
            finally:
                stop(proc)
            marks.append(mark)
    return [probe.normalize(*mark) for mark in marks]


def run_workload(args, workdir: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    cpu = max(os.sched_getaffinity(0))
    # import-only workers before and after the measuring one, so that the
    # set-up samples span the run rather than one moment of it; set-up time
    # is an end-to-end metric, so a traced run does not measure it
    n_setups = 0 if args.trace else SETUP_PROBES
    setups = probe_setups(n_setups // 2, deadline, cpu)
    proc, _ = start_worker(
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--workdir", str(workdir)], deadline, cpu)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker ran past {DEADLINE_S:.0f} s") from None
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    lines = [line for line in out.splitlines() if line.startswith("RESULT ")]
    if not lines:
        raise WorkerError("worker printed no result")
    setups += probe_setups(n_setups - n_setups // 2, deadline, cpu)
    result = json.loads(lines[-1][len("RESULT "):])
    if setups:
        result["setups_s"] = setups
        result["setup_s_raw"] = statistics.median(raw for raw, _ in setups)
        result["setup_s"] = statistics.median(normalized for _, normalized in setups)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "curveforge" / "cli.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'curveforge'}", file=sys.stderr)
        return 2

    env = environment(args)
    workdir = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result = run_workload(args, workdir)
    except RuntimeError as exc:  # WorkerError, or the speed probe failing
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = result["checks"]
    failed_checks = [c for c in checks if not c[1]]
    attempted = result["commands"] + len(checks)
    failed = result["failed_commands"] + len(failed_checks)
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = {name: {"value": result[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    name, value, unit = result["headline"]
    figures = {name: {"value": value, "unit": unit},
               "ops_failed_ratio": {"value": failed / attempted, "unit": "ratio"},
               "work_per_s_raw": {"value": result["work_per_s_raw"], "unit": "1/s"}}
    for key, unit in (("setup_s_raw", "s"), ("speed_slowdown", "ratio")):
        if key in result:  # untraced runs only
            figures[key] = {"value": result[key], "unit": unit}
    figures.update({k: {"value": v, "unit": ""} for k, v in result["info"].items()})

    for label, table in (("metric", metrics), ("figure", figures)):
        for key, entry in table.items():
            print(f"{label} {key} = {entry['value']:.6g} {entry['unit']}".rstrip())
    for kind, (units, raw, normalized) in sorted(result["work"].items()):
        print(f"kind {kind}: {units:.0f} units in {raw:.4f} s "
              f"({normalized:.4f} s normalized)")
    for check in failed_checks:
        print(f"CHECK FAILED {check[0]}: {check[2]}")
    print(f"{len(checks) - len(failed_checks)}/{len(checks)} checks passed, "
          f"{result['failed_commands']}/{result['commands']} commands failed, "
          f"{result['rounds']} rounds")
    print("env " + json.dumps(env, sort_keys=True))

    record_path = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record = {"env": env, "metrics": metrics, "figures": figures, **result}
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
