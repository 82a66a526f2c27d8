"""A workload's session inside one worker process, after set-up.

Writes the workload's inputs, runs whole rounds of its commands through
``curveforge.cli.main`` until the time is up, checks the artifacts, and
returns the result record that worker.py prints.

Exit code 1 from a command (a ``CurveforgeError``) counts as a failed
operation; any other exception ends the worker with a traceback, because it
is a bug rather than a domain failure.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
import time
from collections import defaultdict
from pathlib import Path

import click

from speed import SpeedProbe
from tracer import LAYER_METRICS, Tracer, self_test
from workloads import EVALUATIONS, WORKLOADS, Check, Evaluations, read_log, round_argv


class Runner:
    """Runs whole rounds of a workload's commands and accounts for them."""

    def __init__(self, cli, workload, workdir: Path, evaluations):
        self.cli = cli
        self.workload = workload
        self.workdir = workdir
        self.evaluations = evaluations
        self.commands_run = 0
        self.failed_commands = 0

    def run_command(self, main, argv):
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                main(argv, standalone_mode=False)
        except click.ClickException as exc:
            if exc.exit_code != 1:
                raise  # a usage error is a bug in the benchmark
            self.failed_commands += 1
        self.commands_run += 1

    def run_rounds(self, tag: str, n_rounds=None, seconds=None, tracer=None):
        """Run rounds until ``n_rounds`` are done or ``seconds`` have passed
        (at least one); return (round dirs, [(kind, units, start, end)])."""
        main = self.cli.main
        rdirs, timings, wall = [], [], 0.0
        while not rdirs or (len(rdirs) < n_rounds if n_rounds else wall < seconds):
            rdir = self.workdir / f"{tag}{len(rdirs)}"
            rdir.mkdir()
            os.chdir(rdir)
            for i, command in enumerate(self.workload.commands):
                if tracer is not None:
                    tracer.begin_command(i)
                before = self.evaluations.total
                start = time.monotonic()
                self.run_command(main, round_argv(command, i))
                end = time.monotonic()
                units = command.units
                if units == EVALUATIONS:
                    units = self.evaluations.total - before
                timings.append((command.kind, units, start, end))
                wall += end - start
            rdirs.append(rdir)
        return rdirs, timings


def account(timings, probe=None) -> dict[str, list[float]]:
    """Per kind: [units, raw seconds, normalized seconds]; without a
    probe the normalized time is the raw time."""
    work = defaultdict(lambda: [0.0, 0.0, 0.0])
    for kind, units, start, end in timings:
        if probe is None:
            raw = normalized = end - start
        else:
            raw, normalized = probe.normalize(start, end)
        entry = work[kind]
        entry[0] += units
        entry[1] += raw
        entry[2] += normalized
    return dict(work)


def geometric_mean_rate(work, column: int) -> float:
    """Geometric mean over the command kinds that count work of units per
    second, so that the mix of kinds in one run cannot move the figure."""
    logs = [math.log(entry[0] / entry[column]) for entry in work.values() if entry[0]]
    return math.exp(sum(logs) / len(logs))


def same_files(a: Path, b: Path) -> bool:
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    return files_a == files_b and all(
        (a / f).read_bytes() == (b / f).read_bytes() for f in files_a)


def determinism_checks(runner, rdirs) -> list[Check]:
    """Every round must leave byte-identical artifacts (run logs included);
    with a single round, one command is re-run and must log the same line."""
    checks = [Check(f"determinism.round{k}", same_files(rdirs[0], rdir), "")
              for k, rdir in enumerate(rdirs[1:], start=1)]
    if checks:
        return checks
    workload = runner.workload
    index = workload.repeat
    rdir = runner.workdir / "repeat"
    rdir.mkdir()
    os.chdir(rdir)
    runner.run_command(runner.cli.main, round_argv(workload.commands[index], index))
    first = read_log(rdirs[0] / f"c{index}")
    again = read_log(rdir / f"c{index}")
    checks.append(Check("determinism.repeated_command_log_line", first == again,
                        workload.commands[index].kind))
    return checks


def run(cli, workload_name: str, seed: int, seconds: float, trace: bool,
        workdir: Path) -> dict:
    # run.py pins the worker to one CPU; its speed probe runs there too
    cpu = max(os.sched_getaffinity(0))
    workload = WORKLOADS[workload_name](workdir, seed)
    evaluations = Evaluations()
    runner = Runner(cli, workload, workdir, evaluations)
    result = {"cpu": cpu}
    if trace:
        # an untraced half, then as many rounds again with tracing on
        rdirs, timings = runner.run_rounds("r", seconds=seconds / 2)
        tracer = Tracer()
        tracer.install(evaluations)
        try:
            traced_dirs, traced = runner.run_rounds("t", n_rounds=len(rdirs), tracer=tracer)
        finally:
            tracer.uninstall()
        layers = tracer.metrics(sum(e - s for _, _, s, e in traced),
                                sum(e - s for _, _, s, e in timings),
                                runner.failed_commands)
        checks = self_test(workload.name, layers)
        checks += [Check(f"trace.artifacts_identical.round{k}", same_files(u, t), "")
                   for k, (u, t) in enumerate(zip(rdirs, traced_dirs))]
        result["layers"] = {name: {"value": value, "unit": LAYER_METRICS[name]}
                            for name, value in layers.items()}
        result["spans"] = tracer.spans
        work = account(timings)
    else:
        with SpeedProbe(cpu, dict(os.environ)) as probe:
            rdirs, timings = runner.run_rounds("r", seconds=seconds)
        work = account(timings, probe)
        result["speed_slowdown"] = probe.slowdown()
        checks = []
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["work_per_s"] = geometric_mean_rate(work, 2)
    result["work_per_s_raw"] = geometric_mean_rate(work, 1)
    result["work"] = work
    result["rounds"] = len(rdirs)
    result["headline"] = workload.headline(work, len(rdirs))

    checks = workload.check(rdirs[0]) + determinism_checks(runner, rdirs) + checks
    result["commands"] = runner.commands_run
    result["failed_commands"] = runner.failed_commands
    result["checks"] = [[c.name, bool(c.ok), c.detail] for c in checks]
    result["info"] = workload.info
    return result
