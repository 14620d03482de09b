"""Seeded end-to-end benchmark of the ttckit CLI.

    python3 perfbench/run.py --workload road-estimate --seed 1 --seconds 40 --trace 0

Builds the workload's inputs from --seed, then repeats whole rounds of
the workload's CLI commands that fit in --seconds seconds, one command
at a time (closed loop, one client), checking every round's outputs
against the oracle. Each command runs as ``python -m ttckit`` with this
checkout's src/ on PYTHONPATH. Times are scaled by a reference kernel
timed around each command (perfbench.refclock), so that they follow the
program and not the shared host's speed phases.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
runs the same commands in this process through ttckit.cli.main,
alternating untraced rounds with rounds traced by perfbench.trace, and
reports the per-layer metrics.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. Every run also writes a record with all its figures
to perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"
# set up at least 5 times and for at least 0.5 s, and report the median
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 0.5
IMPORT_REPEATS = 5
CLI_TIMEOUT_S = 90.0
# Runs one command in a process forked from this small interpreter and
# writes "<wall seconds> <peak RSS in KiB>" to the descriptor in argv[1].
# A process spawned straight from the benchmark would report at least the
# benchmark's own peak RSS: exec carries the peak of the address space it
# replaces into ru_maxrss, and a child spawned by vfork replaces its parent's.
LAUNCHER = """
import os, sys, time
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        os.close(int(sys.argv[1]))
        os.execv(sys.argv[2], sys.argv[2:])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
os.write(int(sys.argv[1]), f"{time.perf_counter() - start!r} {usage.ru_maxrss}".encode())
sys.exit(os.waitstatus_to_exitcode(status))
"""
IMPORT_PROBE = "import time; t = time.perf_counter(); import ttckit.cli; print(time.perf_counter() - t)"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("COLLISION_PLANE_SEED", None)
    return env


def run_cli(argv: list[str], env: dict, stderr_path: Path) -> tuple[float, float, int]:
    """One ``python -m ttckit`` process, started through LAUNCHER:
    (wall seconds, peak RSS in MB, exit code)."""
    read_fd, write_fd = os.pipe()
    try:
        with open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-I", "-S", "-c", LAUNCHER, str(write_fd), sys.executable, "-m", "ttckit", *argv],
                env=env, stdout=subprocess.DEVNULL, stderr=err, pass_fds=(write_fd,), start_new_session=True,
            )
            os.close(write_fd)
            write_fd = -1
            try:
                proc.wait(timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
            finally:
                if proc.returncode is None:  # timed out, or this process is being stopped
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
            wall = time.perf_counter() - start
        report = os.read(read_fd, 256).split()
    finally:
        os.close(read_fd)
        if write_fd >= 0:
            os.close(write_fd)
    if len(report) != 2:  # the launcher was killed
        return wall, 0.0, proc.returncode or 1
    return float(report[0]), int(report[1]) / 1024.0, proc.returncode


def clear_outputs(workload, work: Path) -> None:
    for name in workload.outputs:
        (work / name).unlink(missing_ok=True)


def timed_rounds(workload, expect, seed: int, work: Path, budget: float):
    """Whole rounds of the workload's commands, as many as fit in budget.

    Each command's wall time is also scaled by the reference kernel timed
    just before and after it (perfbench.refclock).
    """
    from perfbench import refclock

    env = cli_env()
    stderr_path = work / "stderr.txt"
    run_cli(["--help"], env, stderr_path)  # compile bytecode, warm the file cache
    commands = workload.commands(seed, work)
    clock = refclock.ScaledTimer()
    rounds = []
    started = time.perf_counter()
    round_s = 0.0
    while not rounds or time.perf_counter() - started + round_s <= budget:
        round_start = time.perf_counter()
        clear_outputs(workload, work)
        times, scaled, rss, codes = defaultdict(float), defaultdict(float), 0.0, []
        clock.start()
        for label, argv in commands:
            wall, peak, code = run_cli(argv, env, stderr_path)
            times[label] += wall
            scaled[label] += clock.scale(wall)
            rss = max(rss, peak)
            codes.append(code)
        tally = workload.check(expect, work)
        rounds.append({"times": dict(times), "scaled": dict(scaled), "peak_rss_mb": rss, "exit_codes": codes, "tally": tally})
        round_s = max(round_s, time.perf_counter() - round_start)
    return rounds


def untraced_metrics(workload, rounds) -> dict[str, float]:
    """Times are medians over the rounds of the scaled times, which hold
    still while this shared host's speed swings by up to 1.6x between
    phases of seconds to minutes. The raw wall times are recorded beside
    them."""
    walls = [sum(r["times"].values()) for r in rounds]
    metrics = {
        "scaled_wall_s": statistics.median(sum(r["scaled"].values()) for r in rounds),
        "wall_median_s": statistics.median(walls),
        "wall_min_s": min(walls),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    for label in rounds[0]["times"]:
        metrics[f"{label}_s"] = statistics.median(r["scaled"][label] for r in rounds)
    rate_name, items, label = workload.rate
    metrics[rate_name] = items / metrics[f"{label}_s"]
    return metrics


def in_process(commands) -> tuple[float, list[int]]:
    import ttckit.cli

    codes = []
    start = time.perf_counter()
    for _, argv in commands:
        codes.append(ttckit.cli.main(argv))  # looked up per call, so a traced main is used
    return time.perf_counter() - start, codes


def traced_rounds(workload, expect, seed: int, work: Path, budget: float):
    from perfbench import refclock
    from perfbench.trace import Tracer

    sys.path.insert(0, str(SRC))
    import ttckit

    if Path(ttckit.__file__).resolve().parent != SRC / "ttckit":
        raise RuntimeError(f"imported ttckit from {ttckit.__file__}, not from {SRC}")
    env = cli_env()
    imports = [
        float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, check=True, timeout=CLI_TIMEOUT_S).stdout)
        for _ in range(IMPORT_REPEATS)
    ]
    commands = workload.commands(seed, work)
    tracer = Tracer()
    clock = refclock.ScaledTimer()
    rounds = []
    started = time.perf_counter()
    round_s = 0.0
    while not rounds or time.perf_counter() - started + round_s <= budget:
        round_start = time.perf_counter()
        tracer.reset()  # the spans of a finished round would only slow the next ones
        clear_outputs(workload, work)
        clock.start()
        plain, codes = in_process(commands)
        plain_scaled = clock.scale(plain)
        tally = workload.check(expect, work)
        clear_outputs(workload, work)
        clock.start()
        with tracer:
            traced, traced_codes = in_process(commands)
        traced_scaled = clock.scale(traced)
        tally.add(workload.check(expect, work))
        rounds.append({"untraced_s": plain, "traced_s": traced, "exit_codes": codes + traced_codes,
                       "untraced_scaled_s": plain_scaled, "traced_scaled_s": traced_scaled,
                       "tally": tally, "layers": tracer.summary()})
        round_s = max(round_s, time.perf_counter() - round_start)
    tracer.write_spans(OUT / f"{workload.name}-spans.csv")
    return rounds, statistics.median(imports)


def traced_metrics(rounds, import_s: float) -> dict[str, float]:
    metrics = {"cli.import_s": import_s}
    for name in rounds[0]["layers"]:
        metrics[name] = statistics.median(r["layers"][name] for r in rounds)
    hypotheses = metrics["clustering.hypotheses"]
    metrics["clustering.clusters_per_hypothesis"] = metrics["clustering.clusters"] / hypotheses if hypotheses else 0.0
    metrics["untraced_wall_s"] = statistics.median(r["untraced_s"] for r in rounds)
    metrics["traced_wall_s"] = statistics.median(r["traced_s"] for r in rounds)
    # scaled like the end-to-end times, so a slow phase in one of the two does not count
    metrics["trace.overhead_s"] = (statistics.median(r["traced_scaled_s"] for r in rounds)
                                   - statistics.median(r["untraced_scaled_s"] for r in rounds))
    return metrics


def unit_of(name: str) -> str:
    """Unit of a recorded metric that BENCHMARK.json does not list."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM unwind through the finally blocks that stop a running CLI process
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "ttckit" / "__init__.py").is_file():
        print(f"error: no ttckit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    import numpy as np

    from perfbench import refclock
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    work = OUT / "work" / f"{workload.name}-seed{args.seed}"
    work.mkdir(parents=True, exist_ok=True)

    clock = refclock.ScaledTimer()
    setups, scaled_setups = [], []
    while len(setups) < SETUP_MIN_REPEATS or sum(setups) < SETUP_MIN_SECONDS:
        t0 = time.perf_counter()
        expect = workload.build(args.seed, work)
        setups.append(time.perf_counter() - t0)
        scaled_setups.append(clock.scale(setups[-1]))

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        rounds, import_s = traced_rounds(workload, expect, args.seed, work, args.seconds)
        metrics = traced_metrics(rounds, import_s)
        reported = [m["name"] for m in spec["per_layer"]]
    else:
        rounds = timed_rounds(workload, expect, args.seed, work, args.seconds)
        metrics = untraced_metrics(workload, rounds)
        metrics["setup_s"] = statistics.median(scaled_setups)
        metrics["setup_raw_s"] = statistics.median(setups)
        reported = [m["name"] for m in spec["end_to_end"]]

    attempted = sum(r["tally"].attempted for r in rounds)
    failed = sum(r["tally"].failed for r in rounds)
    wrong = sum(r["tally"].wrong for r in rounds)
    errors = [e for r in rounds for e in r["tally"].errors][:10]
    for message in errors:
        print(f"check: {message}", file=sys.stderr)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(rounds),
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "wrong_checks": wrong,
        "errors": errors,
        "exit_codes": [r["exit_codes"] for r in rounds],
        "round_times": [r.get("times") or {"untraced": r["untraced_s"], "traced": r["traced_s"]} for r in rounds],
        "round_scaled_times": [r["scaled"] for r in rounds if "scaled" in r],
        "setup_s_each": setups,
        "setup_scaled_s_each": scaled_setups,
        "metrics": {name: {"value": value, "unit": units.get(name) or unit_of(name)} for name, value in metrics.items()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_lines": src_lines(),
    }
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    shutil.rmtree(work)
    result = {
        "correct": record["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in reported},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
