#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the wrapper service.

Run from the repository root::

    python3 e2ebench/run.py --workload mixed-batch --seed 1 --seconds 40 --trace 0
    python3 e2ebench/run.py --workload serve-http --seed 1 --seconds 40 --trace 1
    python3 e2ebench/run.py --steady 5 --workload mixed-batch --seconds 40
    python3 e2ebench/run.py --self-test

A run builds the program from ``src/`` in the same checkout, sets up
(induce, fit, compile), runs the workload and checks every output
against the reference ``ExtractionProcessor``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``).  The line before it is a ``report`` object with host
facts, the host-speed probe, sample counts and tail percentiles.  An
incorrect output fails the run: exit status 1, with the offending
pages named on standard error.

``--steady N`` repeats each named workload N times with seeds 1..N and
prints, per end-to-end metric, the median, quartiles and spread against
the bound in ``BENCHMARK.json``, with the host-speed probe of each run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TOOLS = ROOT / "tools"
WORKLOAD_NAMES = ("mixed-batch", "serve-http")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="repeat each workload N times and report spreads")
    parser.add_argument("--self-test", action="store_true",
                        help="run the corpus self-tests")
    return parser.parse_args(argv)


def _terminate(signum, frame):
    # Unwind through the finally blocks that stop the server process; a
    # second signal must not cut that clean-up short.
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    raise SystemExit(128 + signum)


def _child_pids() -> list[int]:
    """Processes whose parent is this one, read from ``/proc``."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as stream:
                stat = stream.read()
        except OSError:
            continue  # ended meanwhile
        # Fields after the parenthesised command: state, ppid, ...
        if int(stat.rpartition(")")[2].split()[1]) == me:
            pids.append(int(entry))
    return pids


def _stop_children(grace: float = 5.0) -> None:
    """Stop every process this one started and wait until each has ended.

    The process pool's shared-memory transport starts multiprocessing's
    resource tracker, which would otherwise outlive this process by a
    moment; it is asked to stop first, so that it unlinks what it tracks.
    Anything else still running gets SIGTERM, then SIGKILL after *grace*
    seconds, and is waited for.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        try:
            tracker._resource_tracker._stop()
        except (OSError, ChildProcessError):
            pass  # already gone
    pending = _child_pids()
    for pid in pending:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + grace
    while pending:
        still = []
        for pid in pending:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                continue  # reaped elsewhere
            if not done:
                still.append(pid)
        pending = still
        if pending and time.monotonic() > deadline:
            for pid in pending:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            for pid in pending:
                try:
                    os.waitpid(pid, 0)
                except ChildProcessError:
                    pass
            pending = []
        elif pending:
            time.sleep(0.05)


def _benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as stream:
        return json.load(stream)


def run_one(args) -> int:
    """One workload run; prints the report and result lines."""
    import stats
    import workloads

    (name,) = args.workload
    spec = _benchmark_spec()
    catalogue = spec["per_layer" if args.trace else "end_to_end"]
    with open(HERE / "workloads.json", encoding="utf-8") as stream:
        config = json.load(stream)
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    run = workloads.Run(args.seed, args.seconds, config, workdir, SRC)
    probe_before = stats.host_probe()
    try:
        outcome = workloads.WORKLOADS[name](run, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    probe_after = stats.host_probe()
    gate = outcome.gate
    metrics = {}
    for metric in catalogue:
        key = metric["name"]
        if key in outcome.metrics:
            value = outcome.metrics[key]
        elif key in outcome.not_applicable:
            value = 0.0
        else:
            raise RuntimeError(f"{name}: metric {key} was not measured")
        metrics[key] = {"value": float(value), "unit": metric["unit"]}
    report = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": stats.host_info(),
        "host_probe_s": {"before": probe_before, "after": probe_after},
        "not_applicable": sorted(outcome.not_applicable),
        "violations": gate.violations, **outcome.report,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    if not gate.correct:
        for violation in gate.violations:
            print(f"incorrect: {violation}", file=sys.stderr)
        return 1
    return 0


def run_steady(args) -> int:
    """Repeat workloads over seeds; print medians, quartiles, spreads."""
    import stats

    spec = _benchmark_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for name in args.workload or WORKLOAD_NAMES:
        results, probes = [], []
        for seed in range(1, args.steady + 1):
            completed = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False,
            )
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or len(lines) < 2:
                print(f"{name} seed {seed}: failed ({completed.returncode})")
                status = 1
                continue
            results.append(json.loads(lines[-1]))
            probes.append(json.loads(lines[-2])["report"]["host_probe_s"])
        if len(results) < 2:
            continue
        print(f"== {name}: {len(results)} runs, all correct: "
              f"{all(r['correct'] for r in results)}")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            mid, q1, q3, share = stats.spread(values)
            verdict = "ok" if share <= bound / 3 else (
                "within bound" if share <= bound else "TOO NOISY")
            print(f"  {metric:14s} median {mid:12.5g}  q1 {q1:12.5g}  "
                  f"q3 {q3:12.5g}  spread {share:7.2%}  bound {bound:.0%}  {verdict}")
        print("  host probe s (before/after): " + ", ".join(
            f"{p['before']:.4f}/{p['after']:.4f}" for p in probes))
    return status


def main(argv=None) -> int:
    """Entry point; see the module docstring."""
    args = _parse(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not (SRC / "repro").is_dir() or not (TOOLS / "lint_rule_families.py").is_file():
        print(f"benchmark needs the program sources under {SRC} and {TOOLS}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC), str(TOOLS)]
    signal.signal(signal.SIGTERM, _terminate)
    try:
        if args.self_test:
            import selftest

            return selftest.main()
        if args.steady:
            return run_steady(args)
        if not args.workload or len(args.workload) != 1:
            print("name exactly one --workload", file=sys.stderr)
            return 2
        return run_one(args)
    finally:
        _stop_children()


if __name__ == "__main__":
    sys.exit(main())
