"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload paper-replay --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` wraps each layer's entry points (see ``layers.py``), runs
traced passes for half the window and untraced passes for the other
half, and reports the per-layer ledger plus the tracing overhead.  Both
modes check every simulated output (see ``workloads.py``) and print a
readable table on stderr; the last stdout line is the JSON result.  Run
details, provenance and raw spans go to ``.perfbench/``.

``--record`` stores this seed's cell digests in ``digests.json`` (run it
only on a tree whose outputs are known to be right).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import calibrate

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
OUT = ROOT / ".perfbench"
#: Set-ups per run, spread over the measured window; ``setup_s`` is their median.
SETUP_REPEATS = 11


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=20
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance() -> dict:
    import numpy

    from repro.harness.runner import code_fingerprint

    rev = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if rev is not None else None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_rev": rev,
        "git_dirty": bool(status) if status is not None else None,
        "code_fingerprint": code_fingerprint(),
    }


def run_passes(workload, seconds: float, tag: str, between) -> tuple[list, float]:
    """Whole passes until ``seconds`` of host time are spent in them (at least one).

    ``between(share)`` runs after each pass with the share of ``seconds``
    the passes have spent so far; its own time is not counted.  Returns
    the passes and the peak resident set after the first one, in MB:
    later passes must not move it (the service keeps every job it
    answered, so the process grows with the number of passes).
    """
    runs = []
    spent = 0.0
    while not runs or spent < seconds:
        started = time.perf_counter()
        runs.append(workload.run_pass(len(runs), f"{tag}{len(runs) + 1}"))
        spent += time.perf_counter() - started
        if len(runs) == 1:
            peak_mb = _peak_rss_mb()
        between(min(spent / seconds, 1.0))
    return runs, peak_mb


class SetUps:
    """The run's set-ups, spread over its measured window.

    Host time on a shared machine swings from second to second, and a
    set-up lasts about a second, so one set-up says little.  The first
    set-up builds the workload the passes run; the others build a
    throwaway copy between passes, at even shares of the window, so no
    one slow stretch lands on all of them.  Imports happen once per
    process; the later set-ups time them in a fresh interpreter.  Each
    set-up is followed by :func:`calibrate.reference_import`, the same
    kind of work, which expresses it at reference speed.
    """

    def __init__(self, cls, seed: int, workdir: pathlib.Path, recorder, import_s: float) -> None:
        self.cls = cls
        self.seed = seed
        self.workdir = workdir
        self.recorder = recorder
        self.parts = []
        self.workload = self._set_up(workdir, import_s)

    def _set_up(self, workdir: pathlib.Path, import_s: float):
        workload = self.cls(self.seed, workdir, self.recorder)
        started = time.perf_counter()
        parts = workload.setup()
        parts["total_s"] = time.perf_counter() - started
        parts["import_s"] = import_s
        parts["ref_import_s"] = calibrate.reference_import()
        self.parts.append(parts)
        return workload

    def due(self, share: float) -> None:
        """Set up again until ``share`` of the window has its share of set-ups."""
        while len(self.parts) < 1 + int(share * (SETUP_REPEATS - 1)):
            if self.recorder is not None:
                self.recorder.cell = "setup"  # keeps these spans out of the ledger
            spare = self.workdir / f"setup{len(self.parts)}"
            spare.mkdir()
            self._set_up(spare, _import_seconds()).close()

    def host_s(self) -> float:
        """Median host seconds of one set-up, imports included."""
        return statistics.median(part["import_s"] + part["total_s"] for part in self.parts)

    def ref_s(self) -> float:
        """Median seconds of one set-up at reference speed: each set-up over
        the reference import timed right after it."""
        return calibrate.REFERENCE_IMPORT_S * statistics.median(
            (part["import_s"] + part["total_s"]) / part["ref_import_s"] for part in self.parts
        )

    def median_parts(self) -> dict:
        return {key: statistics.median(part[key] for part in self.parts) for key in self.parts[0]}


def _peak_rss_mb() -> float:
    """The process's resident-set high-water mark so far, in MB."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def raw_rate(runs: list) -> float:
    """Simulated requests per host second of one pass."""
    from workloads import timed_s

    return runs[0].requests / timed_s(runs)


def _import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the benchmark and the program."""
    code = (
        "import sys, time; started = time.perf_counter(); "
        f"sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]; "
        "import workloads; print(time.perf_counter() - started)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout)


def check_digests(name: str, seed: int, runs: list, record: bool) -> tuple[int, int, list, bool]:
    """Every pass must agree with the first, and with the recorded digests.

    Returns ``(attempted, failed, problems, recorded)``.
    """
    from workloads import pass_digest

    first = pass_digest(runs[0])
    attempted = failed = 0
    problems = []
    for run in runs[1:]:
        attempted += 1
        if pass_digest(run) != first:
            failed += 1
            problems.append("a later pass produced different simulated outputs")
    import numpy

    # Trace synthesis draws from numpy's Generator, whose streams may change
    # between numpy releases: recorded digests hold only under the numpy
    # they were recorded with.
    book = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    book.setdefault("numpy", numpy.__version__)
    cells = book.setdefault("cells", {})
    expected = None
    if book["numpy"] == numpy.__version__:
        expected = cells.get(name, {}).get(str(seed))
    if record:
        book["numpy"] = numpy.__version__
        cells.setdefault(name, {})[str(seed)] = first
        DIGESTS.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")
    elif expected is not None:
        attempted += 1
        if expected != first:
            failed += 1
            changed = sorted(key for key in first if first[key] != expected.get(key))
            problems.append(f"outputs differ from the recorded digests: {changed}")
    return attempted, failed, problems, expected is not None or record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    load_before = os.getloadavg()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    # Anything the program puts in a temporary directory stays in the checkout.
    os.environ["TMPDIR"] = str(workdir)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        return _run(args, workdir, load_before)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: pathlib.Path, load_before) -> int:
    started = time.perf_counter()
    import workloads  # imports the program

    import_s = time.perf_counter() - started
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    recorder = None
    if args.trace:
        import layers
        from spans import SpanRecorder

        recorder = SpanRecorder()
        layers.install(recorder)

    setups = SetUps(workloads.WORKLOADS[args.workload], args.seed, workdir, recorder, import_s)
    workload = setups.workload
    try:
        if args.trace:
            traced, _ = run_passes(workload, args.seconds / 2, "t",
                                   lambda share: setups.due(share / 2))
            refs = workload.references()
            recorder.uninstall()
            untraced, _ = run_passes(workload, args.seconds / 2, "u",
                                     lambda share: setups.due(0.5 + share / 2))
            runs = untraced + traced
        else:
            runs, peak_rss_mb = run_passes(workload, args.seconds, "p", setups.due)
    finally:
        workload.close()
    setup = setups.median_parts()

    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    problems = [problem for run in runs for problem in run.problems]
    checks = check_digests(args.workload, args.seed, runs, args.record)
    attempted += checks[0]
    failed += checks[1]
    problems += checks[2]

    if args.trace:
        metrics = layers.ledger(recorder, traced, untraced, refs, setup)
        measured = untraced
    else:
        measured = runs
        metrics = {
            "setup_s": (setups.ref_s(), "s"),
            "req_per_ref_s": (raw_rate(runs) * workloads.speed(runs), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "load_before": load_before,
        "load_after": os.getloadavg(),
        "setup": setup,
        "setups": setups.parts,
        "digests_recorded": checks[3],
        "passes": [
            {"units": run.units, "requests": run.requests, "extra": run.extra,
             "calibration_s": run.calibration_s,
             "cells": [[cell.label, cell.host_s, cell.requests] for cell in run.cells]}
            for run in runs
        ],
        "error_rate": failed / attempted if attempted else 0.0,
        "problems": problems,
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    if recorder is not None:
        recorder.write(OUT / f"{stem}-spans.jsonl")

    print(f"{args.workload} seed={args.seed} passes={len(measured)} "
          f"attempted={attempted} failed={failed} "
          f"error_rate={details['error_rate']:.4g}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}", file=sys.stderr)
    if not args.trace:
        print(f"  {'host_setup_s':28s} {setups.host_s():14.6g} s (host time)", file=sys.stderr)
        _print_phases(measured)
    for problem in problems[:20]:
        print(f"  problem: {problem}", file=sys.stderr)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


def _print_phases(runs) -> None:
    """The raw host-time figures behind the gated end-to-end metrics."""
    import workloads
    from workloads import timed_s

    print(f"  {'pass_s':28s} {timed_s(runs):14.6g} s (timed units, mean of {len(runs)} passes)",
          file=sys.stderr)
    print(f"  {'req_per_s':28s} {raw_rate(runs):14.6g} 1/s (host time)", file=sys.stderr)
    print(f"  {'speed':28s} {workloads.speed(runs):14.6g} (reference-loop time / REFERENCE_S)",
          file=sys.stderr)
    for key in ("cold_s", "extend_s", "warm_s"):
        values = [run.units.get(key) for run in runs]
        if None not in values:
            print(f"  {key:28s} {statistics.median(values):14.6g} s", file=sys.stderr)
    latencies = sorted(value for run in runs for value in run.latencies_s)
    if len(latencies) > 1:
        p95 = statistics.quantiles(latencies, n=20)[18]
        print(f"  {'warm_p50_ms':28s} {statistics.median(latencies) * 1e3:14.6g} ms "
              f"({len(latencies)} submissions)", file=sys.stderr)
        print(f"  {'warm_p95_ms':28s} {p95 * 1e3:14.6g} ms", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
