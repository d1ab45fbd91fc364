"""Run one emlang benchmark workload and print its metrics.

    python3 bench/run.py --workload extract-noisy --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 5 --trace 0

Run it from the repository root; the program is imported from ``src/``.
Inputs are generated from ``--seed`` (see ``workloads.py``) into
``.bench_work/`` and removed afterwards.  Children run one at a time, each
in a fresh interpreter with numeric thread pools limited to one thread.

``--trace 0`` measures the end-to-end metrics on untraced CLI processes,
in reference seconds: every CLI run and set-up probe is divided by a run of
the fixed ``reference.py`` made next to it, so the host's speed drift
cancels (raw seconds are printed in the statistics line):

* ``setup_s``: median ratio of the set-up probe (``probe.py``: import,
  ``parse_schema``, ``load_corpus``), launch to exit;
* ``wall_s``, ``cpu_s``: median ratio of CLI wall and CPU time (``os.wait4``);
* ``peak_rss_mb``: median peak RSS of the CLI runs;
* ``throughput``: the workload's units (records, pairs or episodes) per
  reference second of ``wall_s``.

``--trace 1`` alternates untraced runs with traced replays
(``tracing.py``) and reports the median of each per-layer metric, plus the
tracing overhead (traced minus untraced median wall time).

Every CLI output is checked; a non-zero exit, a timeout or a failed check
counts in ``failed``.  The last line of standard output is the result
object; the line before it holds the provenance and the run statistics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 7
MIN_RUNS = 3
CHILD_TIMEOUT_S = 60.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {
    "wall_s": "s",
    "throughput": "units/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER_UNITS = {name: unit for name, unit, *_ in tracing.PER_LAYER}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    timed_out: bool
    stderr: str


def child_env() -> dict[str, str]:
    env = {
        "PATH": os.environ.get("PATH", os.defpath),
        "LANG": "C.UTF-8",
        "LC_ALL": "C.UTF-8",
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "PYTHONNOUSERSITE": "1",
    }
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


class Launcher:
    """The helper process (``launch.py``) that starts every measured child."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "launch.py")], cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], env: dict[str, str], stdout: Path, stderr: Path) -> ChildRun:
        request = {"argv": argv, "cwd": str(ROOT), "env": env, "stdout": str(stdout),
                   "stderr": str(stderr), "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError("the launcher exited")
        return ChildRun(**json.loads(reply),
                        stderr=stderr.read_text(encoding="utf-8", errors="replace")[-500:])

    def close(self, normally: bool) -> None:
        """Stop the helper; on an abnormal exit it kills the running child first."""
        if normally:
            self.proc.stdin.close()
        else:
            self.proc.terminate()
        self.proc.wait()
        self.proc.stdout.close()


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def source_digest() -> str:
    """SHA-256 over the program's sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def tail(values: list[float]) -> dict:
    """The highest percentile with at least ten runs beyond it, if any."""
    ordered = sorted(values)
    k = len(ordered) - 10
    if k < 1:
        return {"percentile": None, "value": None, "runs": len(ordered)}
    return {"percentile": 100.0 * k / len(ordered), "value": ordered[k - 1], "runs": len(ordered)}


class Session:
    """One workload at one seed: inputs, child processes and their tallies."""

    def __init__(self, launcher: Launcher, name: str, seed: int, work: Path):
        self.launcher, self.name, self.seed, self.work = launcher, name, seed, work
        self.env = child_env()
        self.prepared = workloads.WORKLOADS[name](seed, work)
        self.attempted = 0
        self.failures: list[str] = []
        self.children = 0
        self.versions: dict = {}

    def _paths(self, tag: str) -> tuple[Path, Path]:
        self.children += 1
        return (self.work / f"{tag}-{self.children}.out", self.work / f"{tag}-{self.children}.err")

    def probe(self) -> ChildRun:
        stdout, stderr = self._paths("probe")
        files = self.prepared.files
        run = self.launcher.run([sys.executable, str(BENCH / "probe.py"), str(files["schema"]),
                                 str(files["corpus"])], self.env, stdout, stderr)
        if run.exit_code != 0:
            raise BenchError(f"set-up probe failed ({run.exit_code}): {run.stderr}")
        self.versions = json.loads(stdout.read_text(encoding="utf-8").splitlines()[-1])
        if Path(self.versions["emlang"]) != (ROOT / "src" / "emlang").resolve():
            raise BenchError(f"emlang imported from {self.versions['emlang']}, not {ROOT / 'src'}")
        return run

    def reference(self) -> ChildRun:
        stdout, stderr = self._paths("reference")
        run = self.launcher.run([sys.executable, str(BENCH / "reference.py")], self.env,
                                stdout, stderr)
        if run.exit_code != 0:
            raise BenchError(f"reference run failed ({run.exit_code}): {run.stderr}")
        return run

    def cli(self, run_index: int, traced: bool) -> tuple[ChildRun, bool, dict | None]:
        """One CLI invocation, untraced or as a traced replay, with its check.

        Returns the run, whether it passed, and the trace of a passing traced run.
        """
        out, stderr = self._paths("traced" if traced else "cli")
        args = self.prepared.argv(self.seed * 1000 + run_index, out)
        trace_path = out.with_suffix(".trace.json")
        if traced:
            argv = [sys.executable, str(BENCH / "tracing.py"), str(trace_path), *args]
        else:
            argv = [sys.executable, "-m", "emlang", *args]
        run = self.launcher.run(argv, self.env, self.work / "stdout", stderr)
        self.attempted += 1
        failure = None
        if run.timed_out:
            failure = "timed out"
        elif run.exit_code != 0:
            failure = f"exit {run.exit_code}: {run.stderr}"
        else:
            try:
                self.prepared.check(out.read_text(encoding="utf-8"))
            except workloads.CheckFailed as exc:
                failure = f"check: {exc}"
            except Exception as exc:  # a malformed output must not stop the run
                failure = f"check crashed: {exc!r}"
        if failure is not None:
            self.failures.append(f"run {run_index}{' (traced)' if traced else ''}: {failure}")
            return run, False, None
        trace = json.loads(trace_path.read_text(encoding="utf-8")) if traced else None
        out.unlink()
        return run, True, trace

    def provenance(self) -> dict:
        return {
            "workload": self.name,
            "seed": self.seed,
            "commit": git_commit(),
            "source_sha256": source_digest(),
            "python": self.versions.get("python"),
            "numpy": self.versions.get("numpy"),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg": os.getloadavg(),
            "inputs": {
                role: {"file": path.name, "bytes": path.stat().st_size, "sha256": sha256(path)}
                for role, path in self.prepared.files.items()
            },
            "runs": self.attempted,
            "child_env": self.env,
            "fail_ratio": len(self.failures) / self.attempted if self.attempted else None,
            "failures": self.failures[:5],
        }


def measure_untraced(session: Session, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics in reference seconds.

    Each CLI run is paired with a run of ``reference.py`` just before or just
    after it, alternately, and each set-up probe with the reference run of
    its iteration; a metric is the median of the per-pair ratios.  On a
    shared 2-vCPU VM the host's speed drifted by up to 1.8x within minutes;
    the ratio cancels that drift where raw seconds cannot.  Raw seconds go
    to the statistics.
    """
    start = time.perf_counter()
    deadline = start + seconds
    setups: list[tuple[ChildRun, ChildRun]] = []  # (probe, reference)
    pairs: list[tuple[ChildRun, ChildRun]] = []  # (CLI run, reference)
    laps: list[float] = []
    while len(laps) < MIN_RUNS or time.perf_counter() + statistics.median(laps) <= deadline:
        lap = time.perf_counter()
        # spread the set-up probes over the window, so one slow spell cannot hold them all
        due = 1 + (SETUP_PROBES - 1) * (lap - start) / seconds
        probe = session.probe() if len(setups) < min(due, SETUP_PROBES) else None
        if len(laps) % 2 == 0:
            reference = session.reference()
            run, ok, _ = session.cli(len(laps), traced=False)
        else:
            run, ok, _ = session.cli(len(laps), traced=False)
            reference = session.reference()
        laps.append(time.perf_counter() - lap)
        if probe is not None:
            setups.append((probe, reference))
        if ok:
            pairs.append((run, reference))
        if run.timed_out:
            break
    while len(setups) < SETUP_PROBES:
        setups.append((session.probe(), session.reference()))
    if not pairs:
        raise BenchError("no CLI run succeeded: " + "; ".join(session.failures[:3]))

    def ratios(of: list[tuple[ChildRun, ChildRun]], field: str) -> list[float]:
        return [getattr(run, field) / getattr(ref, field) for run, ref in of]

    walls = ratios(pairs, "wall_s")
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "throughput": session.prepared.units / wall,
        "cpu_s": statistics.median(ratios(pairs, "cpu_s")),
        "peak_rss_mb": statistics.median(run.peak_rss_mb for run, _ in pairs),
        "setup_s": statistics.median(ratios(setups, "wall_s")),
    }
    raw_walls = [run.wall_s for run, _ in pairs]
    references = [ref.wall_s for _, ref in pairs]
    raw_setups = [probe.wall_s for probe, _ in setups]
    stats = {
        "units": {"count": session.prepared.units, "of": session.prepared.unit_name},
        "wall_s": {"quartiles": quartiles(walls), "tail": tail(walls)},
        "measured_seconds": {
            "wall_s": {"median": statistics.median(raw_walls), "quartiles": quartiles(raw_walls),
                       "tail": tail(raw_walls)},
            "cpu_s": statistics.median(run.cpu_s for run, _ in pairs),
            "setup_s": {"median": statistics.median(raw_setups), "quartiles": quartiles(raw_setups),
                        "runs": len(raw_setups)},
            "reference_s": {"median": statistics.median(references),
                            "quartiles": quartiles(references)},
        },
    }
    return metrics, stats


def measure_traced(session: Session, seconds: float) -> tuple[dict, dict]:
    deadline = time.perf_counter() + seconds
    untraced: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    missing: set[str] = set()
    observer_errors: set[str] = set()
    laps: list[float] = []
    while len(laps) < MIN_RUNS or time.perf_counter() + statistics.median(laps) <= deadline:
        lap = time.perf_counter()
        pair = len(laps)
        timed_out = False
        # alternate which side runs first, so drift hits both alike
        for traced_side in ((False, True) if pair % 2 == 0 else (True, False)):
            run, ok, trace = session.cli(pair, traced=traced_side)
            timed_out |= run.timed_out
            if not ok:
                continue
            if traced_side:
                traced.append(run.wall_s)
                layers.append(tracing.summarize(trace))
                missing.update(trace["missing"])
                observer_errors.update(trace["observer_errors"])
            else:
                untraced.append(run.wall_s)
        laps.append(time.perf_counter() - lap)
        if timed_out:
            break
    if not layers or not untraced:
        raise BenchError("no traced/untraced pair succeeded: " + "; ".join(session.failures[:3]))
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.traced_wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
    stats = {
        "traced_runs": len(traced),
        "untraced_runs": len(untraced),
        "overhead_ratio": metrics["trace.overhead_s"] / metrics["trace.untraced_wall_s"],
        "missing_functions": sorted(missing),
        "observer_errors": sorted(observer_errors),
    }
    return metrics, stats


def run_workload(launcher: Launcher, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result object, printing the details."""
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    work.mkdir()
    try:
        session = Session(launcher, name, seed, work)
        session.probe()  # warm-up: bytecode caches and the page cache fill here
        measure = measure_traced if trace else measure_untraced
        values, stats = measure(session, seconds)
        units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}
        provenance = session.provenance()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for key, metric in metrics.items():
        print(f"{name}  {key:<42} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps({"provenance": provenance, "stats": stats}, ensure_ascii=False))
    return {
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": len(session.failures),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "emlang" / "__init__.py").is_file():
        print(f"error: no emlang sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    # a terminated runner unwinds, so the launcher below stops its child too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    launcher = Launcher()
    normally = False
    try:
        results = {name: run_workload(launcher, name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
        normally = True
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        launcher.close(normally)
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": metric for name, r in results.items()
                        for key, metric in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
