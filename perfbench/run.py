"""The monokit benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: report-cli-d6, exact-basis, fourier-stream (see README.md).
One client runs one op at a time in a closed loop, on a single thread.
Every batch of ops runs in a fresh interpreter, so the package's caches
start empty; MONOKIT_THREADS is removed from its environment.

--trace 0 measures whole batches within --seconds (at least one) and
prints the end-to-end metrics.  --trace 1
runs one untraced and one traced batch and prints the per-layer metrics.
Every answer is validated.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the metric names
and units come from BENCHMARK.json.  Scratch files go to perfbench/.work
and are removed at exit; no bytecode is written.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_SAMPLES = 5  # set-ups per run; setup_s is their median
RUN_LIMIT = 170.0  # seconds after the start of a run at which a child is killed
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MONOKIT_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # nothing is written under src/
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list, stderr_path: Path, deadline: float):
    """Run one process to its end; returns (exit code, peak RSS in MB, start, end).

    The process is killed at `deadline` (monotonic) and reaped with wait4,
    which gives its own resource usage.
    """
    with open(stderr_path, "ab") as err:
        start = time.monotonic()
        timeout = max(deadline - start, 1.0)
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            if proc.returncode is None and proc.poll() is None:
                proc.kill()
                proc.wait()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss * 1024 / 1e6, start, end


class Batch:
    """Timings and validation outcomes of one fresh process's ops."""

    def __init__(self):
        self.setup_s: float | None = None
        self.latencies: list[float] = []
        self.wall_s = 0.0
        self.rss_mb = 0.0
        self.outcomes: list[tuple[str | None, list[str]]] = []
        self.spans_path: Path | None = None


class Runner:
    def __init__(self, workload: str, seed: int, run_dir: Path):
        import workloads

        self.w = workloads
        self.workload = workload
        self.dir = run_dir
        self.stderr = run_dir / "stderr.log"
        self.deadline = time.monotonic() + RUN_LIMIT
        self.count = 0
        self.reports = 0
        if workload == "report-cli-d6":
            self.goldens = workloads.load_goldens(ROOT)
            self.report_seeds = workloads.report_seeds(seed, 256)
        else:
            if workload == "exact-basis":
                items = workloads.exact_inputs(seed)
                self.known = items
            else:
                items, self.known = workloads.fourier_inputs(seed)
            self.inputs = run_dir / "inputs.json"
            self.inputs.write_text(json.dumps(items))

    def _path(self, stem: str) -> Path:
        self.count += 1
        return self.dir / f"{stem}-{self.count}.json"

    def worker(self, mode: str, trace: bool, inputs: Path | None = None) -> tuple:
        spec = {"workload": self.workload, "mode": mode, "trace": trace,
                "inputs": str(inputs or getattr(self, "inputs", "")),
                "results": str(self._path("results")), "spans": str(self._path("spans"))}
        spec_path = self._path("spec")
        spec_path.write_text(json.dumps(spec))
        code, rss_mb, start, _ = run_child([sys.executable, str(HERE / "worker.py"),
                                            str(spec_path)], self.stderr, self.deadline)
        results_path = Path(spec["results"])
        results = json.loads(results_path.read_text()) if results_path.is_file() else None
        error = None if code == 0 and results is not None else f"worker exit {code}"
        return results, error, rss_mb, start, Path(spec["spans"])

    def setup_sample(self) -> float | None:
        results, error, _, start, _ = self.worker("setup", False)
        return None if error else results["ready"] - start

    def batch(self, trace: bool = False) -> Batch:
        if self.workload == "report-cli-d6":
            return self._report_batch(trace)
        out = Batch()
        results, error, out.rss_mb, start, out.spans_path = self.worker("measure", trace)
        ops = results["ops"] if results else []
        if results:
            out.setup_s = results["ready"] - start
        if ops:
            out.wall_s = ops[-1]["end"] - ops[0]["start"]
        check = self.w.check_exact if self.workload == "exact-basis" else self.w.check_fourier
        for i, known in enumerate(self.known):
            if i >= len(ops):
                out.outcomes.append((error or "no answer", []))
                continue
            op = ops[i]
            out.latencies.append(op["end"] - op["start"])
            if op["error"]:
                out.outcomes.append((op["error"], []))
            else:
                out.outcomes.append((None, check(known, op["out"])))
        return out

    def _report_batch(self, trace: bool) -> Batch:
        """One report op: a cold CLI process, or main() inside a traced worker."""
        out = Batch()
        report_path = self._path("report")
        seed = self.report_seeds[self.reports % len(self.report_seeds)]
        self.reports += 1
        argv = [*self.w.REPORT_ARGS, "--seed", str(seed), "--output", str(report_path)]
        if trace:
            inputs = self._path("inputs")
            inputs.write_text(json.dumps([argv]))
            results, error, out.rss_mb, _, out.spans_path = self.worker("measure", True, inputs)
            op = results["ops"][0] if results and results["ops"] else None
            if op is not None:
                out.wall_s = op["end"] - op["start"]
                error = op["error"] or (None if op["out"]["exit"] == 0
                                        else f"exit {op['out']['exit']}")
        else:
            code, out.rss_mb, start, end = run_child(
                [sys.executable, "-m", "monokit", *argv], self.stderr, self.deadline)
            out.wall_s = end - start
            error = None if code == 0 else f"exit {code}"
        out.latencies.append(out.wall_s)
        if error is None and not report_path.is_file():
            error = "no report written"
        problems = [] if error else self.w.check_report(json.loads(report_path.read_text()),
                                                        self.goldens)
        out.outcomes.append((error, problems))
        return out


# -- metrics ------------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 ops beyond it: (value, percentile, beyond).

    With 10 ops or fewer it is the maximum, with none beyond.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    i = n - 11 if n > 10 else n - 1
    return ordered[i], 100.0 * (i + 1) / n, n - 1 - i


def measure(runner: Runner, seconds: float, lines: list) -> tuple[list, dict]:
    """Batches for at most `seconds`; each metric is a median over batches.

    Another batch starts only if, at the mean batch time so far, it ends
    within `seconds`; there is always one.  A run therefore never measures
    much longer than `seconds`, which bounds its cost.

    Latency percentiles are taken within each batch, so their rank does
    not depend on how many batches fit.
    """
    batches: list[Batch] = []
    begin = time.monotonic()
    while True:
        batches.append(runner.batch())
        elapsed = time.monotonic() - begin
        if elapsed + elapsed / len(batches) > seconds:
            break
    setups = [b.setup_s for b in batches if b.setup_s is not None]
    while len(setups) < SETUP_SAMPLES:
        sample = runner.setup_sample()
        if sample is None:
            break
        setups.append(sample)
    timed = [b for b in batches if b.latencies] or [Batch()]
    tails = [tail(b.latencies) if b.latencies else (0.0, 0.0, 0) for b in timed]
    metrics = {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "wall_s": statistics.median(b.wall_s for b in timed),
        "latency_p50_s": statistics.median(
            statistics.median(b.latencies) if b.latencies else 0.0 for b in timed),
        "latency_tail_s": statistics.median(value for value, _, _ in tails),
        "peak_rss_mb": max(b.rss_mb for b in batches),
    }
    _, pct, beyond = tails[0]
    lines.append(f"batches {len(batches)} of {len(timed[0].latencies)} ops,"
                 f" set-ups {len(setups)}")
    lines.append("batch wall_s " + " ".join(f"{b.wall_s:.4f}" for b in batches))
    lines.append("set-up s " + " ".join(f"{s:.4f}" for s in setups))
    lines.append(f"latency_tail_s is p{pct:.2f} of a batch, {beyond} ops beyond")
    return batches, metrics


def trace_metrics(runner: Runner, names: list, lines: list) -> tuple[list, dict]:
    from tracer import summarize

    plain = runner.batch()
    traced = runner.batch(trace=True)
    metrics: dict = {}
    if traced.spans_path is not None and traced.spans_path.is_file():
        doc = json.loads(traced.spans_path.read_text())
        calls, self_s, in_ops = summarize(doc)
        counters = doc["counters"]
        for name in names:
            stem, _, quantity = name.rpartition(".")
            if quantity == "self_s":
                metrics[name] = self_s.get(stem, 0.0)
            elif quantity == "calls" and name not in counters:
                metrics[name] = calls.get(stem, 0)
            elif not name.startswith("trace."):
                metrics[name] = counters.get(name, 0)
        metrics["trace.wall_s"] = traced.wall_s
        metrics["trace.overhead"] = traced.wall_s / plain.wall_s if plain.wall_s else 0.0
        metrics["trace.accounted"] = in_ops / traced.wall_s if traced.wall_s else 0.0
        if doc["missing"]:
            lines.append(f"not traced, missing from the package: {', '.join(doc['missing'])}")
    lines.append(f"untraced wall_s {plain.wall_s}, traced wall_s {traced.wall_s}")
    return [plain, traced], metrics


def fingerprint() -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"commit": commit, "python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(), "cpu": cpu,
            "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
            "monokit_threads_in_parent": os.environ.get("MONOKIT_THREADS")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("report-cli-d6", "exact-basis", "fourier-stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "monokit" / "__init__.py").is_file():
        print(f"error: no monokit sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    WORK.mkdir(exist_ok=True)
    sys.dont_write_bytecode = True  # nothing is written under src/
    sys.path.insert(0, str(SRC))
    import monokit

    if Path(monokit.__file__).resolve().parent != (SRC / "monokit").resolve():
        print(f"error: monokit imported from {monokit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    lines = [f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}",
             "env " + json.dumps(fingerprint(), sort_keys=True)]
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        runner = Runner(args.workload, args.seed, run_dir)
        if args.trace:
            batches, metrics = trace_metrics(runner, [m["name"] for m in declared], lines)
        else:
            batches, metrics = measure(runner, args.seconds, lines)
        attempted, failed, notes = runner.w.count_failures(
            o for b in batches for o in b.outcomes)
        if failed and runner.stderr.is_file():
            notes.append(runner.stderr.read_text()[-2000:])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 3
    lines.append(f"failed_frac {failed / attempted if attempted else 1.0} ratio"
                 f" ({failed} of {attempted} ops)")
    for note in notes:
        lines.append(f"failure: {note}")
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    for name, entry in result.items():
        lines.append(f"{name} {entry['value']} {entry['unit']}")
    print("\n".join(lines))
    print(json.dumps({"correct": attempted > 0 and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
