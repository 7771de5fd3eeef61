"""homeguard benchmark: generate a workload from a seed, run the CLI on it,
check the outputs, and print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Set-up generates the input CSVs in a child
process, three times, and reports the median.  The job (the workload's CLI
commands, each in its own child process with numpy/BLAS capped at one
thread) is repeated as often as it fits in ``--seconds``, at least once.
``setup_s`` and ``job_s`` are in reference seconds (``child.SpeedClock``):
wall time rescaled by the CPU speed measured inside each child.
With ``--trace 1`` one more job runs with spans recorded around calls into
each layer, and the per-layer metrics come from it.  Every job must pass the
correctness gate (``gate.py``).  The last line of stdout is the result JSON;
the line before it is the run record.  ``--record`` stores the first job's
outputs as the reference for this workload and seed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import gate
import workloads
from child import SpeedClock

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH / "reference"
WORK_DIR = ROOT / ".perfbench"
SETUP_REPS = 3
DEADLINE_S = 170.0
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "frac",
}
PER_LAYER = {
    "ingest.parse_s": "s",
    "ingest.build_timeslots_s": "s",
    "ingest.slots": "count",
    "ingest.events": "count",
    "labeling.label_states_s": "s",
    "labeling.label_states_calls": "count",
    "hsmodel.fit_transitions_s": "s",
    "hsmodel.fit_transitions_calls": "count",
    "hsmodel.fit_operations_s": "s",
    "hsmodel.fit_operations_calls": "count",
    "hsmodel.run_filter_s": "s",
    "hsmodel.run_filter_calls": "count",
    "hsmodel.filter_slots": "count",
    "hsmodel.model_io_frac": "frac",
    "hsmodel.model_io_calls": "count",
    "hsmodel.model_kb": "KB",
    "seqstore.store_sequences_s": "s",
    "seqstore.build_timed_store_s": "s",
    "seqstore.store_size": "count",
    "seqstore.candidates_s": "s",
    "seqstore.candidates_calls": "count",
    "seqstore.candidates_generated": "count",
    "seqstore.candidates_unique_frac": "frac",
    "detector.score_s": "s",
    "detector.score_calls": "count",
    "detector.score_p50_us": "us",
    "detector.score_p99_us": "us",
    "evaluation.grid_search_frac": "frac",
    "evaluation.self_frac": "frac",
    "evaluation.folds": "count",
    "evaluation.judged_ops": "count",
    "evaluation.proposed_det_at_mis10": "ratio",
    "evaluation.sequence_det_at_mis10": "ratio",
    "evaluation.estimation_det_at_mis10": "ratio",
    "cli.self_s": "s",
    "cli.detect_frac": "frac",
    "synthgen.generate_s": "s",
    "trace.overhead_frac": "frac",
}


class Job:
    """One pass over the workload's commands and its gate verdict."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.walls: dict[str, float] = {}
        self.refs: dict[str, float] = {}
        self.statuses: list[dict] = []
        self.errors: list[str] = []
        self.canon: dict = {}
        self.digests: dict[str, str] = {}
        self.model_kb = 0.0
        self.det_at_mis10: dict[str, float] = {}

    @property
    def wall(self) -> float:
        return sum(self.walls.values())

    @property
    def ref(self) -> float:
        return sum(self.refs.values())

    @property
    def peak_rss_mb(self) -> float:
        return max((s["peak_rss_kb"] for s in self.statuses), default=0) / 1024.0


class Bench:
    def __init__(self, args) -> None:
        self.args = args
        self.workload = workloads.get(args.workload, args.smoke)
        self.work = WORK_DIR / f"{args.workload}-s{args.seed}-{os.getpid()}"
        self.data = self.work / "data"
        self.deadline = time.perf_counter() + DEADLINE_S
        self.env = dict(os.environ, **CHILD_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )

    def spawn(self, argv: list[str], log: Path) -> tuple[int | None, float]:
        """Run a child to completion; exit code None when the deadline hit."""
        timeout = max(1.0, self.deadline - time.perf_counter())
        with log.open("w") as handle:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=handle, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                code = None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            return code, time.perf_counter() - start

    def setup(self) -> tuple[list[dict], list[float]]:
        reps, generate = [], []
        argv = [sys.executable, str(BENCH / "child.py"), "setup", "--workload",
                self.args.workload, "--seed", str(self.args.seed), "--out", str(self.data)]
        if self.args.smoke:
            argv.append("--smoke")
        digests = None
        for rep in range(1 if self.args.record else SETUP_REPS):
            log = self.work / f"setup-{rep}.log"
            code, wall = self.spawn(argv, log)
            if code != 0:
                raise SystemExit(f"set-up failed (exit {code}):\n{log.read_text()[-2000:]}")
            report = json.loads(log.read_text().splitlines()[-1])
            reps.append({"wall_s": wall, "ref_s": report["ref_s"]})
            generate.append(report["generate_s"])
            rep_digests = {s.name: gate.sha256_files(self.data / s.name)
                           for s in self.workload.streams}
            if digests is not None and rep_digests != digests:
                raise SystemExit("set-up is not deterministic: CSVs differ between repetitions")
            digests = rep_digests
        return reps, generate

    def job(self, index: int, traced: bool) -> Job:
        job = Job(traced)
        out = self.work / f"job-{index}"
        out.mkdir()
        run_id = f"{self.args.workload}/{self.args.seed}/{index}"
        for label, argv in workloads.commands(self.workload, self.data, out, self.args.seed):
            status_path = out / f"{label}.status.json"
            child = [sys.executable, str(BENCH / "child.py"), "cli", "--status",
                     str(status_path), "--run-id", f"{run_id}/{label}"]
            if traced:
                child.append("--trace")
            code, wall = self.spawn([*child, "--", *argv], out / f"{label}.log")
            job.walls[label] = wall
            if code != 0 or not status_path.exists():
                job.errors.append(f"{label} exited with {code}: "
                                  f"{(out / f'{label}.log').read_text()[-500:]}")
                return job
            job.statuses.append(json.loads(status_path.read_text()))
            job.refs[label] = job.statuses[-1]["ref_s"]
        self.check(job, out)
        return job

    def check(self, job: Job, out: Path) -> None:
        w = self.workload
        try:
            if w.kind == "evaluate":
                found = gate.read_evaluate(out, w.methods)
                injected = w.streams[0].days * w.injections
                job.errors += gate.evaluate_invariants(found, injected, len(self.target_ops("data")))
                job.canon = gate.canonical_evaluate(found)
                job.det_at_mis10 = {m: gate.det_at_mis10(rows) for m, rows in found.items()}
            else:
                found = gate.read_detect(out, w.methods)
                job.errors += gate.detect_invariants(found, self.target_ops("detect"))
                job.canon = gate.canonical_detect(found)
                job.model_kb = (out / "model.json").stat().st_size / 1024.0
        except (OSError, ValueError, KeyError, TypeError) as exc:
            job.errors.append(f"unreadable output: {exc!r}")
            return
        reference = self.reference()
        if reference is not None:
            mismatch = gate.diff(job.canon, reference)
            if mismatch:
                job.errors.append(f"differs from the reference: {mismatch}")
        job.digests = gate.sha256_files(out)

    def target_ops(self, stream: str) -> list[tuple[str, str]]:
        """Target-device operations of a stream, in timestamp order."""
        rows = gate.read_csv(self.data / stream / "operations.csv")
        ops = [(r["timestamp"], r["action"]) for r in rows
               if r["device"] == workloads.TARGET_DEVICE]
        return sorted(ops, key=lambda op: op[0])

    def reference(self) -> dict | None:
        path = REFERENCE_DIR / f"{self.args.workload}.json"
        if self.args.smoke or not path.exists():
            return None
        return json.loads(path.read_text()).get(str(self.args.seed))

    def record_reference(self, job: Job) -> None:
        path = REFERENCE_DIR / f"{self.args.workload}.json"
        table = json.loads(path.read_text()) if path.exists() else {}
        table[str(self.args.seed)] = job.canon
        REFERENCE_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(dict(sorted(table.items(), key=lambda kv: int(kv[0]))),
                                   separators=(",", ":")) + "\n")


def layer_metrics(traced: Job, untraced: list[Job], generate: list[float]) -> dict:
    totals: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    work: Counter = Counter()
    score_us: list[float] = []
    unique_inputs = 0
    for status in traced.statuses:
        spans = status["spans"]
        children = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        for index, (name, start, end, _, n) in enumerate(spans):
            totals[name] += end - start
            self_time[name] += end - start - children[index]
            calls[name] += 1
            work[name] += n
            if name == "detector.score":
                score_us.append((end - start) * 1e6)
        unique_inputs += status["candidate_inputs"]
    traced_wall = totals["cli.main"]
    untraced_ref = statistics.median(j.ref for j in untraced)
    detect_frac = statistics.median(
        sum(v for k, v in j.refs.items() if k.startswith("detect")) / j.ref for j in untraced
    )
    metrics = {
        "ingest.parse_s": totals["ingest.parse"],
        "ingest.build_timeslots_s": totals["ingest.build_timeslots"],
        "ingest.slots": work["ingest.build_timeslots"],
        "ingest.events": work["ingest.parse"],
        "labeling.label_states_s": totals["labeling.label_states"],
        "labeling.label_states_calls": calls["labeling.label_states"],
        "hsmodel.fit_transitions_s": totals["hsmodel.fit_transitions"],
        "hsmodel.fit_transitions_calls": calls["hsmodel.fit_transitions"],
        "hsmodel.fit_operations_s": totals["hsmodel.fit_operations"],
        "hsmodel.fit_operations_calls": calls["hsmodel.fit_operations"],
        "hsmodel.run_filter_s": totals["hsmodel.run_filter"],
        "hsmodel.run_filter_calls": calls["hsmodel.run_filter"],
        "hsmodel.filter_slots": work["hsmodel.run_filter"],
        "hsmodel.model_io_frac": totals["hsmodel.model_io"] / traced_wall,
        "hsmodel.model_io_calls": calls["hsmodel.model_io"],
        "hsmodel.model_kb": untraced[0].model_kb,
        "seqstore.store_sequences_s": totals["seqstore.store_sequences"],
        "seqstore.build_timed_store_s": totals["seqstore.build_timed_store"],
        "seqstore.store_size": work["seqstore.store_sequences"] + work["seqstore.build_timed_store"],
        "seqstore.candidates_s": totals["seqstore.candidates"],
        "seqstore.candidates_calls": calls["seqstore.candidates"],
        "seqstore.candidates_generated": work["seqstore.candidates"],
        "seqstore.candidates_unique_frac": unique_inputs / max(1, calls["seqstore.candidates"]),
        "detector.score_s": totals["detector.score"],
        "detector.score_calls": calls["detector.score"],
        "detector.score_p50_us": _percentile(score_us, 50),
        "detector.score_p99_us": _percentile(score_us, 99),
        "evaluation.grid_search_frac": totals["evaluation.grid_search"] / traced_wall,
        "evaluation.self_frac": self_time["evaluation.grid_search"] / traced_wall,
        "evaluation.folds": calls["evaluation.judged_operations"],
        "evaluation.judged_ops": work["evaluation.judged_operations"],
        "cli.self_s": self_time["cli.main"],
        "cli.detect_frac": detect_frac,
        "synthgen.generate_s": statistics.median(generate),
        "trace.overhead_frac": traced.ref / untraced_ref - 1.0,
    }
    for method in ("proposed", "sequence", "estimation"):
        metrics[f"evaluation.{method}_det_at_mis10"] = untraced[0].det_at_mis10.get(method, 0.0)
    return metrics


def _percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * pct // 100) - 1)]


def speed_probe() -> float:
    """Median time of the clock's probe; shows how fast the shared CPU ran."""
    return statistics.median(SpeedClock.probe() for _ in range(25))


def run_record(args, jobs: list[Job], setup: list[dict], load_start: float,
               probes: list[float], has_ref: bool) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
        "speed_probe_s": probes,
        "child_env": CHILD_ENV,
        "setup": setup,
        "jobs": [{"walls_s": j.walls, "ref_s": j.refs, "peak_rss_mb": j.peak_rss_mb,
                  "traced": j.traced, "errors": j.errors[:5]}
                 for j in jobs],
        "reference_seed": has_ref,
        "sha256": jobs[0].digests if jobs else {},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny input: calibration scenario, 4 days, 25 injections")
    parser.add_argument("--record", action="store_true",
                        help="store this run's outputs as the reference for the seed")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "homeguard" / "cli.py").is_file():
        print(f"error: no homeguard sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.record and args.smoke:
        parser.error("--record stores references for full-size workloads only")

    # Let SIGTERM unwind through Bench.spawn, which stops the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    load_start = os.getloadavg()[0]
    probes = [speed_probe()]
    bench = Bench(args)
    bench.work.mkdir(parents=True)
    setup, generate = bench.setup()
    jobs: list[Job] = []
    start = time.perf_counter()
    # As many jobs as fit in --seconds, at least one.
    while not jobs or (time.perf_counter() - start + jobs[-1].wall <= args.seconds
                       and time.perf_counter() + 2 * jobs[-1].wall < bench.deadline):
        jobs.append(bench.job(len(jobs), traced=False))
        if jobs[-1].errors:
            break
    untraced = list(jobs)
    if args.trace and not jobs[-1].errors:
        jobs.append(bench.job(len(jobs), traced=True))
    for job in jobs[1:]:
        if not job.errors and (job.canon != jobs[0].canon or job.digests != jobs[0].digests):
            job.errors.append("outputs differ from the first job of this run")
    failed = sum(1 for j in jobs if j.errors)
    if args.record and not failed:
        bench.record_reference(jobs[0])
    has_ref = bench.reference() is not None

    if args.trace:
        traced = jobs[-1] if jobs[-1].traced else None
        metrics = (layer_metrics(traced, untraced, generate) if traced and not failed
                   else dict.fromkeys(PER_LAYER, 0.0))
        units = PER_LAYER
    else:
        passed = [j for j in untraced if not j.errors] or untraced
        metrics = {
            "setup_s": statistics.median(rep["ref_s"] for rep in setup),
            "job_s": statistics.median(j.ref for j in passed),
            "peak_rss_mb": statistics.median(j.peak_rss_mb for j in passed),
            "pass_frac": (len(jobs) - failed) / len(jobs),
        }
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    probes.append(speed_probe())
    record = run_record(args, jobs, setup, load_start, probes, has_ref)
    with (WORK_DIR / "runs.jsonl").open("a") as handle:
        handle.write(json.dumps({"record": record, "result": result}) + "\n")
    if not failed:
        shutil.rmtree(bench.work)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
