"""Child process of the benchmark: generate a workload's input, or run one
CLI command, optionally traced.

    python3 perfbench/child.py setup --workload NAME --seed N --out DIR [--smoke]
    python3 perfbench/child.py cli --status FILE [--trace] [--run-id ID] -- ARGV...

The parent puts the program's ``src`` on PYTHONPATH.  ``cli`` runs
``homeguard.cli.main(ARGV)`` and writes its exit code, peak RSS, elapsed
time (raw and speed-normalized, see ``SpeedClock``) and, when traced, its
spans to the status file.  Tracing wraps the program's public
functions at the names the program calls them by; nothing in ``src`` changes.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import signal
import sys
import time
from dataclasses import replace
from itertools import combinations
from pathlib import Path


# Reference speed: seconds one probe takes.  ``ref_s`` = probes' worth of
# time x this, so it reads as seconds on a CPU that runs the probe at it.
REF_PROBE_S = 0.0008
PROBE_INTERVAL_S = 0.25


class SpeedClock:
    """Elapsed time in units of a fixed probe of Python work.

    On a CPU shared with other tenants speed can change twofold within
    seconds, so wall time alone cannot compare two commits.  Every
    ``PROBE_INTERVAL_S`` a SIGALRM handler times the probe on this
    process's CPU; each interval of wall time is divided by the probe time
    measured at its end.  The probe's own time is left out.
    """

    def __init__(self) -> None:
        self.units = 0.0
        self.wall_s = 0.0
        self._last = time.perf_counter()

    @staticmethod
    def probe() -> float:
        """Seconds for work shaped like the program's own: tuples built from
        index combinations, collected in a set, sorted."""
        start = time.perf_counter()
        items = [("device", i % 7) for i in range(16)]
        found = set()
        for combo in combinations(range(16), 3):
            found.add(tuple(items[p] for p in combo))
        sorted(found)
        return time.perf_counter() - start

    def _tick(self, *_) -> None:
        elapsed = time.perf_counter() - self._last
        self.wall_s += elapsed
        self.units += elapsed / self.probe()
        self._last = time.perf_counter()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self._last = time.perf_counter()

    def stop(self) -> dict:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._tick()
        return {"wall_s": self.wall_s, "ref_s": self.units * REF_PROBE_S}


def cmd_setup(args) -> int:
    clock = SpeedClock()
    clock.start()
    import workloads
    from homeguard.ingest import write_operation_log, write_sensor_log
    from homeguard.synthgen import generate, scenario_calibration, scenario_s1

    generate_s = 0.0
    for stream in workloads.get(args.workload, args.smoke).streams:
        factory = scenario_s1 if stream.scenario == "s1" else scenario_calibration
        scenario = factory(seed=args.seed + stream.seed_offset, n_days=stream.days)
        if stream.habit_scale != 1.0:
            scenario.habits = tuple(
                replace(h, rate_per_hour=h.rate_per_hour * stream.habit_scale)
                for h in scenario.habits
            )
        start = time.perf_counter()
        result = generate(scenario)
        generate_s += time.perf_counter() - start
        out = Path(args.out) / stream.name
        out.mkdir(parents=True, exist_ok=True)
        write_operation_log(result.events, out / "operations.csv")
        write_sensor_log(result.frames, out / "sensors.csv")
    print(json.dumps({"generate_s": generate_s, **clock.stop()}))
    return 0


class Tracer:
    """In-memory spans: [name, start, end, parent index, work count]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.candidate_inputs: set = set()

    def wrap(self, name: str, fn, work=None):
        """``work(args, kwargs, result)`` gives the span's work count."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, 0])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = spans[index]
                span[1], span[2] = start, end
            if work is not None:
                span[4] = work(args, kwargs, result)
            return result

        return traced

    def count_candidates(self, args, kwargs, result) -> int:
        self.candidate_inputs.add((tuple(args[0]), args[1]))
        return len(result)


def _result_len(args, kwargs, result) -> int:
    return len(result)


def _first_arg_len(args, kwargs, result) -> int:
    return len(args[0])


def install_tracing(tracer: Tracer) -> None:
    """Wrap each layer's functions where they are looked up at call time."""
    from homeguard import cli, detector, evaluation, hsmodel, labeling, seqstore

    def patch(module, attr, name, work=None):
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), work))

    store_size = lambda a, k, r: len(r.counts)  # noqa: E731
    timed_size = lambda a, k, r: len(r.times)  # noqa: E731
    for module in (evaluation, hsmodel):
        patch(module, "fit_transitions", "hsmodel.fit_transitions")
        patch(module, "fit_operations", "hsmodel.fit_operations")
        patch(module, "run_filter", "hsmodel.run_filter", _first_arg_len)
        patch(module, "store_sequences", "seqstore.store_sequences", store_size)
        patch(module, "build_timed_store", "seqstore.build_timed_store", timed_size)
    patch(evaluation, "label_states", "labeling.label_states")
    patch(evaluation, "build_timeslots", "ingest.build_timeslots", _result_len)
    patch(evaluation, "estimation_score", "detector.score")
    patch(evaluation, "sequence_scores", "detector.score")
    patch(evaluation, "_best_deltas", "evaluation.best_deltas")
    patch(evaluation, "_sweep_two_level", "evaluation.sweep")
    patch(evaluation, "_sweep_estimation", "evaluation.sweep")
    # train_model imports label_states from the module when it runs.
    patch(labeling, "label_states", "labeling.label_states")
    # _best_deltas imports candidates_ending_at from seqstore when it runs;
    # the detector module bound its own name at import.
    patch(seqstore, "candidates_ending_at", "seqstore.candidates", tracer.count_candidates)
    patch(detector, "candidates_ending_at", "seqstore.candidates", tracer.count_candidates)

    patch(cli, "parse_operation_log", "ingest.parse", _result_len)
    patch(cli, "parse_sensor_log", "ingest.parse")
    patch(cli, "build_timeslots", "ingest.build_timeslots", _result_len)
    patch(cli, "run_filter", "hsmodel.run_filter", _first_arg_len)
    patch(cli, "train_model", "hsmodel.train_model")
    for judge in ("judge_proposed", "judge_estimation_baseline", "judge_sequence_baseline"):
        patch(cli, judge, "detector.score")
    patch(cli, "grid_search", "evaluation.grid_search")

    fold = evaluation.FoldContext
    fold.judged_operations = tracer.wrap(
        "evaluation.judged_operations", fold.judged_operations, _result_len
    )
    context = evaluation.OperationContext
    context.belief = property(tracer.wrap("evaluation.belief", context.belief.fget))
    model = hsmodel.TrainedModel
    model.save = tracer.wrap("hsmodel.model_io", model.save)
    model.load = classmethod(tracer.wrap("hsmodel.model_io", model.load.__func__))


def cmd_cli(args) -> int:
    clock = SpeedClock()
    clock.start()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        install_tracing(tracer)
    from homeguard import cli

    main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    code = main(args.argv)
    status = {
        "run_id": args.run_id,
        "exit_code": code,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        **clock.stop(),
    }
    if tracer is not None:
        status["spans"] = tracer.spans
        status["candidate_inputs"] = len(tracer.candidate_inputs)
    Path(args.status).write_text(json.dumps(status))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="command", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("--workload", required=True)
    p_setup.add_argument("--seed", type=int, required=True)
    p_setup.add_argument("--out", required=True)
    p_setup.add_argument("--smoke", action="store_true")
    p_setup.set_defaults(func=cmd_setup)
    p_cli = sub.add_parser("cli")
    p_cli.add_argument("--status", required=True)
    p_cli.add_argument("--trace", action="store_true")
    p_cli.add_argument("--run-id", default="")
    p_cli.add_argument("argv", nargs=argparse.REMAINDER)
    p_cli.set_defaults(func=cmd_cli)
    args = parser.parse_args(argv)
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
