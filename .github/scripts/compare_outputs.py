"""Check that two checkouts write byte-identical benchmark outputs.

    python3 .github/scripts/compare_outputs.py BASE_TREE [--seeds 23 37]

Runs ``perfbench/run.py --seconds 0 --trace 0`` for every workload and seed,
once in BASE_TREE and once in the current directory, and compares the
sha256 digests of the output files (every CSV, JSONL and ``model.json``)
that each run record lists.  Then runs ``homeguard evaluate`` and
``homeguard label`` in both trees on paths the benchmark never takes
(``EVALUATE_RUNS``, ``LABEL_RUNS``), and ``homeguard train`` followed by
``detect`` with each method (``OPERATOR_RUNS``), on one synthetic home
generated by the current tree.  ``label``, and ``train`` followed by
``detect`` with each method, run as well on that home's logs as another
tool might write them (``rewritten_home``), whose unpadded timestamps only
the per-text fallback of the parsers reads.  The ``OPERATOR_RUNS`` run
again with the model that BASE_TREE's ``train`` writes, read by each
tree's ``detect``, so the current tree must judge with the base's model
file as the base does.
``TRACE_RUNS`` train on that home, and on a longer one (``LONG_HOME_DAYS``),
and write the sha256 of the forward filter's every belief over it
(``run_filter``'s ``entry``, ``pre`` and ``post`` bytes under the trained
model), where the verdict files hold only the beliefs before target
operations, and of the training days' event beliefs and slot counts under
that model, which ``model.json`` holds only as far as they change its
stores.  The file
runs read the inputs the benchmark never reads: ``train`` and ``detect``
under a config file that sets every parameter section (``CONFIG``),
``evaluate`` under one that sets every value but those of its grid
(``EVALUATE_CONFIG``), ``train`` with a vocabulary file that each tree saves itself, and ``synth``
from scenario files that each tree saves itself (``SCENARIO_FILES``).
``SYNTH_RUNS`` compare the generated data itself, which the benchmark
generates but never digests.  Compares the digests of every file these
runs write.  Exits 1 when a run fails, lists no outputs, or any digest
differs.  Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from datetime import datetime
from pathlib import Path

WORKLOADS = ("loocv-s1-28d", "loocv-dense-7d", "train-detect-s1-90d")
# evaluate runs on a 5-day s1 home: (name, day origin, arguments).  The home
# cut to start at 04:00, with nobody home at first, has its first date
# excluded, so its first day is kept only from midnight to 04:00.  At a
# t_seq of half a day, windows reach back across the day bounds, so each
# fold's timed store enumerates again the windows that reach into its
# held-out day.
EVALUATE_RUNS = (
    ("criterion-alpha", "00:00",
     ("--methods", "proposed", "--criterion", "alpha", "--l-values", "0.05,0.2",
      "--initial-occupants", "2")),
    ("day-origin-excluded-date", "04:00",
     ("--methods", "all", "--l-values", "1,2", "--initial-occupants", "0")),
    ("long-window-excluded-date", "04:00",
     ("--methods", "all", "--t-seq", "43200", "--l-values", "1", "--initial-occupants", "0")),
    ("two-labelings", "00:00",
     ("--methods", "proposed,estimation", "--t-x-values", "15,30", "--l-values", "1,2",
      "--initial-occupants", "2")),
    # Fixed threshold lists: the benchmark sweeps "auto" thresholds only.
    ("fixed-thresholds", "00:00",
     ("--methods", "all", "--n-single-values", "0,0.01,0.1", "--n-multi-values", "0,0.05",
      "--theta-values", "0.1,0.5", "--n-seq-single-values", "0,0.1",
      "--n-seq-multi-values", "0.1")),
    # Auto two-level sweeps and a fixed theta list in one grid_search call.
    ("auto-and-fixed", "00:00", ("--methods", "all", "--theta-values", "0.1,0.5")),
    # No injections: every judged operation is real.
    ("no-injections", "04:00",
     ("--methods", "all", "--injections", "0", "--initial-occupants", "0")),
    # More than 2,000 distinct scores: 2,118-2,124 s_single (one per l) and
    # 2,091 estimation scores, so those auto sweeps thin their candidates to
    # 2000, as the benchmark's 28-day sweeps do.  A later --injections wins.
    ("thinned-candidates", "00:00",
     ("--methods", "all", "--injections", "500", "--l-values", "1,2,3")),
    # Estimation alone: the folds are filtered a group at a time with no
    # proposed scores, and the first day's kept part is filtered on its own.
    ("estimation-excluded-date", "04:00",
     ("--methods", "estimation", "--initial-occupants", "0")),
    # Sequence alone: no model is fitted and no day is filtered.
    ("sequence-only", "00:00", ("--methods", "sequence")),
    # The slot counts at ranks 1, 5 and 10 of every fold, each read off the
    # counts that the filter pass reduces the training days' entries to.
    ("rank-levels", "00:00", ("--methods", "proposed", "--l-values", "1,5,10")),
    # The slot counts at two belief levels, over the kept part-days of
    # every fold.
    ("criterion-alpha-excluded-date", "04:00",
     ("--methods", "proposed", "--criterion", "alpha", "--l-values", "0.05,0.2",
      "--initial-occupants", "0")),
)

# label runs on the same homes, each writing the slot and the per-event label
# CSVs: (name, day origin, arguments).  Nobody home at first excludes dates; on
# the 04:00 home a grid day then spans an excluded date in part.
LABEL_RUNS = (
    ("excluded-days", "00:00", ("--initial-occupants", "0")),
    ("day-origin-excluded-date", "04:00", ("--initial-occupants", "0")),
)

# train, then detect with each method, on the same home: (name, day origin,
# arguments).  The benchmark's operator path runs at 00:00 only.  With nobody
# home at first, train keeps the first 04:00 day only in part.  At a t_seq of
# half a day, detect judges windows that reach back across midnight.
OPERATOR_RUNS = (
    ("day-origin", "04:00", ()),
    ("day-origin-excluded-date", "04:00", ("--initial-occupants", "0")),
    ("long-window-excluded-date", "04:00", ("--t-seq", "43200", "--initial-occupants", "0")),
)
DETECT_METHODS = ("proposed", "estimation", "sequence")
# The first item of a step that runs in the base tree on both sides.
IN_BASE = "in-base"

# train, then the digests of the trace that detect filters, on the home from
# each day origin: (name, day origin, arguments).
TRACE_RUNS = (
    ("midnight", "00:00", ()),
    ("day-origin", "04:00", ()),
    # With nobody home at first, the first date is excluded and the kept
    # part-days are filtered as groups of one.
    ("day-origin-excluded-date", "04:00", ("--initial-occupants", "0")),
    # A model trained by belief level: the training slot counts at its
    # l_alpha, over part-days.
    ("alpha-excluded-date", "04:00",
     ("--criterion", "alpha", "--l-alpha", "0.2", "--initial-occupants", "0")),
)
# The days of the home that the filter-trace run "three-weeks" also reads.  The
# filter runs a lone stream's days in lockstep and re-runs them until the
# beliefs carried from day to day settle, so this run compares that fixed
# point over 21 days with the base's, every belief of it; it takes a few
# seconds per tree.
LONG_HOME_DAYS = 21
# Python run with the tree's source: argv is the model, the operation and
# sensor CSVs, the day origin and the file to write.  The training traces are
# filtered as train filters them, with the model's labeling parameters.
TRACE_DIGESTS = """
import hashlib, pathlib, sys
from datetime import time
import numpy as np
from homeguard.hsmodel import TrainedModel, filter_streams, kept_day_streams, run_filter
from homeguard.ingest import build_timeslots, parse_operation_log, parse_sensor_log
from homeguard.labeling import label_states
from homeguard.seqstore import SlotCounts
model_path, operations, sensors, origin, out = sys.argv[1:]
model = TrainedModel.load(model_path)
ranges = model.vocabulary.sensor_ranges or None
grid = build_timeslots(
    parse_operation_log(operations, model.vocabulary, on_unknown="skip"),
    parse_sensor_log(sensors, ranges=ranges), day_origin=time.fromisoformat(origin),
)
trace = run_filter(grid, model.transitions, model.operations)
arrays = {name: getattr(trace, name) for name in ("entry", "pre", "post")}
labels = label_states(grid, model.labeling_params, model.vocabulary)
seq = model.seq_params
counts = SlotCounts(model.transitions.n_states, [seq.l_alpha] if seq.criterion == "alpha" else [])
training = filter_streams(
    grid, kept_day_streams(labels.select(~labels.excluded)), model.transitions,
    model.operations, counts=counts,
)
for name in ("pre", "post"):
    arrays[f"training-{name}"] = np.concatenate([getattr(t, name) for t in training])
arrays["training-at_rank"], arrays["training-at_least"] = counts.at_rank, counts.at_least
pathlib.Path(out).write_text("".join(
    f"{name} {hashlib.sha256(values.tobytes()).hexdigest()}\\n" for name, values in arrays.items()
))
"""

# synth in both trees: (name, day origin, arguments).  Nine days from a
# Monday take in a weekend.  The 90-day run is as long as the benchmark's
# train and detect streams, so the column writers are compared on a long
# stream's sensor log and truth file too.
SYNTH_RUNS = tuple(
    (f"{scenario}-seed-{seed}", "00:00",
     ("--scenario", scenario, "--days", "9", "--seed", str(seed)))
    for scenario in ("s1", "calibration") for seed in (23, 37)
) + (("s1-seed-11-90-days", "00:00", ("--scenario", "s1", "--days", "90", "--seed", "11")),)

# synth from a scenario file that each tree saves itself: (name, day origin,
# the scenario as a Python expression).  The dense one is the home of the
# benchmark's dense workload: s1 with every habit rate times 20.
SCENARIO_FILES = (
    ("scenario", "00:00", ("scenario_s1(n_days=3)",)),
    ("dense-scenario", "00:00",
     ("replace(scenario_s1(seed=23, n_days=7), habits=tuple(replace(h, rate_per_hour="
      "h.rate_per_hour * 20) for h in scenario_s1().habits))",)),
)

# A config that sets every parameter section away from its defaults.
# noise_threshold, t_seq and alpha_seq are float fields given as JSON
# integers, which the model file keeps as integers.
CONFIG = {
    "labeling": {"t_x": 10, "t_y": 20, "t_c": 25, "night_window": ["21:30", "9:00"],
                 "night_split": "4:30", "noise_threshold": 36, "co2_threshold": 1400.5,
                 "sleep_gap_merge": 60, "use_gap_merge": 10, "presleep_hours": 4,
                 "postsleep_hours": 3, "initial_occupants": 2},
    "seq": {"t_seq": 900, "criterion": "alpha", "l_rank": 2, "l_alpha": 0.2, "l_max": 4,
            "w_max": 12},
    "model": {"t_z_max": 360},
    "detector": {"n_single": 0.05, "n_multi": 0.01, "theta": 0.4, "alpha_seq": 1800,
                 "n_seq_single": 0.2, "n_seq_multi": 0.05},
}
# The sections of CONFIG that evaluate reads, without the keys that set a
# value of its grid (the labeling windows, the criterion and l): trees that
# read those keys differently still agree on every other one.
EVALUATE_CONFIG = {
    section: {key: value for key, value in CONFIG[section].items()
              if key not in ("t_x", "t_y", "t_c", "criterion", "l_rank", "l_alpha")}
    for section in ("labeling", "seq", "model")
}


def digests(tree: Path, workload: str, seed: int) -> dict[str, str]:
    """The output digests of one benchmark run in ``tree``; empty on failure."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print(f"{tree}: {workload} seed {seed} exited {proc.returncode}\n{proc.stderr[-2000:]}")
        return {}
    record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
    if not result["correct"]:
        print(f"{tree}: {workload} seed {seed} failed its gate: {record['jobs'][0]['errors']}")
        return {}
    return record["sha256"]


def homeguard(tree: Path, *args: str) -> subprocess.CompletedProcess:
    """``homeguard ARGS`` run from ``tree``'s source, BLAS on one thread;
    ``-c CODE`` runs the Python CODE with that source instead."""
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src"), "OPENBLAS_NUM_THREADS": "1"}
    command = list(args) if args[0] == "-c" else ["-m", "homeguard.cli", *args]
    return subprocess.run([sys.executable, *command], env=env, capture_output=True, text=True)


def synth_home(out: Path, days: int) -> Path:
    """An s1 home of ``days`` days in ``out``, generated by the current tree."""
    proc = homeguard(Path.cwd(), "synth", "--scenario", "s1", "--days", str(days), "--seed", "3",
                     "--output-dir", str(out))
    if proc.returncode != 0:
        raise SystemExit(f"synth exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return out


def synth_homes(work: Path) -> dict[str, Path]:
    """A 5-day s1 home by day origin: whole, and cut to start at 04:00."""
    whole = synth_home(work / "home-00:00", 5)
    cut = work / "home-04:00"
    cut.mkdir()
    for name in ("operations.csv", "sensors.csv"):
        with (whole / name).open(newline="") as handle:
            header, *rows = csv.reader(handle)
        start = rows[0][0][:10] + "T04:00:00"  # ISO timestamps compare as text
        with (cut / name).open("w", newline="") as handle:
            csv.writer(handle).writerows([header, *(row for row in rows if row[0] >= start)])
    return {"00:00": whole, "04:00": cut}


def rewritten_home(home: Path, out: Path) -> Path:
    """``home``'s two logs as another tool might write them: every third
    timestamp without zero padding, rows swapped in pairs from the tenth on,
    a blank line after every fiftieth row, and the first actor cell quoted."""
    out.mkdir()
    for name in ("operations.csv", "sensors.csv"):
        with (home / name).open(newline="") as handle:
            header, *rows = csv.reader(handle)
        for row in rows[::3]:
            ts = datetime.fromisoformat(row[0])
            row[0] = f"{ts.year}-{ts.month}-{ts.day}T{ts.hour}:{ts.minute}:{ts.second}"
        for i in range(10, len(rows) - 1, 2):
            rows[i], rows[i + 1] = rows[i + 1], rows[i]
        if name == "operations.csv":
            rows[0][-1] = f'"{rows[0][-1]}"'
        lines = [",".join(row) + ("\n\n" if i % 50 == 49 else "\n")
                 for i, row in enumerate(rows)]
        (out / name).write_text(",".join(header) + "\n" + "".join(lines))
    return out


def run_digests(tree: Path, steps, out: Path, base: Path) -> dict[str, str]:
    """The digests of every file that the ``homeguard`` commands of
    ``steps``, run one after another in ``tree`` (in ``base`` for a step
    that starts with ``IN_BASE``), write into ``out``; empty when one of
    them fails."""
    out.mkdir(parents=True)
    for step in steps:
        where, command = (base, step[1:]) if step[0] == IN_BASE else (tree, step)
        proc = homeguard(where, *command)
        if proc.returncode != 0:
            print(f"{where}: {command[0]} exited {proc.returncode}\n{proc.stderr[-2000:]}")
            return {}
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


def io_args(home: Path, origin: str) -> tuple[str, ...]:
    return ("--operations", str(home / "operations.csv"), "--sensors",
            str(home / "sensors.csv"), "--day-origin", origin)


def evaluate_steps(home: Path, origin: str, out: Path, args) -> list[tuple]:
    return [("evaluate", *io_args(home, origin), "--injections", "20", "--seed", "1",
             "--output-dir", str(out), *args)]


def label_steps(home: Path, origin: str, out: Path, args) -> list[tuple]:
    return [("label", *io_args(home, origin), "--export", str(out / "labels.csv"),
             "--events-csv", str(out / "events.csv"), *args)]


def operator_steps(home: Path, origin: str, out: Path, args) -> list[tuple]:
    """``train`` on ``home``, then ``detect`` with each method on it."""
    model = str(out / "model.json")
    return [("train", *io_args(home, origin), "--output", model, *args)] + [
        ("detect", "--model", model, *io_args(home, origin), "--method", method,
         "--output", str(out / f"verdicts-{method}.jsonl"))
        for method in DETECT_METHODS
    ]


def base_model_steps(home: Path, origin: str, out: Path, args) -> list[tuple]:
    """``train`` in the base tree, then ``detect`` with each method, in the
    tree under comparison, on the model file the base wrote."""
    train, *detects = operator_steps(home, origin, out, args)
    return [(IN_BASE, *train), *detects]


def trace_steps(home: Path, origin: str, out: Path, args) -> list[tuple]:
    """``train`` on ``home``, then write the digests of the filter's trace
    over it under the trained model."""
    model = str(out / "model.json")
    return [
        ("train", *io_args(home, origin), "--output", model, *args),
        ("-c", TRACE_DIGESTS, model, str(home / "operations.csv"), str(home / "sensors.csv"),
         origin, str(out / "trace.sha256")),
    ]


def write_step(path: str, payload: dict) -> tuple:
    """The step that writes ``payload`` as JSON to ``path``."""
    return ("-c", f"import pathlib; pathlib.Path({path!r}).write_text({json.dumps(payload)!r})")


def config_steps(home: Path, origin: str, out: Path, args) -> list[tuple]:
    """Write ``CONFIG``, then ``train`` under it and ``detect`` with each
    method under it."""
    config = str(out / "config.json")
    model = str(out / "model.json")
    train = ("train", *io_args(home, origin), "--config", config, "--output", model)
    return [write_step(config, CONFIG), train] + [
        ("detect", "--model", model, *io_args(home, origin), "--config", config,
         "--method", method, "--output", str(out / f"verdicts-{method}.jsonl"))
        for method in DETECT_METHODS
    ]


def evaluate_config_steps(home: Path, origin: str, out: Path, args) -> list[tuple]:
    """Write ``EVALUATE_CONFIG``, then ``evaluate`` under it with ``args``."""
    config = str(out / "config.json")
    return [write_step(config, EVALUATE_CONFIG),
            *evaluate_steps(home, origin, out, ("--config", config, *args))]


def vocabulary_steps(home: Path, origin: str, out: Path, args) -> list[tuple]:
    """Save the default vocabulary, then ``train`` with it."""
    vocabulary = str(out / "vocabulary.json")
    save = f"from homeguard.vocab import Vocabulary; Vocabulary().save({vocabulary!r})"
    return [("-c", save), ("train", *io_args(home, origin), "--vocabulary", vocabulary,
                           "--output", str(out / "model.json"))]


def scenario_steps(home: Path, origin: str, out: Path, args) -> list[tuple]:
    """Save the scenario that ``args`` holds, then ``synth`` from the file."""
    [expression] = args
    scenario = str(out / "scenario.json")
    save = ("from dataclasses import replace; "
            "from homeguard.synthgen import save_scenario, scenario_s1; "
            f"save_scenario({expression}, {scenario!r})")
    return [("-c", save), ("synth", "--scenario", scenario, "--output-dir", str(out))]


def synth_steps(home: Path, origin: str, out: Path, args) -> list[tuple]:
    """``synth`` with ``args``."""
    return [("synth", *args, "--output-dir", str(out))]


def compare(label: str, base: dict[str, str], new: dict[str, str]) -> bool:
    same = bool(base) and base == new
    print(f"{label}: {len(new)} outputs, {'same' if same else 'DIFFER'}")
    for name in sorted(set(base) | set(new)):
        if base.get(name) != new.get(name):
            print(f"  {name}: {base.get(name)} -> {new.get(name)}")
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout of the commit to compare against")
    parser.add_argument("--seeds", type=int, nargs="+", default=[23, 37])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    args = parser.parse_args(argv)
    head = Path.cwd()
    failed = 0
    for workload in args.workloads:
        for seed in args.seeds:
            base, new = digests(args.base, workload, seed), digests(head, workload, seed)
            failed += not compare(f"{workload} seed {seed}", base, new)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        homes = synth_homes(work)
        rewritten = rewritten_home(homes["00:00"], work / "home-rewritten")
        long_home = synth_home(work / "home-long", LONG_HOME_DAYS)
        runs = [
            (f"{command} {name}", steps, homes[origin], origin, run_args)
            for command, steps, command_runs in (
                ("evaluate", evaluate_steps, EVALUATE_RUNS),
                ("label", label_steps, LABEL_RUNS),
                ("train-detect", operator_steps, OPERATOR_RUNS),
                ("base-model-detect", base_model_steps, OPERATOR_RUNS),
                ("filter-trace", trace_steps, TRACE_RUNS),
                ("file", config_steps, (("config", "00:00", ()),)),
                ("file", evaluate_config_steps,
                 (("evaluate-config", "00:00", ("--methods", "all")),)),
                ("file", vocabulary_steps, (("vocabulary", "00:00", ()),)),
                ("file", scenario_steps, SCENARIO_FILES),
                ("synth", synth_steps, SYNTH_RUNS),
            )
            for name, origin, run_args in command_runs
        ] + [
            (f"{command} rewritten", steps, rewritten, "00:00", ())
            for command, steps in (("label", label_steps), ("train-detect", operator_steps))
        ] + [("filter-trace three-weeks", trace_steps, long_home, "00:00", ())]
        for label, steps, home, origin, run_args in runs:
            base, new = (
                run_digests(tree, steps(home, origin, out, run_args), out, args.base)
                for tree, out in (
                    (args.base, work / f"base-{label.replace(' ', '-')}"),
                    (head, work / f"head-{label.replace(' ', '-')}"),
                )
            )
            failed += not compare(label, base, new)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
