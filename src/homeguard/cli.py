"""Command-line entry point: label | train | detect | evaluate | synth."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from datetime import time
from itertools import product
from pathlib import Path

import numpy as np

from .detector import (
    BaselineParams,
    Thresholds,
    judge_estimation_baseline,
    judge_proposed,
    judge_sequence_baseline,
)
from .errors import HomeguardError, UsageError, ValidationError
from .evaluation import (
    EstimationGrid,
    EvalDataset,
    ProposedGrid,
    SequenceGrid,
    best_at,
    grid_search,
    pareto_frontier,
    write_results_csv,
)
from .hsmodel import ModelParams, TrainedModel, run_filter, train_model
from .ingest import MAX_SPAN_DAYS, build_timeslots, parse_operation_log, parse_sensor_log
from .labeling import ALPHABET, LabelingParams, export_event_labels, export_labels, label_states
from .payload import faults_as, json_object, load_json, parse_hhmm, record
from .seqstore import SECONDS_PER_DAY, SeqParams, target_windows
from .synthgen import generate, load_scenario, scenario_calibration, scenario_s1
from .vocab import Vocabulary

# The top-level keys a config file may hold; a command reads the ones it uses.
CONFIG_SECTIONS = ("labeling", "seq", "model", "detector", "days")
# The parameter classes each parameter section of a config file holds.
SECTION_PARAMS = {
    "labeling": (LabelingParams,),
    "seq": (SeqParams,),
    "model": (ModelParams,),
    "detector": (Thresholds, BaselineParams),
}
# The methods `evaluate --methods all` scores, in the order it reports them.
METHODS = ("proposed", "estimation", "sequence")


def _parse_time(text: str) -> time:
    try:
        return parse_hhmm(text)
    except ValueError:
        raise UsageError(
            f"--day-origin: expected H:MM or HH:MM with hours 0-23 and minutes 0-59,"
            f" got {text!r}"
        ) from None


def _parse_values(args, name: str, cast, default, threshold: bool = False, check=None):
    """The comma list given to ``--NAME-values``, else ``default``.  A
    threshold list may be "auto" (swept over the recorded scores);
    otherwise each of its values must lie in [0, 1], as the detector's
    thresholds do.  Each value must pass ``check``, a parameter class's rule
    that raises ``ValidationError``, when one is given, and appear once."""
    text, option = getattr(args, f"{name}_values"), f"--{name.replace('_', '-')}-values"
    if text is None:
        return default
    if threshold and text == "auto":
        return "auto"
    try:
        values = tuple(cast(part) for part in text.split(",") if part)
    except ValueError:
        values = ()
    if not values:
        raise UsageError(
            f"{option}: expected {'auto or ' if threshold else ''}a comma list of numbers,"
            f" got {text!r}"
        )
    if threshold and not all(0.0 <= value <= 1.0 for value in values):
        raise UsageError(f"{option}: every value must be a number in [0, 1], got {text!r}")
    for value in values if check else ():
        try:
            check(value)
        except ValidationError as exc:
            raise UsageError(f"{option}: {exc}, got {value!r}") from None
    for value in values:
        if values.count(value) > 1:
            raise UsageError(f"{option}: {value!r} is given more than once")
    return values


def _load_config(args) -> dict:
    path = getattr(args, "config", None)
    if not path:
        return {}
    config = load_json(path, UsageError, "config")
    with faults_as(UsageError, f"config {path}: "):
        return json_object(config, CONFIG_SECTIONS, "")


def section_params(config: dict, section: str, overrides: dict | None = None,
                   source: str | None = None) -> tuple:
    """One object of each class of ``SECTION_PARAMS[section]``, from the
    config's section with the command-line values (those not None) laid
    over it.  A fault raises ``UsageError`` naming ``source`` (the config
    file) and the key."""
    data = config.get(section, {})
    if isinstance(data, dict):
        data = {**data, **{key: value for key, value in (overrides or {}).items()
                           if value is not None}}
    classes = SECTION_PARAMS[section]
    names = [{f.name for f in fields(cls)} for cls in classes]
    with faults_as(UsageError, f"config {source}: " if source else ""):
        json_object(data, set().union(*names), section)
        return tuple(
            record(cls)({key: value for key, value in data.items() if key in mine}, section)
            for cls, mine in zip(classes, names)
        )


def _params(args, config: dict, section: str) -> tuple:
    """``section_params`` with the command's flags laid over the config: a
    flag sets the field it is named after.  ``--night-window`` H:MM-H:MM
    gives the window's two ends, and an empty one is not given."""
    overrides = {f.name: getattr(args, f.name, None)
                 for cls in SECTION_PARAMS[section] for f in fields(cls)}
    window = overrides.get("night_window")
    if window is not None:
        overrides["night_window"] = window.split("-") if window else None
    return section_params(config, section, overrides, args.config)


def _vocabulary(args) -> Vocabulary:
    if getattr(args, "vocabulary", None):
        return Vocabulary.load(args.vocabulary)
    return Vocabulary()


def _load_stream(args, vocabulary: Vocabulary, on_unknown: str = "error"):
    events = parse_operation_log(args.operations, vocabulary, on_unknown=on_unknown)
    frames = parse_sensor_log(args.sensors, ranges=vocabulary.sensor_ranges or None)
    return build_timeslots(events, frames, day_origin=_parse_time(args.day_origin))


def cmd_label(args) -> int:
    config = _load_config(args)
    vocabulary = _vocabulary(args)
    [params] = _params(args, config, "labeling")
    grid = _load_stream(args, vocabulary)
    labels = label_states(grid, params, vocabulary)
    if args.export:
        export_labels(grid, labels, args.export)
    if args.events_csv:
        export_event_labels(grid, labels, args.events_csv)
    if not args.export and not args.events_csv:
        counts = np.bincount(labels.state, minlength=len(ALPHABET))
        excluded = np.count_nonzero(np.bincount(labels.day[labels.excluded]))
        print(f"slots={len(grid)} days={len(grid) // 1440} excluded_days={excluded}")
        for key, count in sorted((state.key, n) for state, n in zip(ALPHABET, counts) if n):
            print(f"{key} {count}")
    return 0


def cmd_train(args) -> int:
    config = _load_config(args)
    vocabulary = _vocabulary(args)
    [labeling] = _params(args, config, "labeling")
    [model_params] = _params(args, config, "model")
    [seq_params] = _params(args, config, "seq")
    grid = _load_stream(args, vocabulary)
    if not grid.events:
        raise UsageError("training requires a non-empty operation log")
    model = train_model(grid, vocabulary, labeling, model_params, seq_params)
    model.save(args.output)
    print(f"model written to {args.output}")
    return 0


def cmd_detect(args) -> int:
    thresholds, baseline = _params(args, _load_config(args), "detector")
    model = TrainedModel.load(args.model)
    vocabulary = model.vocabulary
    grid = _load_stream(args, vocabulary, on_unknown="skip")
    target = vocabulary.detection_target
    stream = grid.events
    ends, starts = target_windows(stream, grid.event_at, target, model.seq_params.t_seq)
    windows = [(stream[lo:idx], stream[idx]) for idx, lo in zip(ends.tolist(), starts.tolist())]
    if args.method == "sequence":
        verdicts = judge_sequence_baseline(
            model.baseline_store, windows, baseline, model.seq_params, target
        )
    else:
        # Only the proposed and estimation methods read a belief, so only they
        # pay for the filter; its trace holds the grid's events in order.
        beliefs = run_filter(grid, model.transitions, model.operations).pre[ends]
        if args.method == "proposed":
            verdicts = judge_proposed(model, beliefs, windows, thresholds)
        else:
            verdicts = judge_estimation_baseline(
                model.operations, beliefs, windows, baseline.theta, target
            )
    lines = [verdict.to_jsonl() for verdict in verdicts]
    output = "\n".join(lines) + ("\n" if lines else "")
    if args.output:
        Path(args.output).write_text(output)
    else:
        sys.stdout.write(output)
    return 0


def cmd_evaluate(args) -> int:
    """Score the methods of ``--methods`` over one grid of labelings and
    values, and write each method's points and frontier.

    Each grid value comes from its ``--*-values`` list, else from the
    config: the labeling windows from its ``labeling`` section, the
    criterion and the one ``l`` (``l_rank`` or ``l_alpha``) from its
    ``seq`` section, each else the parameter class's default; a threshold
    or ``alpha_seq`` list from the key of the same name in its ``detector``
    section, else its grid class's default.  Every list given is checked,
    whatever ``--methods`` names, before the logs are read.
    """
    methods = METHODS if args.methods == "all" else tuple(args.methods.split(","))
    for method in methods:
        if method not in METHODS:
            raise UsageError(
                f"--methods: unknown method {method!r}, expected 'all' or a comma list"
                f" of {', '.join(METHODS)}"
            )
        if methods.count(method) > 1:
            raise UsageError(f"--methods: {method!r} is given more than once")
    if args.best_at is not None and not 0.0 <= args.best_at <= 1.0:
        raise UsageError(f"--best-at: expected a number in [0, 1], got {args.best_at!r}")
    for option, value in (("--injections", args.injections), ("--seed", args.seed)):
        if value < 0:
            raise UsageError(f"{option}: expected a non-negative integer, got {value}")
    # Injected operations fall on whole seconds of their day.
    if args.injections > SECONDS_PER_DAY:
        raise UsageError(
            f"--injections: expected at most {SECONDS_PER_DAY} per day, one per second,"
            f" got {args.injections}"
        )
    config = _load_config(args)
    [labeling] = _params(args, config, "labeling")
    [model_params] = _params(args, config, "model")
    [seq_params] = _params(args, config, "seq")
    # A detector key given in the config is the one value of its list.
    detector = {
        name: (float(getattr(params, name)),)
        for params in _params(args, config, "detector")
        for name in config.get("detector", {}) if hasattr(params, name)
    }
    # Each structural value is checked by the rule of the parameter it sets.
    windows = {
        name: _parse_values(
            args, name, int, (getattr(labeling, name),),
            check=lambda value: LabelingParams(**{name: value}),
        )
        for name in ("t_x", "t_y", "t_c")
    }
    labelings = [replace(labeling, **dict(zip(windows, values)))
                 for values in product(*windows.values())]
    l_name = "l_rank" if seq_params.criterion == "rank" else "l_alpha"
    grids = {
        "proposed": ProposedGrid(
            _parse_values(
                args, "l", int if l_name == "l_rank" else float, (getattr(seq_params, l_name),),
                check=lambda value: SeqParams(**{l_name: value}),
            ),
            _parse_values(args, "n_single", float, detector.get("n_single", ProposedGrid.n_single),
                          threshold=True),
            _parse_values(args, "n_multi", float, detector.get("n_multi", ProposedGrid.n_multi),
                          threshold=True),
        ),
        "estimation": EstimationGrid(
            _parse_values(args, "theta", float, detector.get("theta", EstimationGrid.theta),
                          threshold=True)
        ),
    }
    alpha_seq = _parse_values(
        args, "alpha_seq", float, detector.get("alpha_seq", SequenceGrid.alpha_seq)
    )
    try:
        grids["sequence"] = SequenceGrid(
            alpha_seq,
            _parse_values(args, "n_seq_single", float,
                          detector.get("n_seq_single", SequenceGrid.n_single), threshold=True),
            _parse_values(args, "n_seq_multi", float,
                          detector.get("n_seq_multi", SequenceGrid.n_multi), threshold=True),
        )
    except ValidationError as exc:
        raise UsageError(f"--alpha-seq-values: {exc}") from None

    vocabulary = _vocabulary(args)
    injected = (vocabulary.detection_target, "on")  # what inject_anomalies injects
    if args.injections > 0 and not vocabulary.is_registered(*injected):
        raise UsageError(f"--injections: the injected operation {injected!r} is not registered"
                         f" in vocabulary file {args.vocabulary}")
    dataset = EvalDataset(_load_stream(args, vocabulary), vocabulary)
    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    points = grid_search(
        dataset,
        *(grids[method] for method in methods),
        labelings=labelings,
        model_params=model_params,
        seq_params=seq_params,
        injections_per_day=args.injections,
        seed=args.seed,
    )

    for method in methods:
        method_points = [point for point in points if point.method == method]
        frontier = pareto_frontier(method_points)
        write_results_csv(method_points, output_dir / f"results_{method}.csv")
        write_results_csv(frontier, output_dir / f"frontier_{method}.csv")
        if args.best_at is not None:
            point = best_at(frontier, args.best_at)
            if point is None:
                print(f"{method}: no point under misdetection {args.best_at}")
            else:
                print(
                    f"{method}: detection={point.detection_ratio:.4f} "
                    f"misdetection={point.misdetection_ratio:.4f} params={point.params_json}"
                )
    return 0


def cmd_synth(args) -> int:
    config = _load_config(args)
    if args.seed is not None and args.seed < 0:
        raise UsageError(f"--seed: expected a non-negative integer, got {args.seed}")
    if args.scenario == "s1":
        scenario = scenario_s1()
    elif args.scenario == "calibration":
        scenario = scenario_calibration()
    else:
        scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    if args.days is not None or "days" in config:
        days, where = (
            (args.days, "--days")
            if args.days is not None
            else (config["days"], f"config {args.config} key 'days'")
        )
        if isinstance(days, bool) or not isinstance(days, int) or not 1 <= days <= MAX_SPAN_DAYS:
            raise UsageError(
                f"{where}: expected a whole number of days in 1..{MAX_SPAN_DAYS}, got {days!r}"
            )
        scenario = replace(scenario, n_days=days)
    result = generate(scenario)
    paths = result.write(args.output_dir)
    for name, path in sorted(paths.items()):
        print(f"{name}: {path}")
    return 0


def _add_io_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--operations", required=True, help="operation log CSV")
    parser.add_argument("--sensors", required=True, help="sensor log CSV")
    parser.add_argument("--vocabulary", help="vocabulary JSON file")
    parser.add_argument("--day-origin", default="00:00", help="time of day where slot 1 starts")
    parser.add_argument("--config", help="JSON file with parameter sections")


def _add_labeling_arguments(parser: argparse.ArgumentParser, windows: bool = True) -> None:
    """The labeling flags; ``evaluate`` lists its windows instead."""
    for name in ("t_x", "t_y", "t_c") if windows else ():
        parser.add_argument(f"--{name.replace('_', '-')}", type=int, dest=name)
    parser.add_argument("--noise-threshold", type=float, dest="noise_threshold")
    parser.add_argument("--co2-threshold", type=float, dest="co2_threshold")
    parser.add_argument("--night-window", dest="night_window", help="HH:MM-HH:MM")
    parser.add_argument("--initial-occupants", type=int, dest="initial_occupants")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homeguard",
        description="Smart-home device operation anomaly detection",
    )
    sub = parser.add_subparsers(dest="command")

    p_label = sub.add_parser("label", help="label a log stream with home states")
    _add_io_arguments(p_label)
    _add_labeling_arguments(p_label)
    p_label.add_argument("--export", help="write slot labels CSV here")
    p_label.add_argument("--events-csv", dest="events_csv", help="write per-event labels CSV here")
    p_label.set_defaults(func=cmd_label)

    p_train = sub.add_parser("train", help="train a detection model")
    _add_io_arguments(p_train)
    _add_labeling_arguments(p_train)
    p_train.add_argument("--output", required=True, help="model JSON path")
    p_train.add_argument("--t-z-max", type=int, dest="t_z_max")
    p_train.add_argument("--t-seq", type=float, dest="t_seq")
    p_train.add_argument("--criterion", choices=("rank", "alpha"))
    p_train.add_argument("--l-rank", type=int, dest="l_rank")
    p_train.add_argument("--l-alpha", type=float, dest="l_alpha")
    p_train.set_defaults(func=cmd_train)

    p_detect = sub.add_parser("detect", help="judge target operations in a stream")
    p_detect.add_argument("--model", required=True)
    p_detect.add_argument("--operations", required=True)
    p_detect.add_argument("--sensors", required=True)
    p_detect.add_argument("--day-origin", default="00:00")
    p_detect.add_argument("--config", help="JSON file with a 'detector' section")
    p_detect.add_argument("--method", choices=("proposed", "estimation", "sequence"),
                          default="proposed")
    p_detect.add_argument("--output", help="verdicts JSONL path (default: stdout)")
    p_detect.add_argument("--n-single", type=float, dest="n_single")
    p_detect.add_argument("--n-multi", type=float, dest="n_multi")
    p_detect.add_argument("--theta", type=float)
    p_detect.add_argument("--alpha-seq", type=float, dest="alpha_seq")
    p_detect.add_argument("--n-seq-single", type=float, dest="n_seq_single")
    p_detect.add_argument("--n-seq-multi", type=float, dest="n_seq_multi")
    p_detect.set_defaults(func=cmd_detect)

    p_eval = sub.add_parser("evaluate", help="cross-validated grid evaluation")
    _add_io_arguments(p_eval)
    _add_labeling_arguments(p_eval, windows=False)
    p_eval.add_argument("--output-dir", required=True, dest="output_dir")
    p_eval.add_argument("--methods", default="all",
                        help="'all' or comma list of proposed,estimation,sequence")
    p_eval.add_argument("--injections", type=int, default=100)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--jobs", type=int, choices=(1,), default=1,
                        help="accepted for compatibility; the folds always run one "
                             "after another in one process, so only 1 is allowed")
    p_eval.add_argument("--best-at", type=float, dest="best_at")
    # No list has a default here: an absent one is read in cmd_evaluate.
    for name in ("t_x", "t_y", "t_c", "l", "n_single", "n_multi", "theta", "alpha_seq",
                 "n_seq_single", "n_seq_multi"):
        p_eval.add_argument(f"--{name.replace('_', '-')}-values", dest=f"{name}_values")
    p_eval.add_argument("--criterion", choices=("rank", "alpha"))
    p_eval.add_argument("--t-seq", type=float, dest="t_seq")
    p_eval.set_defaults(func=cmd_evaluate)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--scenario", default="s1",
                         help="'s1', 'calibration', or a scenario JSON path")
    p_synth.add_argument("--output-dir", required=True, dest="output_dir")
    p_synth.add_argument("--seed", type=int,
                         help="overrides the scenario's seed (the built-in ones use 0)")
    p_synth.add_argument("--days", type=int)
    p_synth.add_argument("--config", help="JSON file; 'days' key honored")
    p_synth.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except HomeguardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal invariant violations
        print(f"internal: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
