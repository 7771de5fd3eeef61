"""Workload definitions: which streams to generate and which commands to run.

Each workload is one closed-loop batch job from a single process: the
commands run one after another, each waiting for the previous one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

TARGET_DEVICE = "cooking_stove"  # the default vocabulary's detection target
SMOKE_DAYS = 4
SMOKE_INJECTIONS = 25


@dataclass(frozen=True)
class Stream:
    """One generated input stream (operation and sensor CSVs)."""

    name: str
    days: int
    seed_offset: int = 0  # data seed = workload seed + offset
    scenario: str = "s1"
    habit_scale: float = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    streams: tuple[Stream, ...]
    kind: str  # "evaluate" or "train-detect"
    methods: tuple[str, ...]
    evaluate_args: tuple[str, ...] = ()
    injections: int = 100

    def smoke(self) -> "Workload":
        """The same job shape on the tiny calibration scenario."""
        streams = tuple(
            replace(s, scenario="calibration", days=SMOKE_DAYS, habit_scale=1.0)
            for s in self.streams
        )
        return replace(self, streams=streams, injections=SMOKE_INJECTIONS)


# Thresholds for `detect`; the proposed pair is the README walkthrough's, the
# others are the CLI defaults spelled out so the gate does not depend on them.
DETECT_ARGS = {
    "proposed": ("--n-single", "0.01", "--n-multi", "0.01"),
    "estimation": ("--theta", "0.5"),
    "sequence": ("--alpha-seq", "900", "--n-seq-single", "0.1", "--n-seq-multi", "0.1"),
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="loocv-s1-28d",
            why="the paper's leave-one-day-out protocol (acceptance C7); hsmodel refits per fold dominate",
            streams=(Stream("data", days=28),),
            kind="evaluate",
            methods=("proposed", "sequence"),
            evaluate_args=(
                "--methods", "proposed,sequence",
                "--t-x-values", "15", "--t-y-values", "15", "--t-c-values", "10",
                "--l-values", "1,2", "--initial-occupants", "2",
            ),
        ),
        Workload(
            name="loocv-dense-7d",
            why="habit rates x20 fill windows to w_max, so subsequence enumeration and scoring dominate",
            streams=(Stream("data", days=7, habit_scale=20.0),),
            kind="evaluate",
            methods=("proposed", "estimation", "sequence"),
            evaluate_args=(
                "--methods", "all", "--t-seq", "1800", "--l-values", "1",
                "--initial-occupants", "2",
            ),
        ),
        Workload(
            name="train-detect-s1-90d",
            why="operator path: one train on 90 days, then detect with each method on another 90-day stream",
            streams=(Stream("train", days=90), Stream("detect", days=90, seed_offset=1)),
            kind="train-detect",
            methods=("proposed", "estimation", "sequence"),
        ),
    )
}


def get(name: str, smoke: bool = False) -> Workload:
    workload = WORKLOADS[name]
    return workload.smoke() if smoke else workload


def commands(workload: Workload, data: Path, out: Path, seed: int) -> list[tuple[str, list[str]]]:
    """(label, argv) for each CLI call of one job; outputs land under ``out``."""
    def io(stream: str) -> list[str]:
        return ["--operations", str(data / stream / "operations.csv"),
                "--sensors", str(data / stream / "sensors.csv")]

    if workload.kind == "evaluate":
        argv = ["evaluate", *io("data"), "--output-dir", str(out),
                "--injections", str(workload.injections), "--seed", str(seed),
                "--jobs", "1", "--best-at", "0.10", *workload.evaluate_args]
        return [("evaluate", argv)]
    model = str(out / "model.json")
    calls = [("train", ["train", *io("train"), "--initial-occupants", "2", "--output", model])]
    for method in workload.methods:
        calls.append((
            f"detect-{method}",
            ["detect", "--model", model, *io("detect"), "--method", method,
             "--output", str(out / f"verdicts_{method}.jsonl"), *DETECT_ARGS[method]],
        ))
    return calls
