"""Seeded synthetic home datasets for end-to-end testing.

A scenario describes household rhythms (sleep/out intervals, cooking sessions
with jitter), per-activity device habits, and a simple sensor model (baseline
plus activity-dependent offsets plus Gaussian noise, clipped to the physical
ranges).  Generation is deterministic: every day draws from its own
``(seed, day)`` random stream, and outputs are byte-identical across runs.
A day is computed on arrays over its minutes, and the result holds the
sensor readings and the per-slot truth as columns.

Anomalies are never simulated here; the evaluation harness injects them.

A scenario file is the scenario in the JSON form of ``payload.to_payload``,
read back through ``payload.record`` by the rules listed there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from pathlib import Path
from typing import ClassVar

import numpy as np

from .errors import ValidationError
from .ingest import (
    MAX_SPAN_DAYS,
    SLOTS_PER_DAY,
    EventRecord,
    SensorFrames,
    slot_columns,
    write_csv,
    write_operation_log,
    write_sensor_log,
)
from .payload import dict_of, faults_as, list_of, load_json, record, rows, to_payload, tuple_of
from .vocab import DEFAULT_SENSOR_RANGES, SENSOR_FIELDS


@dataclass(frozen=True)
class Interval:
    """Minutes of day [start, end); end before start wraps past midnight."""

    JSON_ROW: ClassVar[bool] = True  # written as [start_minute, end_minute]
    start_minute: int
    end_minute: int

    def __post_init__(self) -> None:
        for value in (self.start_minute, self.end_minute):
            if not 0 <= value < SLOTS_PER_DAY:
                raise ValidationError(f"minute {value} outside [0, 1440)")

    def contains(self, minute):
        """Whether ``minute`` (a number or an array of them) is inside."""
        if self.start_minute <= self.end_minute:
            return (self.start_minute <= minute) & (minute < self.end_minute)
        return (minute >= self.start_minute) | (minute < self.end_minute)


@dataclass(frozen=True)
class CookSession:
    """One cooking session: appliance on at start, off (if it has one) at end.

    ``lead_ops`` emit non-cooking events shortly before the session starts,
    giving the dataset learnable multi-event behavior sequences.
    """

    start_minute: int
    duration: int
    appliance: str = "cooking_stove"
    lead_ops: tuple[tuple[str, str, int], ...] = ()  # (device, action, seconds before)


@dataclass(frozen=True)
class DeviceHabit:
    JSON_ROW: ClassVar[bool] = True  # written as [device, action, activity, rate_per_hour]
    device: str
    action: str
    activity: str = "active"
    rate_per_hour: float = 0.0


@dataclass(frozen=True)
class SensorChannel:
    base: float
    sleep_offset: float = 0.0
    out_offset: float = 0.0
    cook_offset: float = 0.0
    noise_std: float = 0.0

    def __post_init__(self) -> None:
        if not self.noise_std >= 0:
            raise ValidationError("must be non-negative", field="noise_std")


@dataclass
class DayTemplate:
    sleep: tuple[Interval, ...] = ()
    out: tuple[Interval, ...] = ()
    cook: tuple[CookSession, ...] = ()


def _default_sensors() -> dict[str, SensorChannel]:
    return {
        "temperature": SensorChannel(base=21.0, noise_std=0.2),
        "humidity": SensorChannel(base=50.0, noise_std=1.0),
        "atmosphere": SensorChannel(base=1010.0, noise_std=0.5),
        "co2": SensorChannel(base=650.0, sleep_offset=1100.0, out_offset=-150.0, noise_std=60.0),
        "noise": SensorChannel(base=45.0, sleep_offset=-13.0, cook_offset=8.0, noise_std=1.0),
    }


@dataclass
class Scenario:
    name: str = "scenario"
    n_users: int = 2
    n_days: int = 28
    seed: int = 0
    start_date: date = date(2021, 3, 1)  # a Monday
    weekday: DayTemplate = field(default_factory=DayTemplate)
    weekend: DayTemplate | None = None
    jitter_std_minutes: float = 0.0
    habits: tuple[DeviceHabit, ...] = ()
    sensors: dict[str, SensorChannel] = field(default_factory=_default_sensors)
    sensor_interval_minutes: int = 5

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValidationError("must be non-negative", field="seed")
        # Nothing downstream reads a longer stream.
        if not 1 <= self.n_days <= MAX_SPAN_DAYS:
            raise ValidationError(f"must be in 1..{MAX_SPAN_DAYS}", field="n_days")
        if self.n_users < 1:
            raise ValidationError("must be at least 1", field="n_users")
        if not 1 <= self.sensor_interval_minutes <= SLOTS_PER_DAY:
            raise ValidationError(f"must be in 1..{SLOTS_PER_DAY}", field="sensor_interval_minutes")
        if not self.jitter_std_minutes >= 0:
            raise ValidationError("must be non-negative", field="jitter_std_minutes")
        if date.max - self.start_date < timedelta(days=self.n_days - 1):
            raise ValidationError(f"{self.n_days} days do not fit before {date.max}",
                                  field="start_date")
        for template in (self.weekday, self.weekend or self.weekday):
            for interval in template.out:
                if interval.start_minute > interval.end_minute:
                    raise ValidationError(
                        "out intervals must not wrap midnight", field="out"
                    )
        for habit in self.habits:
            if habit.rate_per_hour < 0:
                raise ValidationError("must be non-negative", field="rate_per_hour")
        for name in SENSOR_FIELDS:
            if name not in self.sensors:
                raise ValidationError(f"missing sensor channel {name!r}")

    def template_for(self, day: int) -> DayTemplate:
        weekday_index = (self.start_date + timedelta(days=day)).weekday()
        if weekday_index >= 5 and self.weekend is not None:
            return self.weekend
        return self.weekday


@dataclass
class SynthResult:
    """A generated home: its two logs, and the truth per one-minute slot
    from ``start`` (slot ``p`` is numbered ``t = p + 1``): the user activity
    (``"active"``, ``"sleep"`` or ``"out"``) and whether a cooking session
    runs."""

    events: list[EventRecord]
    frames: SensorFrames
    start: datetime
    activity: np.ndarray  # (n_slots,) str
    cooking: np.ndarray  # (n_slots,) bool

    def write(self, output_dir: str | Path) -> dict[str, Path]:
        output_dir = Path(output_dir)
        output_dir.mkdir(parents=True, exist_ok=True)
        paths = {
            "operations": output_dir / "operations.csv",
            "sensors": output_dir / "sensors.csv",
            "truth": output_dir / "truth.csv",
        }
        write_operation_log(self.events, paths["operations"])
        write_sensor_log(self.frames, paths["sensors"])
        write_csv(
            paths["truth"],
            ["t", "k", "timestamp", "u", "d"],
            zip(*slot_columns(self.start, len(self.activity)), self.activity.tolist(),
                np.where(self.cooking, "use", "none").tolist()),
        )
        return paths


def _jitter(rng: np.random.Generator, std: float) -> int:
    if std <= 0:
        return 0
    raw = rng.normal(0.0, std)
    return int(round(float(np.clip(raw, -3 * std, 3 * std))))


def generate(scenario: Scenario) -> SynthResult:
    """Generate one dataset: operation log, sensor log, per-slot ground truth.

    Each day is computed on arrays over its minutes.  Its random stream is
    drawn in a fixed order: the interval jitters, the session seconds, two
    draws per habit, then one normal draw per noisy channel of each sensor
    sample, sample after sample.  A day's sensor timestamps are its start as
    ``datetime64[us]`` plus the sampled minutes, one array addition.
    """
    events: list[EventRecord] = []
    timestamps: list[np.ndarray] = []
    readings: list[np.ndarray] = []
    activities: list[np.ndarray] = []
    cookings: list[np.ndarray] = []
    day0 = datetime.combine(scenario.start_date, datetime.min.time())
    channels = [scenario.sensors[name] for name in SENSOR_FIELDS]
    noisy = [c for c, channel in enumerate(channels) if channel.noise_std > 0]
    noise_std = np.array([channels[c].noise_std for c in noisy])
    low, high = np.array([DEFAULT_SENSOR_RANGES[name] for name in SENSOR_FIELDS]).T
    minutes = np.arange(SLOTS_PER_DAY)
    sampled = minutes[:: scenario.sensor_interval_minutes]
    sampled_at = sampled.astype("timedelta64[m]")

    for day in range(scenario.n_days):
        rng = np.random.default_rng([scenario.seed, day])
        day_start = day0 + timedelta(days=day)
        template = scenario.template_for(day)
        std = scenario.jitter_std_minutes

        sleep_ivals = [
            Interval(
                (iv.start_minute + _jitter(rng, std)) % SLOTS_PER_DAY,
                (iv.end_minute + _jitter(rng, std)) % SLOTS_PER_DAY,
            )
            for iv in template.sleep
        ]
        out_ivals = [
            Interval(
                max(0, min(SLOTS_PER_DAY - 1, iv.start_minute + _jitter(rng, std))),
                max(0, min(SLOTS_PER_DAY - 1, iv.end_minute + _jitter(rng, std))),
            )
            for iv in template.out
        ]
        sessions = [
            (
                max(0, min(SLOTS_PER_DAY - 2, cs.start_minute + _jitter(rng, std))),
                max(1, cs.duration),
                cs,
            )
            for cs in template.cook
        ]

        activity = np.full(SLOTS_PER_DAY, "active")
        for name, intervals in (("sleep", sleep_ivals), ("out", out_ivals)):
            for interval in intervals:
                activity[interval.contains(minutes)] = name
        cooking = np.zeros(SLOTS_PER_DAY, dtype=bool)
        for start, duration, _ in sessions:
            cooking[start : start + duration] = True
        activity[cooking] = "active"

        day_events: list[EventRecord] = []
        for iv in out_ivals:
            if iv.start_minute >= iv.end_minute:
                continue
            for user in range(scenario.n_users):
                day_events.append(
                    EventRecord(
                        day_start + timedelta(minutes=iv.start_minute, seconds=user),
                        "user_position",
                        "exit",
                        actor=f"user{user}",
                    )
                )
                day_events.append(
                    EventRecord(
                        day_start + timedelta(minutes=iv.end_minute, seconds=user),
                        "user_position",
                        "entry",
                        actor=f"user{user}",
                    )
                )
        for start, duration, session in sessions:
            start_second = start * 60 + int(rng.integers(0, 30))
            for device, action, lead in session.lead_ops:
                lead_second = max(0, start_second - lead)
                day_events.append(
                    EventRecord(
                        day_start + timedelta(seconds=lead_second), device, action
                    )
                )
            day_events.append(
                EventRecord(
                    day_start + timedelta(seconds=start_second), session.appliance, "on"
                )
            )
            if session.appliance == "cooking_stove":
                # Lands strictly after the "on" and inside the session.
                end_second = (start + duration) * 60 - 1 - int(rng.integers(0, 30))
                day_events.append(
                    EventRecord(
                        day_start + timedelta(seconds=end_second),
                        session.appliance,
                        "off",
                    )
                )
        for habit in scenario.habits:
            draws = rng.random(SLOTS_PER_DAY)
            offsets = rng.integers(0, 60, size=SLOTS_PER_DAY)
            probability = habit.rate_per_hour / 60.0
            fires = (activity == habit.activity) & ~cooking & (draws < probability)
            day_events.extend(
                EventRecord(day_start + timedelta(minutes=minute, seconds=second),
                            habit.device, habit.action)
                for minute, second in zip(np.flatnonzero(fires).tolist(), offsets[fires].tolist())
            )
        day_events.sort(key=lambda e: e.timestamp)
        events.extend(day_events)

        # Each sample adds the offsets in force and its noise to the bases,
        # in the order a reading's value is built, then clips.
        state = activity[sampled]
        # Float whatever the bases' type: a scenario file may give them as integers.
        values = np.tile(np.array([channel.base for channel in channels], dtype=float),
                         (len(sampled), 1))
        values[state == "sleep"] += [channel.sleep_offset for channel in channels]
        values[state == "out"] += [channel.out_offset for channel in channels]
        values[cooking[sampled]] += [channel.cook_offset for channel in channels]
        values[:, noisy] += rng.normal(0.0, noise_std, size=(len(sampled), len(noisy)))
        # Clip as a scalar np.clip does, replacing only values strictly out of
        # range: the array np.clip turns a -0.0 at a bound of 0.0 into 0.0.
        np.copyto(values, low, where=values < low)
        np.copyto(values, high, where=values > high)
        # Python's round, value by value: np.round may round a half the other way.
        readings.append(np.array([round(v, 2) for v in values.ravel().tolist()]))
        timestamps.append(np.datetime64(day_start, "us") + sampled_at)
        activities.append(activity)
        cookings.append(cooking)

    return SynthResult(
        events=events,
        frames=SensorFrames(np.concatenate(timestamps),
                            np.concatenate(readings).reshape(-1, len(SENSOR_FIELDS))),
        start=day0,
        activity=np.concatenate(activities),
        cooking=np.concatenate(cookings),
    )


def scenario_s1(seed: int = 0, n_days: int = 28) -> Scenario:
    """Two users, regular weekday rhythm: cook around 07:30 and 19:00 with
    ten-minute jitter, sleep 23:30 to 07:00, out 09:00 to 18:00 on weekdays."""
    fridge_lead = (("refrigerator", "opening", 120),)
    weekday = DayTemplate(
        sleep=(Interval(23 * 60 + 30, 7 * 60),),
        out=(Interval(9 * 60, 18 * 60),),
        cook=(
            CookSession(7 * 60 + 30, 20, lead_ops=fridge_lead),
            CookSession(19 * 60, 25, lead_ops=fridge_lead),
        ),
    )
    weekend = DayTemplate(
        sleep=(Interval(23 * 60 + 30, 7 * 60),),
        out=(),
        cook=(
            CookSession(7 * 60 + 30, 20, lead_ops=fridge_lead),
            CookSession(19 * 60, 25, lead_ops=fridge_lead),
        ),
    )
    return Scenario(
        name="s1",
        n_users=2,
        n_days=n_days,
        seed=seed,
        weekday=weekday,
        weekend=weekend,
        jitter_std_minutes=10.0,
        habits=(
            DeviceHabit("room_light", "on", "active", 0.5),
            DeviceHabit("room_light", "off", "active", 0.5),
            DeviceHabit("tv", "on", "active", 0.3),
            DeviceHabit("tv", "off", "active", 0.3),
            DeviceHabit("refrigerator", "opening", "active", 0.8),
        ),
    )


def scenario_calibration(seed: int = 0, n_days: int = 4) -> Scenario:
    """Noise-free scenario with five-minute-aligned transitions; labeling can
    recover the activity channel exactly."""
    scenario = scenario_s1(seed=seed, n_days=n_days)
    scenario.name = "calibration"
    scenario.jitter_std_minutes = 0.0
    scenario.sensors = {
        name: SensorChannel(
            base=channel.base,
            sleep_offset=channel.sleep_offset,
            out_offset=channel.out_offset,
            cook_offset=channel.cook_offset,
            noise_std=0.0,
        )
        for name, channel in scenario.sensors.items()
    }
    return scenario


# --- scenario JSON round trip ----------------------------------------------
# The JSON form is ``payload.to_payload``'s; this table reads it back.

_TEMPLATE = record(
    DayTemplate,
    sleep=rows(Interval, int, int),
    out=rows(Interval, int, int),
    cook=list_of(record(CookSession, start_minute=int, duration=int,
                        lead_ops=list_of(tuple_of(str, str, int)))),
)
_SCENARIO = record(
    Scenario,
    weekday=_TEMPLATE,
    # An empty weekend, like none, means every day follows the weekday.
    weekend=lambda value, where: None if value in (None, {}) else _TEMPLATE(value, where),
    habits=rows(DeviceHabit, str, str, str, float),
    sensors=lambda value, where: (
        dict_of(record(SensorChannel, base=float), SENSOR_FIELDS)(value, where)
        or _default_sensors()
    ),
)


def scenario_from_payload(payload) -> Scenario:
    """A scenario from its JSON form.  Every key and value is checked: a
    fault raises ``ValidationError`` naming the key."""
    return _SCENARIO(payload, "")


def load_scenario(path: str | Path) -> Scenario:
    payload = load_json(path, ValidationError, "scenario file")
    with faults_as(ValidationError, f"scenario file {path}: "):
        return scenario_from_payload(payload)


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(to_payload(scenario), indent=2, sort_keys=True))
