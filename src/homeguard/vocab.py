"""Device/action vocabulary and sensor schema registry.

The registry pins down which (device, action) pairs may appear in operation
logs, which devices count as cooking appliances, which single device is the
detection target, and the accepted physical range of each sensor channel.
It is loaded from / saved to a small JSON file so deployments can extend the
default set without code changes; the file is read by the rules of
``payload``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import SchemaError, ValidationError
from .payload import at, dict_of, faults_as, list_of, load_json, record, to_payload, tuple_of

# Default registry: one entry per device with its action set.
DEFAULT_PAIRS: dict[str, tuple[str, ...]] = {
    "user_position": ("entry", "exit"),
    "room_light": ("on", "off"),
    "air_conditioner": ("cooling", "heating", "turning_up", "turning_down", "off"),
    "electric_fan": ("on", "off"),
    "heater": ("on", "off"),
    "washing_machine": ("on",),
    "refrigerator": ("opening",),
    "tv": ("on", "off"),
    "cooking_stove": ("on", "off"),
    "microwave": ("on",),
    "toaster_oven": ("on",),
    "rice_cooker": ("on",),
}

# The refrigerator is deliberately not a cooking appliance: it is opened all
# day long, not only while cooking.
DEFAULT_COOKING_APPLIANCES: tuple[str, ...] = (
    "cooking_stove",
    "microwave",
    "toaster_oven",
    "rice_cooker",
)

DEFAULT_DETECTION_TARGET = "cooking_stove"
PRESENCE_DEVICE = "user_position"

SENSOR_FIELDS: tuple[str, ...] = ("temperature", "humidity", "atmosphere", "co2", "noise")

DEFAULT_SENSOR_RANGES: dict[str, tuple[float, float]] = {
    "temperature": (0.0, 50.0),
    "humidity": (0.0, 100.0),
    "atmosphere": (260.0, 1260.0),
    "co2": (0.0, 5000.0),
    "noise": (30.0, 130.0),
}


@dataclass
class Vocabulary:
    """Registered event pairs plus the device roles the pipeline needs.

    ``pairs`` maps device name to its allowed actions.  ``sensor_ranges`` maps
    sensor field name to an inclusive (low, high) interval; a field may be
    omitted to disable range checking for it.
    """

    pairs: dict[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_PAIRS)
    )
    cooking_appliances: tuple[str, ...] = DEFAULT_COOKING_APPLIANCES
    detection_target: str = DEFAULT_DETECTION_TARGET
    presence_device: str = PRESENCE_DEVICE
    sensor_ranges: dict[str, tuple[float, float]] = field(
        default_factory=lambda: dict(DEFAULT_SENSOR_RANGES)
    )

    def __post_init__(self) -> None:
        # A model file keys a pair as "device:action", split at the first
        # ":", and a sequence as its pairs joined by "|".
        for device, actions in self.pairs.items():
            if ":" in device or "|" in device:
                raise ValidationError(
                    f"device name {device!r} may not contain ':' or '|'", field=at("pairs", device)
                )
            for i, action in enumerate(actions):
                if "|" in action:
                    raise ValidationError(
                        f"action name {action!r} may not contain '|'",
                        field=f"{at('pairs', device)}[{i}]",
                    )
        for device in self.cooking_appliances:
            if device not in self.pairs:
                raise ValidationError(f"cooking appliance {device!r} is not registered")
        if self.detection_target not in self.pairs:
            raise ValidationError(
                f"detection target {self.detection_target!r} is not registered"
            )
        for name, (low, high) in self.sensor_ranges.items():
            if low > high:
                raise ValidationError(
                    f"range [{low}, {high}] has its low end above its high end",
                    field=at("sensor_ranges", name),
                )

    def is_registered(self, device: str, action: str) -> bool:
        return action in self.pairs.get(device, ())

    def is_presence(self, device: str) -> bool:
        return device == self.presence_device

    def is_device_operation(self, device: str, action: str) -> bool:
        """True for registered pairs that are actual device operations.

        Presence events (user entry/exit) are bookkeeping, not operations:
        they never trigger the labeling corrections and are never judged.
        """
        return self.is_registered(device, action) and not self.is_presence(device)

    def is_cooking(self, device: str) -> bool:
        return device in self.cooking_appliances

    def all_pairs(self) -> list[tuple[str, str]]:
        """Every registered (device, action) pair in a stable order."""
        return sorted(
            (device, action)
            for device, actions in self.pairs.items()
            for action in actions
        )

    @classmethod
    def from_payload(cls, payload) -> "Vocabulary":
        """A vocabulary from its JSON form; a missing key takes its default.
        A fault raises ``SchemaError`` naming the key."""
        with faults_as(SchemaError):
            return VOCABULARY(payload, "")

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(to_payload(self), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        payload = load_json(path, SchemaError, "vocabulary file")
        with faults_as(SchemaError, f"vocabulary file {path}: "):
            return VOCABULARY(payload, "")


# The converter of the JSON form of a vocabulary (``payload.to_payload``'s),
# which the model file reads too.
VOCABULARY = record(
    Vocabulary,
    pairs=dict_of(list_of(str)),
    cooking_appliances=list_of(str),
    sensor_ranges=dict_of(
        lambda value, where: tuple(map(float, tuple_of(float, float)(value, where))),
        SENSOR_FIELDS,
    ),
)
