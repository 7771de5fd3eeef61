"""Device/action vocabulary and sensor schema registry.

The registry pins down which (device, action) pairs may appear in operation
logs, which devices count as cooking appliances, which single device is the
detection target, and the accepted physical range of each sensor channel.
It is loaded from / saved to a small JSON file so deployments can extend the
default set without code changes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import SchemaError, ValidationError

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
        for device in self.cooking_appliances:
            if device not in self.pairs:
                raise ValidationError(f"cooking appliance {device!r} is not registered")
        if self.detection_target not in self.pairs:
            raise ValidationError(
                f"detection target {self.detection_target!r} is not registered"
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

    def is_target(self, device: str) -> bool:
        return device == self.detection_target

    def all_pairs(self) -> list[tuple[str, str]]:
        """Every registered (device, action) pair in a stable order."""
        return sorted(
            (device, action)
            for device, actions in self.pairs.items()
            for action in actions
        )

    def to_payload(self) -> dict:
        return {
            "pairs": {device: list(actions) for device, actions in sorted(self.pairs.items())},
            "cooking_appliances": list(self.cooking_appliances),
            "detection_target": self.detection_target,
            "presence_device": self.presence_device,
            "sensor_ranges": {name: list(rng) for name, rng in sorted(self.sensor_ranges.items())},
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Vocabulary":
        """A vocabulary from its JSON form; a missing key takes its default.

        A key outside the five this class writes, or a value of the wrong
        shape, raises ``SchemaError`` naming the key.
        """
        if not isinstance(payload, dict):
            raise SchemaError(f"expected a JSON object, got {payload!r}")
        for key in payload:
            if key not in _PAYLOAD_KEYS:
                raise SchemaError(f"unknown key {key!r}")
        pairs = payload.get("pairs", DEFAULT_PAIRS)
        if not isinstance(pairs, dict) or not all(
            _is_text_list(actions) for actions in pairs.values()
        ):
            raise SchemaError(
                f"'pairs' must map each device to a list of actions, got {pairs!r}"
            )
        cooking = payload.get("cooking_appliances", DEFAULT_COOKING_APPLIANCES)
        if not _is_text_list(cooking):
            raise SchemaError(
                f"'cooking_appliances' must be a list of devices, got {cooking!r}"
            )
        roles = {}
        for key, default in (("detection_target", DEFAULT_DETECTION_TARGET),
                             ("presence_device", PRESENCE_DEVICE)):
            roles[key] = payload.get(key, default)
            if not isinstance(roles[key], str):
                raise SchemaError(f"{key!r} must be a device name, got {roles[key]!r}")
        ranges = payload.get("sensor_ranges", DEFAULT_SENSOR_RANGES)
        if not isinstance(ranges, dict) or not all(
            name in SENSOR_FIELDS and _is_range(rng) for name, rng in ranges.items()
        ):
            raise SchemaError(
                "'sensor_ranges' must map sensor names"
                f" ({', '.join(SENSOR_FIELDS)}) to [low, high], got {ranges!r}"
            )
        return cls(
            pairs={device: tuple(actions) for device, actions in pairs.items()},
            cooking_appliances=tuple(cooking),
            sensor_ranges={name: (float(rng[0]), float(rng[1])) for name, rng in ranges.items()},
            **roles,
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_payload(), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        try:
            payload = json.loads(Path(path).read_text())
        except OSError as exc:
            raise SchemaError(f"vocabulary file {path}: {exc.strerror or exc}") from None
        except ValueError as exc:
            raise SchemaError(f"vocabulary file {path} is not valid JSON: {exc}") from None
        try:
            return cls.from_payload(payload)
        except (SchemaError, ValidationError) as exc:
            raise SchemaError(f"vocabulary file {path}: {exc}") from None


_PAYLOAD_KEYS = (
    "pairs", "cooking_appliances", "detection_target", "presence_device", "sensor_ranges",
)


def _is_text_list(value) -> bool:
    return isinstance(value, (list, tuple)) and all(isinstance(item, str) for item in value)


def _is_range(value) -> bool:
    return (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
    )
