"""Experiment worlds: devices, wireless link parameters, payload sizes.

A :class:`Scenario` is an immutable value object describing one deployment:
an area with an edge server, a fleet of heterogeneous devices each hosting a
quantized copy of the denoising model, the shared link model, and the payload
sizes moved per stage. Generation is fully seeded and the JSON serialization
round-trips losslessly, so every downstream result is reproducible from
(n_devices, area, seed, profile) alone.

Ids are dense, ``0..n-1``, so a scenario also owns its devices as columns in
ascending id order, entry i describing device i (:class:`DeviceColumns`,
``scenario._columns``): every number a cost needs, built once per scenario
and never written. ``Scenario(...)`` is the one way a scenario is made:
:func:`generate_scenario`, the loader, :func:`mark_unavailable` and
``dataclasses.replace`` all pass it :class:`Device` objects, and its
``__post_init__`` reads the columns from them and checks them in one
vectorized pass. The generator and the loader build their devices unchecked
(``_built``), leaving the device rules to that pass. ``devices`` stays the
public view, the objects in the order given. A scenario also carries a memo
slot, ``_fleet``, which :func:`relaydiff.cost_model.fleet_costs` fills with
the fleet's stage costs on first use. Every new scenario, including those
:func:`mark_unavailable` and ``dataclasses.replace`` return, starts without
one.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, ValidationError

ALLOWED_BIT_WIDTHS = (32, 16, 8, 4)

TRANSFER_PHASES = ("download", "upload")
STAGE_PHASES = ("download", "compute", "upload")


@dataclass(frozen=True)
class ModelVariant:
    """One quantized copy of the denoising model.

    ``size_bytes`` is the quantity the device-selection objective adds up, so
    it is derived exactly from the parameter count and bit width rather than
    stored (files carry it redundantly and are checked on load).
    """

    bit_width: int
    param_count: int

    def __post_init__(self):
        bit_width, param_count = self.bit_width, self.param_count
        if bit_width not in ALLOWED_BIT_WIDTHS:
            raise ValidationError(
                f"variant.bit_width: must be one of {ALLOWED_BIT_WIDTHS}, got {bit_width!r}"
            )
        if not isinstance(param_count, int) or param_count <= 0:
            raise ValidationError(f"variant.param_count: must be a positive integer, got {param_count!r}")
        if param_count * bit_width % 8:
            raise ValidationError("variant: param_count * bit_width must be a whole number of bytes")

    @property
    def size_bytes(self) -> int:
        return self.param_count * self.bit_width // 8


@dataclass(frozen=True)
class Device:
    """A participant device: position, model copy, speed and power draws."""

    id: int
    pos_m: tuple[float, float]
    variant: ModelVariant
    step_latency_s: float
    compute_power_w: float
    tx_power_w: float
    rx_power_w: float
    available: bool = True

    def __post_init__(self):
        _check_device_id(self.id)
        if len(self.pos_m) != 2:
            raise ValidationError(f"device(id={self.id!r}).pos_m: must be an (x, y) pair")
        object.__setattr__(self, "pos_m", (float(self.pos_m[0]), float(self.pos_m[1])))
        for name in _POSITIVE_FIELDS:
            value = getattr(self, name)
            if not 0 < value < math.inf:  # false for NaN too
                raise _not_positive(self.id, name, value)


# Device fields that must be finite and positive.
_POSITIVE_FIELDS = ("step_latency_s", "compute_power_w", "tx_power_w", "rx_power_w")


def _check_device_id(dev_id) -> None:
    if not isinstance(dev_id, int) or isinstance(dev_id, bool) or dev_id < 0:
        raise ValidationError(f"device(id={dev_id!r}).id: must be a non-negative integer")


def _not_positive(dev_id, name: str, value) -> ValidationError:
    return ValidationError(f"device(id={dev_id!r}).{name}: must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class LinkParams:
    """Shared wireless model between every device and the edge server.

    Rates follow a Shannon capacity with distance power-law path loss;
    ``rate_override_bps`` pins (uplink, downlink) rates for specific device
    ids and bypasses the geometry entirely for those devices.
    """

    bandwidth_hz: float
    noise_power_w: float
    path_loss_ref_gain: float
    path_loss_exponent: float = 3.0
    rate_override_bps: dict[int, tuple[float, float]] | None = None

    def __post_init__(self):
        for name in ("bandwidth_hz", "noise_power_w", "path_loss_ref_gain"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ValidationError(f"link.{name}: must be finite and positive, got {value!r}")
        if not self.path_loss_exponent >= 2.0:
            raise ValidationError(
                f"link.path_loss_exponent: must be >= 2, got {self.path_loss_exponent!r}"
            )
        if self.rate_override_bps is not None:
            for dev_id, pair in self.rate_override_bps.items():
                if len(pair) != 2 or not all(math.isfinite(r) and r > 0 for r in pair):
                    raise ValidationError(
                        f"link.rate_override_bps[{dev_id}]: must be a positive (up, down) pair"
                    )


# A device's record: the tuple of its field values in Device field order, read
# from its ``vars`` (a third faster than reading its attributes).
_record_of = itemgetter("id", "pos_m", "variant", "step_latency_s", "compute_power_w",
                        "tx_power_w", "rx_power_w", "available")


def _built(fields: dict) -> Device:
    """The :class:`Device` that takes ``fields`` as its attributes, unchecked.

    Its ``__post_init__`` does not run: the :class:`Scenario` it goes into
    applies the device rules to all its devices at once (:func:`_device_table`).
    """

    device = object.__new__(Device)
    object.__setattr__(device, "__dict__", fields)
    return device


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class DeviceColumns(NamedTuple):
    """A scenario's devices as columns in ascending id order: entry i is device i.

    ``pos_m`` holds the devices' own (x, y) tuples of floats, which the link
    formula reads one at a time with ``math`` (converting an array to such
    tuples on every read would cost as much as that formula). ``size_bytes``
    holds exact ints. Every other column is a numpy array that cannot be
    written (``writeable=False``).
    """

    devices: tuple[Device, ...]
    ids: np.ndarray
    available: np.ndarray
    pos_m: tuple[tuple[float, float], ...]
    step_latency_s: np.ndarray
    compute_power_w: np.ndarray
    tx_power_w: np.ndarray
    rx_power_w: np.ndarray
    size_bytes: tuple[int, ...]


def _device_table(records) -> tuple:
    """(ids, positions, numbers, available, sizes) of device ``records``, in record order.

    ``numbers`` is the float64 array of the :data:`_POSITIVE_FIELDS`, one row
    each. Applies the rules of :class:`Device` to every record at once, and
    raises the error the first record that breaks one would raise (a
    negative id before a number that is not finite and positive, numbers
    in field order). The variants are already checked.
    """

    ids, positions, variants, *numbers, available = tuple(zip(*records)) or ((),) * 8
    n = len(ids)
    numbers = np.fromiter(itertools.chain(*numbers), np.float64, 4 * n).reshape(4, n)
    if n and (min(ids) < 0 or not ((numbers > 0.0) & (numbers < math.inf)).all()):
        for dev_id, values in zip(ids, numbers.T.tolist()):
            _check_device_id(dev_id)
            for name, value in zip(_POSITIVE_FIELDS, values):
                if not 0 < value < math.inf:
                    raise _not_positive(dev_id, name, value)
    sizes = tuple(v.param_count * v.bit_width // 8 for v in variants)
    return ids, positions, numbers, np.fromiter(available, bool, n), sizes


@dataclass(frozen=True)
class Scenario:
    """One immutable experiment world (see the module docstring for its columns)."""

    area_m: tuple[float, float]
    server_pos_m: tuple[float, float]
    devices: tuple[Device, ...]
    link: LinkParams
    latent_bytes: int
    feature_bytes: int
    steps_per_stage: int
    seed: int

    def __post_init__(self):
        devices = tuple(self.devices)
        records = map(_record_of, map(vars, devices))
        ids, positions, numbers, available, sizes = _device_table(records)
        object.__setattr__(self, "area_m", (float(self.area_m[0]), float(self.area_m[1])))
        object.__setattr__(
            self, "server_pos_m", (float(self.server_pos_m[0]), float(self.server_pos_m[1]))
        )
        object.__setattr__(self, "devices", devices)
        if not all(a > 0 and math.isfinite(a) for a in self.area_m):
            raise ValidationError(f"area_m: sides must be finite and positive, got {self.area_m!r}")
        if not isinstance(self.latent_bytes, int) or self.latent_bytes <= 0:
            raise ValidationError(f"latent_bytes: must be a positive integer, got {self.latent_bytes!r}")
        if not isinstance(self.feature_bytes, int) or self.feature_bytes < self.latent_bytes:
            raise ValidationError(
                f"feature_bytes: must be an integer >= latent_bytes ({self.latent_bytes}), "
                f"got {self.feature_bytes!r}"
            )
        if not isinstance(self.steps_per_stage, int) or self.steps_per_stage < 1:
            raise ValidationError(
                f"steps_per_stage: must be an integer >= 1, got {self.steps_per_stage!r}"
            )
        n = len(ids)
        xy = np.fromiter(itertools.chain.from_iterable(positions), np.float64, 2 * n).reshape(n, 2)
        inside = ((xy >= 0.0) & (xy <= self.area_m)).all(axis=1)
        # Ids in ascending order are dense from 0 and free of duplicates.
        in_order = ids == tuple(range(n))
        if not (in_order and inside.all()):
            seen: dict[int, int] = {}
            for i, dev_id in enumerate(ids):
                if dev_id in seen:
                    raise ValidationError(
                        f"devices[{i}].id: duplicate id {dev_id} (also devices[{seen[dev_id]}])"
                    )
                seen[dev_id] = i
                if not inside[i]:
                    raise ValidationError(
                        f"devices[{i}].pos_m: {positions[i]} outside area {self.area_m}"
                    )
            # ids must be dense from 0 so they double as column indices
            if set(seen) != set(range(n)):
                raise ValidationError(
                    f"devices: ids must cover 0..{n - 1} exactly, got {sorted(seen)}"
                )
        if self.link.rate_override_bps is not None:
            for dev_id in self.link.rate_override_bps:
                if dev_id not in range(n):
                    raise ValidationError(f"link.rate_override_bps[{dev_id}]: no such device id")
        if in_order:
            by_id = devices
        else:
            order = sorted(range(n), key=ids.__getitem__)
            by_id, positions, sizes = (tuple(map(column.__getitem__, order))
                                       for column in (devices, positions, sizes))
            numbers, available = numbers[:, order], available[order]
        _frozen(numbers)
        object.__setattr__(self, "_columns", DeviceColumns(
            by_id, _frozen(np.arange(n)), _frozen(available), positions, *numbers, sizes,
        ))

    def device(self, device_id: int) -> Device:
        by_id = self._columns.devices
        try:
            if device_id >= 0:
                return by_id[device_id]
        except (IndexError, TypeError):
            pass
        raise ConfigurationError(f"no device with id {device_id}")

    def total_model_bytes(self) -> int:
        return sum(self._columns.size_bytes)


@dataclass(frozen=True)
class DeviceClassProfile:
    """Per-hardware-class defaults; step latency is quoted for 32-bit models."""

    step_latency_32bit_s: float
    compute_power_w: float
    tx_power_w: float
    rx_power_w: float


@dataclass(frozen=True)
class ScenarioProfile:
    """Named bundle of generation defaults."""

    class_a: DeviceClassProfile
    class_b: DeviceClassProfile
    class_a_fraction: float
    param_count: int
    quantization_latency_exponent: float
    link: LinkParams
    latent_bytes: int
    feature_bytes: int
    steps_per_stage: int


# Two device classes modeled on embedded GPU boards a generation apart: class A
# runs a 32-bit denoising step in 120 ms, class B in 60 ms. Sub-linear latency
# scaling with bit width reflects that quantization saves less than its
# bandwidth ratio once non-GEMM overheads dominate.
PROFILES: dict[str, ScenarioProfile] = {
    "default": ScenarioProfile(
        class_a=DeviceClassProfile(
            step_latency_32bit_s=0.12, compute_power_w=20.0, tx_power_w=1.0, rx_power_w=0.5
        ),
        class_b=DeviceClassProfile(
            step_latency_32bit_s=0.06, compute_power_w=20.0, tx_power_w=1.0, rx_power_w=0.5
        ),
        class_a_fraction=0.5,
        param_count=1_000_000_000,
        quantization_latency_exponent=0.7,
        # 2 MHz / -130 dBW noise / -40 dB reference gain puts device SNRs in
        # the 14-30 dB range over a 500 m cell, i.e. latent transfers cost a
        # few hundred ms, the same order as a 5-step stage.
        link=LinkParams(
            bandwidth_hz=2e6,
            noise_power_w=1e-13,
            path_loss_ref_gain=1e-4,
            path_loss_exponent=3.0,
        ),
        latent_bytes=262144,
        feature_bytes=524288,
        steps_per_stage=5,
    )
}


def step_latency_for(profile_class: DeviceClassProfile, bit_width: int, exponent: float) -> float:
    """Denoising-step latency of a quantized variant on the given class."""

    return profile_class.step_latency_32bit_s * (bit_width / 32.0) ** exponent


def generate_scenario(
    n_devices: int,
    area_m: tuple[float, float] = (500.0, 500.0),
    seed: int = 0,
    profile: str = "default",
    class_a_fraction: float | None = None,
) -> Scenario:
    """Generate a seeded random scenario from a named profile.

    Devices are placed uniformly over the area with the server at its center.
    Each device independently draws a bit width (uniform over the allowed
    widths) and a hardware class (Bernoulli with ``class_a_fraction``).
    """

    if n_devices < 1:
        raise ConfigurationError(f"n_devices must be >= 1, got {n_devices}")
    if profile not in PROFILES:
        raise ConfigurationError(f"unknown profile {profile!r}, expected one of {sorted(PROFILES)}")
    prof = PROFILES[profile]
    frac = prof.class_a_fraction if class_a_fraction is None else float(class_a_fraction)
    if not 0.0 <= frac <= 1.0:
        raise ConfigurationError(f"class_a_fraction must be in [0, 1], got {frac}")

    width, height = float(area_m[0]), float(area_m[1])
    rng = np.random.default_rng(seed)
    variants = [ModelVariant(bit_width=bits, param_count=prof.param_count)
                for bits in ALLOWED_BIT_WIDTHS]
    exponent = prof.quantization_latency_exponent
    # The fields a device of each class and variant has beyond its id and position.
    kinds = [[{
        "variant": variant,
        "step_latency_s": step_latency_for(klass, variant.bit_width, exponent),
        "compute_power_w": klass.compute_power_w,
        "tx_power_w": klass.tx_power_w,
        "rx_power_w": klass.rx_power_w,
        "available": True,
    } for variant in variants] for klass in (prof.class_a, prof.class_b)]
    devices = []
    for dev_id in range(n_devices):
        # side * random() is uniform(0, side) bit for bit, at a third of the cost.
        pos_m = (width * rng.random(), height * rng.random())
        variant = int(rng.integers(0, len(ALLOWED_BIT_WIDTHS)))
        kind = kinds[0 if rng.random() < frac else 1][variant]
        devices.append({"id": dev_id, "pos_m": pos_m, **kind})
    return Scenario(
        area_m=(width, height),
        server_pos_m=(width / 2.0, height / 2.0),
        devices=tuple(map(_built, devices)),
        link=prof.link,
        latent_bytes=prof.latent_bytes,
        feature_bytes=prof.feature_bytes,
        steps_per_stage=prof.steps_per_stage,
        seed=int(seed),
    )


def mark_unavailable(scenario: Scenario, device_ids: set[int]) -> Scenario:
    """Copy of ``scenario`` with the given devices flagged unavailable."""

    return replace(
        scenario,
        devices=tuple(
            replace(dev, available=False) if dev.id in device_ids else dev
            for dev in scenario.devices
        ),
    )


# -- JSON serialization -------------------------------------------------------


# The JSON type each Python container or string type is read from.
_JSON_TYPES = {list: "an array", tuple: "an array", dict: "an object", str: "a string"}


def require_field(obj: dict, key: str, kinds, path: str):
    """``obj[key]`` if it is of ``kinds``, else ValidationError naming ``path.key``.

    ``kinds`` is ``bool``, ``int`` (never a bool), ``float`` (any int or
    float but a bool, returned as a float) or a type or tuple of types of
    one JSON type (:data:`_JSON_TYPES`), which the message names.
    """

    if key not in obj:
        raise ValidationError(f"{path}.{key}: missing required field")
    value = obj[key]
    if kinds is bool:
        if not isinstance(value, bool):
            raise ValidationError(f"{path}.{key}: expected a boolean, got {value!r}")
    elif kinds is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(f"{path}.{key}: expected an integer, got {value!r}")
    elif kinds is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"{path}.{key}: expected a number, got {value!r}")
        value = float(value)
    elif not isinstance(value, kinds):
        expected = _JSON_TYPES[kinds if isinstance(kinds, type) else kinds[0]]
        raise ValidationError(f"{path}.{key}: expected {expected}, got {type(value).__name__}")
    return value


def read_fields(obj: dict, table, path: str) -> list:
    """The values of the ``(name, kind)`` fields of ``table`` in ``obj``, in table order.

    A value whose type is exactly its kind is taken as it is; any other goes
    through :func:`require_field`, which converts it or names what is wrong.
    """

    values = []
    for name, kind in table:
        value = obj.get(name)
        values.append(value if type(value) is kind else require_field(obj, name, kind, path))
    return values


def check_totals(obj: dict, totals, parts: str, path: str) -> None:
    """Raise unless each stored ``(name, recomputed)`` total of ``totals`` in ``obj``
    is a number within a 1e-12 relative tolerance of its recomputed value."""

    for name, recomputed in totals:
        stored = require_field(obj, name, float, path)
        if not math.isclose(stored, recomputed, rel_tol=1e-12, abs_tol=1e-12):
            raise ValidationError(
                f"{path}.{name}: {obj[name]} inconsistent with {parts} ({recomputed})"
            )


def _pair_value(value, path: str) -> tuple[float, float]:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        raise ValidationError(f"{path}: expected a pair of numbers, got {value!r}")
    return (float(value[0]), float(value[1]))


def _pair(obj: dict, key: str, path: str) -> tuple[float, float]:
    return _pair_value(require_field(obj, key, (list, tuple), path), f"{path}.{key}")


def scenario_to_dict(scenario: Scenario) -> dict:
    link = scenario.link
    overrides = None
    if link.rate_override_bps is not None:
        overrides = {
            str(dev_id): [float(up), float(down)]
            for dev_id, (up, down) in sorted(link.rate_override_bps.items())
        }
    return {
        "area_m": list(scenario.area_m),
        "server_pos_m": list(scenario.server_pos_m),
        "devices": [
            {
                "id": dev.id,
                "pos_m": list(dev.pos_m),
                "variant": {
                    "bit_width": dev.variant.bit_width,
                    "param_count": dev.variant.param_count,
                    "size_bytes": dev.variant.size_bytes,
                },
                "step_latency_s": dev.step_latency_s,
                "compute_power_w": dev.compute_power_w,
                "tx_power_w": dev.tx_power_w,
                "rx_power_w": dev.rx_power_w,
                "available": dev.available,
            }
            for dev in scenario.devices
        ],
        "link": {
            "bandwidth_hz": link.bandwidth_hz,
            "noise_power_w": link.noise_power_w,
            "path_loss_ref_gain": link.path_loss_ref_gain,
            "path_loss_exponent": link.path_loss_exponent,
            "rate_override_bps": overrides,
        },
        "latent_bytes": scenario.latent_bytes,
        "feature_bytes": scenario.feature_bytes,
        "steps_per_stage": scenario.steps_per_stage,
        "seed": scenario.seed,
    }


def _variant_from_dict(raw: dict, path: str, known: dict) -> ModelVariant:
    """The variant of a record; ``known`` maps each (bit_width, param_count)
    already read to its variant, so each variant is checked and built once."""

    bit_width, param_count = raw.get("bit_width"), raw.get("param_count")
    if type(bit_width) is not int or type(param_count) is not int:
        bit_width = require_field(raw, "bit_width", int, path)
        param_count = require_field(raw, "param_count", int, path)
    variant = known.get((bit_width, param_count))
    if variant is None:
        variant = known[bit_width, param_count] = ModelVariant(bit_width, param_count)
    stored = raw.get("size_bytes")
    if stored is not None or "size_bytes" in raw:
        if type(stored) is not int:
            stored = require_field(raw, "size_bytes", int, path)
        if stored != variant.size_bytes:
            raise ValidationError(
                f"{path}.size_bytes: {stored} inconsistent with "
                f"param_count * bit_width / 8 = {variant.size_bytes}"
            )
    return variant


# The fields of a device record after its id and variant, in the order they
# are read, each with the type JSON gives it in a well-formed file. Every
# float field is one of _POSITIVE_FIELDS.
_DEVICE_FIELDS = (
    ("pos_m", list),
    *((name, float) for name in _POSITIVE_FIELDS),
    ("available", bool),
)


def _device_from_dict(raw, path: str, variants: dict) -> Device:
    """The :class:`Device` of one record, read in one pass.

    Checks the type of every field and the variant's rules; the other rules
    of :class:`Device` are :func:`_device_table`'s, which the :class:`Scenario`
    applies to every device at once.
    """

    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: expected an object")
    variant = raw.get("variant")
    if type(variant) is not dict:
        variant = require_field(raw, "variant", dict, path)
    dev_id = raw.get("id")
    fields = {"variant": _variant_from_dict(variant, f"{path}.variant", variants)}
    fields["id"] = dev_id if type(dev_id) is int else require_field(raw, "id", int, path)
    for name, kind in _DEVICE_FIELDS:
        # Only "available" may be left out, and it defaults to true.
        value = raw.get(name, True)
        if type(value) is not kind:
            # Missing, of another type, or an int where a float is expected.
            value = require_field(raw, name, (list, tuple) if kind is list else kind, path)
        fields[name] = value
    pos_m = fields["pos_m"]
    if len(pos_m) != 2 or type(pos_m[0]) is not float or type(pos_m[1]) is not float:
        pos_m = _pair(raw, "pos_m", path)
    fields["pos_m"] = tuple(pos_m)
    return _built(fields)


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ValidationError(f"scenario: expected an object, got {type(data).__name__}")

    variants: dict = {}
    devices = tuple(_device_from_dict(raw, f"devices[{i}]", variants)
                    for i, raw in enumerate(require_field(data, "devices", list, "scenario")))

    link_raw = require_field(data, "link", dict, "scenario")
    overrides = None
    if link_raw.get("rate_override_bps") is not None:
        overrides_raw = require_field(link_raw, "rate_override_bps", dict, "link")
        overrides = {}
        for key, pair in overrides_raw.items():
            try:
                dev_id = int(key)
            except (TypeError, ValueError):
                raise ValidationError(f"link.rate_override_bps: key {key!r} is not a device id")
            overrides[dev_id] = _pair_value(pair, f"link.rate_override_bps[{key}]")
    link = LinkParams(
        bandwidth_hz=require_field(link_raw, "bandwidth_hz", float, "link"),
        noise_power_w=require_field(link_raw, "noise_power_w", float, "link"),
        path_loss_ref_gain=require_field(link_raw, "path_loss_ref_gain", float, "link"),
        path_loss_exponent=require_field(link_raw, "path_loss_exponent", float, "link"),
        rate_override_bps=overrides,
    )

    return Scenario(
        area_m=_pair(data, "area_m", "scenario"),
        server_pos_m=_pair(data, "server_pos_m", "scenario"),
        devices=devices,
        link=link,
        latent_bytes=require_field(data, "latent_bytes", int, "scenario"),
        feature_bytes=require_field(data, "feature_bytes", int, "scenario"),
        steps_per_stage=require_field(data, "steps_per_stage", int, "scenario"),
        seed=require_field(data, "seed", int, "scenario"),
    )


def write_json(data, path, indent: int | None = None) -> None:
    """Write ``data`` to ``path`` as JSON with sorted keys and a final newline.

    Without ``indent`` the text is compact, written by json's C encoder; an
    indent makes json fall back to its pure-Python encoder, several times
    slower, so only hand-edited inputs are indented.
    """

    separators = (",", ":") if indent is None else None
    Path(path).write_text(json.dumps(data, indent=indent, separators=separators, sort_keys=True) + "\n")


def read_json(path):
    """The JSON value in the file at ``path``; ValidationError if the text is not JSON."""

    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc


def save_scenario(scenario: Scenario, path) -> None:
    write_json(scenario_to_dict(scenario), path, indent=2)


def load_scenario(path) -> Scenario:
    return scenario_from_dict(read_json(path))
