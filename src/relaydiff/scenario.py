"""Experiment worlds: devices, wireless link parameters, payload sizes.

A :class:`Scenario` is an immutable value object describing one deployment:
an area with an edge server, a fleet of heterogeneous devices each hosting a
quantized copy of the denoising model, the shared link model, and the payload
sizes moved per stage. Generation is fully seeded, so every downstream
result is reproducible from (n_devices, area, seed, profile) alone; files
are read and written by :mod:`relaydiff.formats`.

Ids are dense, ``0..n-1``, so a scenario also owns its devices as columns in
ascending id order, entry i describing device i (:class:`DeviceColumns`,
``scenario._columns``): every number a cost needs, built once per scenario
and never written. ``Scenario(...)`` is the one way a scenario is made:
:func:`generate_scenario`, the file loader, :func:`mark_unavailable` and
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
import math
from dataclasses import dataclass, replace
from operator import itemgetter
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
        if type(bit_width) is not int or bit_width not in ALLOWED_BIT_WIDTHS:
            raise ValidationError(
                f"variant.bit_width: must be one of {ALLOWED_BIT_WIDTHS}, got {bit_width!r}"
            )
        if type(param_count) is not int or param_count <= 0:
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


def _is_device_id(value) -> bool:
    """Whether ``value`` can be a device id: an int (a bool is not one) >= 0."""

    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _check_device_id(dev_id) -> None:
    if not _is_device_id(dev_id):
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
        if type(self.latent_bytes) is not int or self.latent_bytes <= 0:
            raise ValidationError(f"latent_bytes: must be a positive integer, got {self.latent_bytes!r}")
        if type(self.feature_bytes) is not int or self.feature_bytes < self.latent_bytes:
            raise ValidationError(
                f"feature_bytes: must be an integer >= latent_bytes ({self.latent_bytes}), "
                f"got {self.feature_bytes!r}"
            )
        if type(self.steps_per_stage) is not int or self.steps_per_stage < 1:
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
        if _is_device_id(device_id) and device_id < len(by_id):
            return by_id[device_id]
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
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
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
    """Copy of ``scenario`` with the given devices flagged unavailable.

    Raises ValidationError naming any id the scenario has no device for,
    and any that is not an int (a bool is not an id): the ints in ascending
    order, then the others by their repr.
    """

    n = len(scenario.devices)
    unknown = {i for i in device_ids if not _is_device_id(i) or i >= n}
    if unknown:
        ints = {i for i in unknown if isinstance(i, int) and not isinstance(i, bool)}
        listed = sorted(ints) + sorted(unknown - ints, key=repr)
        raise ValidationError(f"mark_unavailable: no device with id {listed}")
    return replace(
        scenario,
        devices=tuple(
            replace(dev, available=False) if dev.id in device_ids else dev
            for dev in scenario.devices
        ),
    )
