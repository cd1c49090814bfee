"""Scenario construction, generation, and serialization round-trips."""

import dataclasses
import json
import re

import pytest

from relaydiff import (
    ConfigurationError,
    Device,
    FailureSpec,
    ModelVariant,
    SplitConfig,
    SweepSpec,
    ValidationError,
    generate_scenario,
    load_scenario,
    mark_unavailable,
    save_scenario,
)
from relaydiff.formats import scenario_from_dict, scenario_to_dict
from relaydiff.scenario import ALLOWED_BIT_WIDTHS, PROFILES, step_latency_for

from conftest import dyadic_device, dyadic_scenario


def test_generate_default_20_devices_in_area():
    scenario = generate_scenario(20, area_m=(500.0, 500.0), seed=42)
    assert len(scenario.devices) == 20
    assert scenario.server_pos_m == (250.0, 250.0)
    for dev in scenario.devices:
        x, y = dev.pos_m
        assert 0.0 <= x <= 500.0 and 0.0 <= y <= 500.0
        assert dev.variant.bit_width in ALLOWED_BIT_WIDTHS
        assert dev.available


def test_generate_minimal_instance():
    scenario = generate_scenario(1, area_m=(1.0, 1.0), seed=0)
    assert len(scenario.devices) == 1
    x, y = scenario.devices[0].pos_m
    assert 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0


def test_generate_is_deterministic(tmp_path):
    a = generate_scenario(20, seed=7)
    b = generate_scenario(20, seed=7)
    assert a == b
    save_scenario(a, tmp_path / "a.json")
    save_scenario(b, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert generate_scenario(20, seed=8) != a


def test_generate_rejects_bad_inputs():
    with pytest.raises(ConfigurationError):
        generate_scenario(0)
    with pytest.raises(ConfigurationError):
        generate_scenario(5, profile="nope")
    with pytest.raises(ConfigurationError):
        generate_scenario(5, class_a_fraction=1.5)


def test_class_mix_extremes():
    prof = PROFILES["default"]
    exp = prof.quantization_latency_exponent
    all_b = generate_scenario(30, seed=1, class_a_fraction=0.0)
    for dev in all_b.devices:
        assert dev.step_latency_s == step_latency_for(prof.class_b, dev.variant.bit_width, exp)
    all_a = generate_scenario(30, seed=1, class_a_fraction=1.0)
    for dev in all_a.devices:
        assert dev.step_latency_s == step_latency_for(prof.class_a, dev.variant.bit_width, exp)


def test_bit_width_assignment_is_uniform():
    # 50 seeds x 100 devices = 5000 assignments; chi-square against the
    # uniform law over the four widths, df = 3, alpha = 0.001 -> 16.266.
    counts = dict.fromkeys(ALLOWED_BIT_WIDTHS, 0)
    for seed in range(50):
        for dev in generate_scenario(100, seed=seed).devices:
            counts[dev.variant.bit_width] += 1
    n = sum(counts.values())
    assert n >= 4000
    expected = n / len(ALLOWED_BIT_WIDTHS)
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 16.266


def test_model_variant_sizes():
    assert ModelVariant(32, 1_000_000_000).size_bytes == 4_000_000_000
    assert ModelVariant(16, 1_000_000_000).size_bytes == 2_000_000_000
    assert ModelVariant(8, 1_000_000_000).size_bytes == 1_000_000_000
    assert ModelVariant(4, 1_000_000_000).size_bytes == 500_000_000


def test_model_variant_invariants():
    with pytest.raises(ValidationError, match="bit_width"):
        ModelVariant(12, 1000)
    # 8.0 equals an allowed width, but would make size_bytes a float.
    with pytest.raises(ValidationError) as info:
        ModelVariant(8.0, 10)
    assert str(info.value) == "variant.bit_width: must be one of (32, 16, 8, 4), got 8.0"
    with pytest.raises(ValidationError, match="param_count"):
        ModelVariant(32, 0)
    with pytest.raises(ValidationError, match="whole number of bytes"):
        ModelVariant(4, 1001)


def test_device_invariants():
    for field, value in (
        ("step_latency_s", 0.0),
        ("compute_power_w", -1.0),
        ("tx_power_w", float("nan")),
        ("rx_power_w", 0.0),
    ):
        kwargs = dict(
            id=0, pos_m=(1.0, 1.0), variant=ModelVariant(32, 8),
            step_latency_s=0.1, compute_power_w=1.0, tx_power_w=1.0, rx_power_w=1.0,
        )
        kwargs[field] = value
        with pytest.raises(ValidationError, match=field):
            Device(**kwargs)


def test_roundtrip_identity(tmp_path, three_device_scenario, default_scenario):
    for i, scenario in enumerate((three_device_scenario, default_scenario)):
        path = tmp_path / f"s{i}.json"
        save_scenario(scenario, path)
        assert load_scenario(path) == scenario


def test_latent_bytes_survives_roundtrip(tmp_path, default_scenario):
    path = tmp_path / "s.json"
    save_scenario(default_scenario, path)
    assert json.loads(path.read_text())["latent_bytes"] == 262144
    assert load_scenario(path).latent_bytes == 262144


def test_duplicate_device_id_is_named():
    data = scenario_to_dict(generate_scenario(4, seed=0))
    data["devices"][1]["id"] = 3
    with pytest.raises(ValidationError, match=r"devices\[3\].id: duplicate id 3"):
        scenario_from_dict(data)


def test_load_errors_name_the_field(three_device_scenario):
    def corrupted(mutate):
        data = scenario_to_dict(three_device_scenario)
        mutate(data)
        return data

    cases = [
        (lambda d: d.pop("latent_bytes"), r"scenario.latent_bytes"),
        (lambda d: d["devices"][0].update(step_latency_s="fast"), r"devices\[0\].step_latency_s"),
        (lambda d: d["devices"][0]["variant"].update(size_bytes=1), r"devices\[0\].variant.size_bytes"),
        (lambda d: d.update(feature_bytes=1), r"feature_bytes"),
        (lambda d: d["devices"][0].update(pos_m=[9999.0, 0.0]), r"devices\[0\].pos_m"),
        (lambda d: d["link"]["rate_override_bps"].update({"99": [1.0, 1.0]}), r"rate_override_bps\[99\]"),
        (lambda d: d["devices"][0].update(id=5), r"ids must cover"),
        (lambda d: d["link"].update(bandwidth_hz=0.0), r"link.bandwidth_hz"),
    ]
    for mutate, pattern in cases:
        with pytest.raises(ValidationError, match=pattern):
            scenario_from_dict(corrupted(mutate))


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_scenario(path)


def test_mark_unavailable(three_device_scenario):
    marked = mark_unavailable(three_device_scenario, {0, 2})
    assert [d.available for d in marked.devices] == [False, True, False]
    # the original scenario is untouched
    assert all(d.available for d in three_device_scenario.devices)


def test_mark_unavailable_refuses_unknown_ids():
    scenario = generate_scenario(6, seed=3)
    with pytest.raises(ValidationError) as info:
        mark_unavailable(scenario, {99, -1})
    assert str(info.value) == "mark_unavailable: no device with id [-1, 99]"
    with pytest.raises(ValidationError, match=r"no device with id \[6\]$"):
        mark_unavailable(scenario, {0, 6})
    assert mark_unavailable(scenario, set()) == scenario


@pytest.mark.parametrize("build, message", [
    (lambda s: mark_unavailable(s, {True}), r"mark_unavailable: no device with id \[True\]"),
    (lambda s: dataclasses.replace(s, latent_bytes=True), "latent_bytes: must be a positive integer"),
    (lambda s: dataclasses.replace(s, latent_bytes=1, feature_bytes=True),
     "feature_bytes: must be an integer >= latent_bytes"),
    (lambda s: dataclasses.replace(s, steps_per_stage=True), "steps_per_stage: must be an integer"),
    (lambda s: ModelVariant(bit_width=8, param_count=True), "variant.param_count: must be a positive"),
    (lambda s: SplitConfig(0, 1, n_steps=True), "split.n_steps: must be an integer"),
    (lambda s: SweepSpec(repetitions=True), "sweep.repetitions: must be an integer"),
], ids=["mark_unavailable", "latent_bytes", "feature_bytes", "steps_per_stage", "param_count",
        "n_steps", "repetitions"])
def test_a_bool_is_not_an_integer(three_device_scenario, build, message):
    with pytest.raises(ValidationError, match=message):
        build(three_device_scenario)


@pytest.mark.parametrize("build, error, message", [
    (lambda s: SplitConfig(True, 2), ValidationError,
     "split.device_a_id: must be a non-negative integer, got True"),
    (lambda s: SplitConfig(0, -1), ValidationError,
     "split.device_b_id: must be a non-negative integer, got -1"),
    (lambda s: FailureSpec(injected=((0.5, "compute"),)), ValidationError,
     "failures.injected: device id must be a non-negative integer, got 0.5"),
    (lambda s: FailureSpec(injected=(("2", "compute"),)), ValidationError,
     "failures.injected: device id must be a non-negative integer, got '2'"),
    (lambda s: FailureSpec(injected=((True, "compute"),)), ValidationError,
     "failures.injected: device id must be a non-negative integer, got True"),
    (lambda s: s.device(True), ConfigurationError, "no device with id True"),
], ids=["split-bool", "split-negative", "injected-float", "injected-str", "injected-bool",
        "device-bool"])
def test_a_device_id_is_a_non_negative_int(three_device_scenario, build, error, message):
    with pytest.raises(error) as info:
        build(three_device_scenario)
    assert str(info.value) == message


@pytest.mark.parametrize("key", ["01", " 1", "+1", "-1", "1.0", "\u0661"])
def test_override_keys_are_written_as_the_writer_writes_them(three_device_scenario, tmp_path, key):
    path = tmp_path / "s.json"
    save_scenario(three_device_scenario, path)
    data = json.loads(path.read_text())
    data["link"]["rate_override_bps"][key] = [2e6, 2e6]  # "01" read as id 1 replaced its pair
    path.write_text(json.dumps(data))
    message = f"link.rate_override_bps: key {re.escape(repr(key))} is not a device id"
    with pytest.raises(ValidationError, match=message):
        load_scenario(path)


def test_device_lookup(three_device_scenario):
    assert three_device_scenario.device(1).id == 1
    with pytest.raises(ConfigurationError, match="no device with id 9"):
        three_device_scenario.device(9)


def test_device_lookup_goes_by_id_not_position():
    devices = [dyadic_device(i, 32, 10**9, step_latency_s=0.125, compute_power_w=1.0) for i in (2, 0, 1)]
    scenario = dyadic_scenario(devices, {i: (2.0**23, 2.0**23) for i in range(3)})
    for dev in devices:
        assert scenario.device(dev.id) is dev
    for missing in (5, 9, 100, -1):
        with pytest.raises(ConfigurationError, match=f"no device with id {missing}"):
            scenario.device(missing)

    marked = mark_unavailable(scenario, {0})
    assert marked.device(0).available is False
    assert marked.device(0) == dataclasses.replace(devices[1], available=False)
    assert marked.device(2) is devices[0] and marked.device(1) is devices[2]
    assert scenario.device(0).available is True


def test_total_model_bytes(three_device_scenario):
    assert three_device_scenario.total_model_bytes() == 9_000_000_000


_NOT_GIVEN = object()
_BAD_VALUES = {
    "missing": _NOT_GIVEN,
    "wrong type": "x",
    "true": True,
    "nan": float("nan"),
    "inf": float("inf"),
    "zero": 0,
    "negative": -1,
}


def _positive_number_messages(name):
    values = {"nan": "nan", "inf": "inf", "zero": "0.0", "negative": "-1.0"}
    return {
        "missing": f"devices[1].{name}: missing required field",
        "wrong type": f"devices[1].{name}: expected a number, got 'x'",
        "true": f"devices[1].{name}: expected a number, got True",
        **{case: f"device(id=1).{name}: must be finite and positive, got {shown}"
           for case, shown in values.items()},
    }


def _type_messages(path, expected):
    return {
        case: f"{path}: expected {expected}, got {shown}"
        for case, shown in (("wrong type", "'x'"), ("true", "True"), ("nan", "nan"), ("inf", "inf"))
    }


def _shape_messages(path, expected):
    shown = {"wrong type": "str", "true": "bool", "nan": "float", "inf": "float",
             "zero": "int", "negative": "int"}
    return {
        "missing": f"{path}: missing required field",
        **{case: f"{path}: expected {expected}, got {name}" for case, name in shown.items()},
    }


# The message each tampered field of device 1 of the three-device fixture
# gets, or None where the file still loads.
_DEVICE_FIELD_MESSAGES = {
    "id": {
        "missing": "devices[1].id: missing required field",
        **_type_messages("devices[1].id", "an integer"),
        "zero": "devices[1].id: duplicate id 0 (also devices[0])",
        "negative": "device(id=-1).id: must be a non-negative integer",
    },
    "pos_m": _shape_messages("devices[1].pos_m", "an array"),
    "variant": _shape_messages("devices[1].variant", "an object"),
    **{name: _positive_number_messages(name)
       for name in ("step_latency_s", "compute_power_w", "tx_power_w", "rx_power_w")},
    "available": {
        "missing": None,
        "wrong type": "devices[1].available: expected a boolean, got 'x'",
        "true": None,
        "nan": "devices[1].available: expected a boolean, got nan",
        "inf": "devices[1].available: expected a boolean, got inf",
        "zero": "devices[1].available: expected a boolean, got 0",
        "negative": "devices[1].available: expected a boolean, got -1",
    },
}
_VARIANT_FIELD_MESSAGES = {
    "bit_width": {
        "missing": "devices[1].variant.bit_width: missing required field",
        **_type_messages("devices[1].variant.bit_width", "an integer"),
        "zero": "variant.bit_width: must be one of (32, 16, 8, 4), got 0",
        "negative": "variant.bit_width: must be one of (32, 16, 8, 4), got -1",
    },
    "param_count": {
        "missing": "devices[1].variant.param_count: missing required field",
        **_type_messages("devices[1].variant.param_count", "an integer"),
        "zero": "variant.param_count: must be a positive integer, got 0",
        "negative": "variant.param_count: must be a positive integer, got -1",
    },
    "size_bytes": {
        "missing": None,
        **_type_messages("devices[1].variant.size_bytes", "an integer"),
        **{case: f"devices[1].variant.size_bytes: {value} inconsistent with "
                 "param_count * bit_width / 8 = 2000000000"
           for case, value in (("zero", 0), ("negative", -1))},
    },
}


@pytest.mark.parametrize("case", list(_BAD_VALUES))
@pytest.mark.parametrize("where, name", [
    *(("device", name) for name in _DEVICE_FIELD_MESSAGES),
    *(("variant", name) for name in _VARIANT_FIELD_MESSAGES),
])
def test_loader_message_for_each_tampered_device_field(three_device_scenario, where, name, case):
    data = scenario_to_dict(three_device_scenario)
    record = data["devices"][1] if where == "device" else data["devices"][1]["variant"]
    if _BAD_VALUES[case] is _NOT_GIVEN:
        del record[name]
    else:
        record[name] = _BAD_VALUES[case]
    table = _DEVICE_FIELD_MESSAGES if where == "device" else _VARIANT_FIELD_MESSAGES
    expected = table[name][case]
    if expected is None:
        assert scenario_from_dict(data).device(1).variant == three_device_scenario.device(1).variant
        return
    with pytest.raises(ValidationError) as info:
        scenario_from_dict(data)
    assert str(info.value) == expected


@pytest.mark.parametrize("tamper, message", [
    ({"bit_width": 4, "param_count": 1_000_000_001},
     "variant: param_count * bit_width must be a whole number of bytes"),
    ({"bit_width": 12}, "variant.bit_width: must be one of (32, 16, 8, 4), got 12"),
    ({"bit_width": 16.0}, "devices[1].variant.bit_width: expected an integer, got 16.0"),
])
def test_loader_applies_the_variant_rules(three_device_scenario, tamper, message):
    data = scenario_to_dict(three_device_scenario)
    data["devices"][1]["variant"].update(tamper)
    data["devices"][1]["variant"].pop("size_bytes")
    with pytest.raises(ValidationError) as info:
        scenario_from_dict(data)
    assert str(info.value) == message


def test_loaded_devices_equal_the_constructed_ones(tmp_path, default_scenario):
    marked = mark_unavailable(default_scenario, {3, 7})
    path = tmp_path / "s.json"
    save_scenario(marked, path)
    loaded = load_scenario(path)
    assert loaded == marked
    for mine, theirs in zip(loaded.devices, marked.devices):
        assert mine == theirs and hash(mine) == hash(theirs)
        assert type(mine.pos_m[0]) is float and type(mine.step_latency_s) is float
        assert dataclasses.replace(mine) == mine
