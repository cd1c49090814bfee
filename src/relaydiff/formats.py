"""The scenario, plan and trace files, each record's fields listed once.

Each record of the three JSON formats is a :class:`Record`, a table from
field name to kind, which its writer is compiled from and one reader,
:func:`read_fields`, walks for every record, nested records and array
elements included; ``docs/file_formats.md`` shows the same tables, and a
test compares them.
Kinds: ``int``, ``float`` (an integer is read as a float), ``bool``,
``str``; :data:`PAIR`, an (x, y) pair of numbers; :data:`RATES`, such
pairs by device id; a :class:`Record` or ``[record]``; :class:`Omittable`
and :class:`Nullable` fields; a tuple of the strings the model accepts.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import NamedTuple

from .cost_model import StageCost, aggregate_costs
from .errors import ValidationError
from .pipeline import MARKER_KINDS, Event, SimTrace
from .scenario import _POSITIVE_FIELDS, TRANSFER_PHASES, LinkParams, ModelVariant, Scenario, _built
from .scheduler import METHODS, Budgets, Discretization, SchedulePlan

PAIR = "pair"
RATES = "rates"


class Omittable(NamedTuple):
    """The kind of a field a file may leave out; it is then read as ``default``."""

    kind: object
    default: object = None


class Nullable(NamedTuple):
    """The kind of a field that may be null or left out; either is read as None."""

    kind: object


def _exact_type(kind):
    """The type json gives a well-formed value of ``kind``, which a reader takes as it is.

    A pair is taken as a list and checked after the other fields; rates have
    none (no value's type is their kind): they are parsed.
    """

    if isinstance(kind, (Omittable, Nullable)):
        return _exact_type(kind.kind)
    if isinstance(kind, tuple):
        return str
    if isinstance(kind, list) or kind is PAIR:
        return list
    return dict if isinstance(kind, dict) else kind


class Record(dict):
    """One record's fields, name -> kind, in the order its reader checks them;
    ``reads`` gives each as ``(name, kind, exact type)``."""

    __slots__ = ("reads", "_pairs")  # slots read faster than a dict subclass's attributes

    def __init__(self, **fields):
        super().__init__(fields)
        self.reads = tuple((name, kind, _exact_type(kind)) for name, kind in fields.items())
        self._pairs = tuple(name for name, kind in fields.items() if kind is PAIR)


# -- records --

VARIANT = Record(bit_width=int, param_count=int, size_bytes=Omittable(int))
DEVICE = Record(variant=VARIANT, id=int, pos_m=PAIR, **dict.fromkeys(_POSITIVE_FIELDS, float),
                available=Omittable(bool, True))
LINK = Record(rate_override_bps=Nullable(RATES), bandwidth_hz=float, noise_power_w=float,
              path_loss_ref_gain=float, path_loss_exponent=float)
SCENARIO = Record(devices=[DEVICE], link=LINK, area_m=PAIR, server_pos_m=PAIR, latent_bytes=int,
                  feature_bytes=int, steps_per_stage=int, seed=int)

BUDGETS = Record(t_max_s=float, e_max_j=float)
GRID = Record(dt_s=float, de_j=float)
STAGE = Record(device_id=int, **dict.fromkeys(StageCost._fields, float))
PLAN = Record(budgets=BUDGETS, discretization=Nullable(GRID), stages=[STAGE], objective_bytes=int,
              t_total_s=float, e_total_j=float, method=METHODS)

EVENT = Record(t_start_s=float, t_end_s=float, kind=str, device_id=Nullable(int), amount=int)
# In the order trace_summary lists them, which is the order of the CLI's CSV line.
TRACE = Record(method=str, stages_completed=int, replans=int, t_total_s=float, e_total_j=float,
               t_tran_s=float, t_cmp_s=float, tran_fraction=float, completed=bool, feasible=bool,
               events=[EVENT])


# -- reading --


# How messages name what a field of each kind should have been.
_EXPECTED = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
             list: "an array", dict: "an object"}


def require_field(obj: dict, key: str, kind, path: str):
    """``obj[key]`` read as ``kind``, else ValidationError naming ``path.key``.

    ``int`` never takes a bool; ``float`` takes any number but a bool and
    returns a float. A pair is returned as a tuple of floats and rates as a
    dict of pairs by int id; a record or an array as it is, for its reader.
    """

    if isinstance(kind, Omittable):
        if key not in obj:
            return kind.default
        kind = kind.kind
    elif isinstance(kind, Nullable):
        value = obj.get(key)
        if value is None:
            return None
        if kind.kind is int and (isinstance(value, bool) or not isinstance(value, int)):
            raise ValidationError(f"{path}.{key}: expected an integer or null")
        kind = kind.kind
    elif isinstance(kind, tuple):
        return obj.get(key)
    if key not in obj:
        raise ValidationError(f"{path}.{key}: missing required field")
    value = obj[key]
    if kind is bool or kind is int or kind is float:
        if isinstance(value, bool) is not (kind is bool) or not isinstance(
                value, (int, float) if kind is float else kind):
            raise ValidationError(f"{path}.{key}: expected {_EXPECTED[kind]}, got {value!r}")
        return float(value) if kind is float else value
    json_type = str if kind is str else list if kind is PAIR or isinstance(kind, list) else dict
    if not isinstance(value, (list, tuple) if kind is PAIR else json_type):
        raise ValidationError(f"{path}.{key}: expected {_EXPECTED[json_type]}, got {type(value).__name__}")
    if kind is PAIR:
        return _pair_value(value, f"{path}.{key}")
    return _rates_value(value, f"{path}.{key}") if kind is RATES else value


def read_fields(obj, record: Record, path: str, index: int | None = None) -> dict:
    """The fields of ``record`` in the object ``obj``, by name, read in order;
    ``obj`` is element ``index`` of the array at ``path`` if an index is given.

    A value whose type is exactly its field's is taken as it is; any other
    goes through :func:`require_field`, which converts it or names what is
    wrong. Then each pair is taken as a tuple if it is a list of two floats,
    else checked by :func:`_pair_value`. The element's path is formatted only
    for a message. The dict starts as a copy of the record, so it never grows.
    """

    if not isinstance(obj, dict):
        raise ValidationError(f"{_element(path, index)}: expected an object, got {type(obj).__name__}")
    fields = dict.copy(record)
    for name, kind, exact in record.reads:
        value = obj.get(name)
        fields[name] = (value if type(value) is exact
                        else require_field(obj, name, kind, _element(path, index)))
    if record._pairs:  # most records have none
        for name in record._pairs:
            pair = fields[name]
            fields[name] = ((pair[0], pair[1]) if len(pair) == 2 and type(pair[0]) is float
                            and type(pair[1]) is float
                            else _pair_value(pair, f"{_element(path, index)}.{name}"))
    return fields


def _element(path: str, index: int | None) -> str:
    return path if index is None else f"{path}[{index}]"


def check_totals(obj: dict, totals, parts: str, path: str) -> None:
    """Raise unless each stored ``(name, recomputed)`` total of ``totals`` in ``obj``,
    a number its reader has read, is within a 1e-12 relative tolerance of its
    recomputed value."""

    for name, recomputed in totals:
        if not math.isclose(obj[name], recomputed, rel_tol=1e-12, abs_tol=1e-12):
            raise ValidationError(
                f"{path}.{name}: {obj[name]} inconsistent with {parts} ({recomputed})"
            )


def _pair_value(value, path: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2 or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
        raise ValidationError(f"{path}: expected a pair of numbers, got {value!r}")
    return (float(value[0]), float(value[1]))


def _rates_value(raw: dict, path: str) -> dict[int, tuple[float, float]]:
    rates = {}
    for key, pair in raw.items():
        # Only the form the writer writes, str(id), so no two keys name one id.
        if not (key.isdecimal() and str(int(key)) == key):
            raise ValidationError(f"{path}: key {key!r} is not a device id written as str(id)")
        rates[int(key)] = _pair_value(pair, f"{path}[{key}]")
    return rates


def _variant_from_dict(raw: dict, index: int, known: dict) -> ModelVariant:
    """The variant of device record ``index``; ``known`` maps each well-formed
    (bit_width, param_count, size_bytes) already read to its variant, so each
    is checked once."""

    key = bit_width, param_count, size_bytes = (
        raw.get("bit_width"), raw.get("param_count"), raw.get("size_bytes"))
    if type(bit_width) is not int or type(param_count) is not int or type(size_bytes) is not int:
        bit_width, param_count, size_bytes = read_fields(raw, VARIANT, f"devices[{index}].variant").values()
    elif key in known:
        return known[key]
    variant = ModelVariant(bit_width, param_count)
    if size_bytes is not None and size_bytes != variant.size_bytes:
        raise ValidationError(
            f"devices[{index}].variant.size_bytes: {size_bytes} inconsistent with "
            f"param_count * bit_width / 8 = {variant.size_bytes}"
        )
    known[bit_width, param_count, size_bytes] = variant
    return variant


def scenario_from_dict(data: dict) -> Scenario:
    fields = read_fields(data, SCENARIO, "scenario")
    # Each device is built unchecked once its field types and variant are:
    # the Scenario applies the other device rules to all its devices at once.
    devices, variants = [], {}
    for i, raw in enumerate(fields["devices"]):
        device = read_fields(raw, DEVICE, "devices", i)
        device["variant"] = _variant_from_dict(device["variant"], i, variants)
        devices.append(_built(device))
    fields["devices"] = tuple(devices)
    fields["link"] = LinkParams(**read_fields(fields["link"], LINK, "link"))
    return Scenario(**fields)


def plan_from_dict(data: dict) -> SchedulePlan:
    fields = read_fields(data, PLAN, "plan")
    fields["budgets"] = Budgets(**read_fields(fields["budgets"], BUDGETS, "plan.budgets"))
    if fields["discretization"] is not None:
        fields["discretization"] = Discretization(
            **read_fields(fields["discretization"], GRID, "plan.discretization"))

    stages = []
    for i, raw in enumerate(fields["stages"]):
        dev_id, *costs = read_fields(raw, STAGE, "plan.stages", i).values()
        if not min(costs) >= 0.0:  # a negative cost, or a NaN, which the totals check refuses
            for name, value in zip(StageCost._fields, costs):
                if value < 0:
                    raise ValidationError(f"plan.stages[{i}].{name}: expected a number >= 0, got {value!r}")
        stages.append((dev_id, StageCost(*costs)))
    fields["stages"] = tuple(stages)

    if fields["objective_bytes"] < 0:
        raise ValidationError(
            f"plan.objective_bytes: expected an integer >= 0, got {fields['objective_bytes']!r}")
    totals = aggregate_costs(cost for _, cost in stages)
    check_totals(data, (("t_total_s", totals.t_total_s), ("e_total_j", totals.e_total_j)),
                 "stage costs", "plan")
    del fields["t_total_s"], fields["e_total_j"]
    plan = SchedulePlan(totals.t_tran_s, totals.t_cmp_s, totals.e_total_j, **fields)
    # Every plan the package writes fits its own budgets; simulate's budget
    # overrides judge the run, never the plan.
    if not plan.fits(plan.budgets):
        raise ValidationError(
            f"plan.budgets: the stage costs' totals (t_total_s {plan.t_total_s}, e_total_j "
            f"{plan.e_total_j}) do not fit t_max_s {plan.budgets.t_max_s}, e_max_j {plan.budgets.e_max_j}"
        )
    return plan


# The methods a trace may name: a plan's, or the split baseline's.
_TRACE_METHODS = METHODS + ("split",)


def trace_from_dict(data: dict) -> SimTrace:
    fields = read_fields(data, TRACE, "trace")
    if fields["method"] not in _TRACE_METHODS:
        raise ValidationError(f"trace.method: must be one of {_TRACE_METHODS}, got {fields['method']!r}")
    events = fields["events"] = tuple(Event(**read_fields(raw, EVENT, "trace.events", i))
                                      for i, raw in enumerate(fields["events"]))

    # The simulator's clock starts at 0.0, each event starts exactly where the
    # previous one ended, and markers take no time.
    clock = 0.0
    for i, event in enumerate(events):
        if event.t_start_s != clock:
            raise ValidationError(
                f"trace.events[{i}].t_start_s: {event.t_start_s} is not where the "
                f"timeline stands ({clock})"
            )
        if event.kind in MARKER_KINDS and event.t_end_s != event.t_start_s:
            raise ValidationError(
                f"trace.events[{i}]: a {event.kind} marker must be zero-width, "
                f"got {event.t_start_s}..{event.t_end_s}"
            )
        clock = event.t_end_s

    check_totals(data, (
        ("t_tran_s", math.fsum([e.t_end_s - e.t_start_s for e in events if e.kind in TRANSFER_PHASES])),
        ("t_cmp_s", math.fsum([e.t_end_s - e.t_start_s for e in events if e.kind == "compute"])),
    ), "events", "trace")
    # The simulator sums the phase durations it was given, and each can
    # differ by an ulp from t_end_s - t_start_s, so the stored sums are kept;
    # the other two totals follow from them, as for every trace.
    del fields["t_total_s"], fields["tran_fraction"]
    trace = SimTrace(**fields)
    check_totals(data, (("t_total_s", trace.t_total_s), ("tran_fraction", trace.tran_fraction)),
                 "t_tran_s + t_cmp_s", "trace")

    kinds = [e.kind for e in events]
    # A split step computes once on each device and writes no checkpoint; a
    # run stops short only where a re-plan finds no continuation.
    stages = kinds.count("compute") / 2 if fields["method"] == "split" else kinds.count("checkpoint")
    for name, recounted in (("stages_completed", stages), ("replans", kinds.count("replan")),
                            ("completed", kinds[-1:] != ["replan"])):
        if fields[name] != recounted:
            raise ValidationError(f"trace.{name}: {fields[name]} inconsistent with events ({recounted})")
    return trace


# -- writing --


def _rates_json(rates: dict) -> dict:
    return {str(dev_id): [float(up), float(down)] for dev_id, (up, down) in sorted(rates.items())}


def _writer(record, **writers):
    """The function that gives the JSON object of a value of ``record``.

    Each field is the value's attribute of that name, written as its kind
    says, or by ``writers[name]`` for each element of an array field. It is
    one dict display, nested records inline, compiled from the record as
    ``dataclasses`` compiles ``__init__``: half the time of a walk per value.
    """

    def written(kind, value: str, depth: int) -> str:
        if isinstance(kind, Nullable):
            inner = written(kind.kind, value, depth)
            return value if inner == value else f"(None if {value} is None else {inner})"
        if isinstance(kind, Omittable):
            return written(kind.kind, value, depth)
        if isinstance(kind, dict):
            return display(kind, value, depth)
        if isinstance(kind, list):
            item = f"x{depth}"
            return f"[{display(kind[0], item, depth + 1)} for {item} in {value}]"
        if kind is PAIR:
            return f"list({value})"
        if kind is RATES:
            return f"_rates_json({value})"
        return value

    def display(record, value: str, depth: int) -> str:
        return "{" + ", ".join(
            f"{name!r}: " + (f"list(map(_{name}, {value}.{name}))" if name in writers
                             else written(kind, f"{value}.{name}", depth))
            for name, kind in record.items()
        ) + "}"

    scope = {"_rates_json": _rates_json, **{f"_{name}": write for name, write in writers.items()}}
    exec(f"def write(o):\n    return {display(record, 'o', 0)}\n", scope)
    return scope["write"]


def _stage_json(stage) -> dict:
    """A plan holds each stage as a (device_id, StageCost) pair."""

    return dict(zip(STAGE, (stage[0], *stage[1])))


scenario_to_dict = _writer(SCENARIO)
plan_to_dict = _writer(PLAN, stages=_stage_json)
trace_to_dict = _writer(TRACE)
# Every trace field but the events, in table order: a flat one-record summary,
# whose fields are also the trace-side columns of the sweep CSV.
trace_summary = _writer({name: kind for name, kind in TRACE.items() if name != "events"})


# -- files --


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


def save_plan(plan: SchedulePlan, path) -> None:
    write_json(plan_to_dict(plan), path, indent=2)


def load_plan(path) -> SchedulePlan:
    return plan_from_dict(read_json(path))


def save_trace(trace: SimTrace, path) -> None:
    """Write ``trace`` as compact JSON with sorted keys (:func:`load_trace` reads indented files too)."""

    write_json(trace_to_dict(trace), path)


def load_trace(path) -> SimTrace:
    return trace_from_dict(read_json(path))
