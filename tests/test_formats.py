"""The file formats module: its field tables, the docs that show them, and the import order."""

import ast
import collections
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from relaydiff import (
    Budgets,
    CostTotals,
    FailureSpec,
    RecoveryInfeasible,
    SweepSpec,
    ValidationError,
    aggregate_costs,
    formats,
    generate_scenario,
    run_sweep,
    scheduler,
    select_devices_dp,
    select_devices_no_ds,
    select_devices_oracle,
    simulate_pipeline,
)
from relaydiff.formats import PAIR, RATES, Nullable, Omittable
from relaydiff.sweep import CSV_COLUMNS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "relaydiff"
DOCS = ROOT / "docs" / "file_formats.md"

RECORDS = {
    "scenario": formats.SCENARIO,
    "device": formats.DEVICE,
    "variant": formats.VARIANT,
    "link": formats.LINK,
    "plan": formats.PLAN,
    "budgets": formats.BUDGETS,
    "grid": formats.GRID,
    "stage": formats.STAGE,
    "trace": formats.TRACE,
    "event": formats.EVENT,
}


def json_type(kind) -> str:
    """How the docs name the JSON type of a field of ``kind``."""

    if isinstance(kind, Nullable):
        return f"{json_type(kind.kind)} or null"
    if isinstance(kind, Omittable):
        return json_type(kind.kind)
    if isinstance(kind, (list, dict)):
        record = kind[0] if isinstance(kind, list) else kind
        name = next(name for name, table in RECORDS.items() if table is record)
        return f"array of `{name}`" if isinstance(kind, list) else f"`{name}` object"
    if isinstance(kind, tuple):
        return "string"  # one of the values the model accepts
    return {int: "integer", float: "number", bool: "boolean", str: "string",
            PAIR: "[number, number]", RATES: "{id: [number, number]}"}[kind]


def code_tables() -> dict:
    return {
        record: {name: (json_type(kind), "no" if isinstance(kind, (Nullable, Omittable)) else "yes")
                 for name, kind in table.items()}
        for record, table in RECORDS.items()
    }


def docs_tables(text: str) -> dict:
    """``{record: {field: (JSON type, required)}}`` from the ``#### `record``` tables of the docs."""

    tables, record = {}, None
    for line in text.splitlines():
        if line.startswith("#"):
            heading = re.fullmatch(r"#### `(\w+)`", line)
            record = heading and heading.group(1)
            if record:
                tables[record] = {}
        elif record and (row := re.fullmatch(r"\| `(\w+)` \| (.+) \| (yes|no) \|", line)):
            tables[record][row.group(1)] = (row.group(2), row.group(3))
    return tables


def test_the_docs_show_every_record_table():
    assert docs_tables(DOCS.read_text()) == code_tables()


def test_the_docs_list_the_sweep_columns_with_their_types():
    section = DOCS.read_text().split("## Sweep table", 1)[1]
    documented = re.findall(r"^\| `(\w+)` \| (\w+) \|", section, flags=re.MULTILINE)
    assert [name for name, _ in documented] == list(CSV_COLUMNS)
    (row,) = run_sweep(SweepSpec(t_max_grid=(2.0,), e_max_grid=(200.0,), methods=("dp",)),
                       n_devices=3, base_seed=0)
    assert documented == [(name, type(row[name]).__name__) for name in CSV_COLUMNS]


@pytest.mark.parametrize("mutate", [
    lambda text: text.replace("| `seed` | integer | yes |\n", "", 1),
    lambda text: text.replace("| `t_end_s` | number |", "| `t_stop_s` | number |", 1),
    lambda text: text.replace("| `amount` | integer |", "| `amount` | number |", 1),
    lambda text: text.replace("| `available` | boolean | no |", "| `available` | boolean | yes |", 1),
], ids=["removed", "renamed", "retyped", "required-flipped"])
def test_a_changed_docs_row_is_caught(mutate):
    text = DOCS.read_text()
    changed = mutate(text)
    assert changed != text
    assert docs_tables(changed) != code_tables()


def test_each_writer_writes_exactly_its_table(default_scenario):
    scenario = generate_scenario(6, seed=3)
    data = formats.scenario_to_dict(scenario)
    assert list(data) == list(formats.SCENARIO)
    assert list(data["devices"][0]) == list(formats.DEVICE)
    assert list(data["devices"][0]["variant"]) == list(formats.VARIANT)
    assert list(data["link"]) == list(formats.LINK)
    plan = select_devices_dp(default_scenario, Budgets(3.0, 300.0))
    data = formats.plan_to_dict(plan)
    assert list(data) == list(formats.PLAN)
    assert list(data["budgets"]) == list(formats.BUDGETS)
    assert list(data["discretization"]) == list(formats.GRID)
    assert list(data["stages"][0]) == list(formats.STAGE)
    trace = simulate_pipeline(default_scenario, plan, FailureSpec(injected=((plan.device_ids[0], "compute"),)))
    data = formats.trace_to_dict(trace)
    assert list(data) == list(formats.TRACE)
    assert list(data["events"][0]) == list(formats.EVENT)
    # The summary's order is the CLI's CSV header.
    assert list(formats.trace_summary(trace)) == [
        "method", "stages_completed", "replans", "t_total_s", "e_total_j", "t_tran_s", "t_cmp_s",
        "tran_fraction", "completed", "feasible",
    ]


@pytest.fixture(scope="module")
def saved(default_scenario):
    """``saved(name)`` gives the loader of a format and a fresh dict of its
    file: the default world, its dp plan, and a run of the plan that re-plans once."""

    plan = select_devices_dp(default_scenario, Budgets(3.0, 300.0))
    trace = simulate_pipeline(default_scenario, plan, FailureSpec(injected=((plan.device_ids[0], "compute"),)))
    files = {"scenario": (formats.scenario_from_dict, formats.scenario_to_dict, default_scenario),
             "plan": (formats.plan_from_dict, formats.plan_to_dict, plan),
             "trace": (formats.trace_from_dict, formats.trace_to_dict, trace)}
    return lambda name: (files[name][0], files[name][1](files[name][2]))


def refusal(load, data) -> str:
    with pytest.raises(ValidationError) as info:
        load(data)
    return str(info.value)


@pytest.mark.parametrize("name, array, path", [
    ("scenario", "devices", "devices[1]"),
    ("plan", "stages", "plan.stages[1]"),
    ("trace", "events", "trace.events[1]"),
])
def test_a_non_object_array_element_is_named_by_its_path(saved, name, array, path):
    load, data = saved(name)
    data[array][1] = [data[array][1]]
    assert refusal(load, data) == f"{path}: expected an object, got list"


@pytest.mark.parametrize("field, value, message", [
    ("t_cmp_s", "x", "expected a number, got 'x'"),
    ("device_id", 1.0, "expected an integer, got 1.0"),
    ("e_up_j", None, "expected a number, got None"),
])
def test_a_wrong_typed_stage_field_is_named_by_its_path(saved, field, value, message):
    load, data = saved("plan")
    data["stages"][1][field] = value
    assert refusal(load, data) == f"plan.stages[1].{field}: {message}"


def test_every_record_is_read_through_read_fields(saved, monkeypatch):
    reads = collections.Counter()
    read_fields = formats.read_fields

    def counted(obj, record, *path):
        reads[next(name for name, table in RECORDS.items() if table is record)] += 1
        return read_fields(obj, record, *path)

    monkeypatch.setattr(formats, "read_fields", counted)
    loaded = {}
    for name in ("scenario", "plan", "trace"):
        load, data = saved(name)
        loaded[name] = load(data)
    # Every variant of the world is written with its size, so each after the
    # first of its kind is the memo's; no variant is read field by field.
    assert reads == {"scenario": 1, "device": len(loaded["scenario"].devices), "link": 1,
                     "plan": 1, "budgets": 1, "grid": 1, "stage": len(loaded["plan"].stages),
                     "trace": 1, "event": len(loaded["trace"].events)}


def docs_quotes(text: str) -> list:
    """The loader messages quoted in the docs before their first section."""

    return re.findall(r"`(\w+(?:\.\w+|\[\d+\])*: [^`]+)`", text.split("\n## ", 1)[0])


def test_the_docs_quote_what_the_loaders_raise(saved):
    faults = [
        ("plan", lambda data: data["budgets"].pop("t_max_s")),
        ("trace", lambda data: data.update(method=5)),
        ("plan", lambda data: data.pop("method")),
        ("trace", lambda data: data.update(method="xyz")),
        ("plan", lambda data: data["stages"].__setitem__(1, [])),
        ("plan", lambda data: data["budgets"].update(t_max_s=1)),
    ]
    raised = []
    for name, tamper in faults:
        load, data = saved(name)
        tamper(data)
        raised.append(refusal(load, data))
    text = DOCS.read_text()
    assert docs_quotes(text) == raised
    stale = text.replace("expected a string, got int", "expected a string, got str", 1)
    assert stale != text and docs_quotes(stale) != raised


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_each_module_imports_on_its_own(module):
    name = "relaydiff" if module == "__init__" else f"relaydiff.{module}"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", f"import {name}"], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def _imported(module: str) -> set:
    """The modules and names that ``module`` of the package imports."""

    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
            imported.add(getattr(node, "module", None))
    return imported


@pytest.mark.parametrize("module", ["scenario", "scheduler", "pipeline", "sweep"])
def test_model_modules_know_no_file_format(module):
    assert not _imported(module) & {"json", "formats"}


def test_sweep_simulates_no_pipeline_plan():
    # Pipeline rows carry their plans' own totals (tests/test_sweep.py checks
    # them against the simulator), so the sweep needs nothing from pipeline.
    assert "pipeline" not in _imported("sweep")


def test_plans_and_traces_hold_their_own_totals_and_read_back_equal(tmp_path, monkeypatch):
    replans, select_dp = [], scheduler.SELECTORS["dp"]

    def replan(*args):  # records every re-plan a DP run's recovery makes
        replans.append(select_dp(*args))
        return replans[-1]

    monkeypatch.setitem(scheduler.SELECTORS, "dp", replan)
    small = generate_scenario(12, seed=3)
    plans = [select(small, Budgets(1.5, 150.0))
             for select in (select_devices_dp, select_devices_no_ds, select_devices_oracle)]
    world = generate_scenario(40, seed=1)
    plans.append(select_devices_dp(world, Budgets(3.0, 300.0)))
    traces = []
    for seed in range(12):
        try:
            traces.append(simulate_pipeline(world, plans[-1], FailureSpec(per_stage_prob=0.3, rng_seed=seed)))
        except RecoveryInfeasible as exc:
            traces.append(exc.trace)
    assert replans and {trace.completed for trace in traces} == {True, False}

    path = tmp_path / "file.json"
    loaded = []
    for plan in plans + replans:
        formats.save_plan(plan, path)
        loaded.append(formats.load_plan(path))
        assert loaded[-1] == plan
    for plan in plans + replans + loaded:
        assert CostTotals(plan.t_tran_s, plan.t_cmp_s, plan.e_total_j) == aggregate_costs(
            cost for _, cost in plan.stages)
    for trace in traces:
        formats.save_trace(trace, path)
        assert formats.load_trace(path) == trace
