import json
import logging
import re

import pytest

from macsolver import harness
from macsolver.harness import (
    COLUMNS,
    ExperimentSpec,
    ResultRow,
    csv_text,
    dependency_report,
    format_table,
    load_instance,
    read_csv,
    read_csv_text,
    run_experiment,
    variance,
    write_csv,
)
from macsolver.instances import gen_queens
from macsolver.model import dump_problem


def make_row(**overrides):
    base = dict(
        instance="queens-4",
        scheme="variable",
        var_heur="dom",
        rev_heur="fifo",
        restart="none",
        value_order="lex",
        seed=0,
        result="sat",
        time_ms=1.5,
        nodes=10,
        checks=100,
        revisions=20,
        dwos=3,
    )
    base.update(overrides)
    return ResultRow(**base)


def test_columns_exact_order():
    assert COLUMNS == (
        "instance",
        "scheme",
        "var_heur",
        "rev_heur",
        "restart",
        "value_order",
        "seed",
        "result",
        "time_ms",
        "nodes",
        "checks",
        "revisions",
        "dwos",
    )


def test_experiment_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(instances=(), var_heurs=("dom",))
    with pytest.raises(ValueError):
        ExperimentSpec(instances=("queens:n=4",), var_heurs=())


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"schemes": ("arcs",)}, "unknown propagation scheme 'arcs'"),
        ({"rev_policies": ("nosuch",)}, "'nosuch' fits none of the schemes"),
        ({"schemes": ("arc",), "rev_policies": ("v_wdeg",)}, "'v_wdeg' fits none"),
        ({"seeds": ()}, "'seeds' must not be empty"),
        ({"restarts": ()}, "'restarts' must not be empty"),
    ],
)
def test_experiment_spec_rejects_a_sweep_that_runs_nothing(extra, message):
    with pytest.raises(ValueError, match=message):
        ExperimentSpec(instances=("queens:n=4",), var_heurs=("dom",), **extra)


@pytest.mark.parametrize(
    "field, values",
    [
        ("instances", ("queens:n=4", "queens:n=5", "queens:n=4")),
        ("var_heurs", ("dom", "dom")),
        ("schemes", ("variable", "arc", "variable")),
        ("rev_policies", ("fifo", "fifo")),
        ("restarts", ("none", "geo:3:1.5", "geo:3:1.5")),
        ("value_orders", ("rand", "rand")),
        ("seeds", (0, 0, 1)),
    ],
)
def test_experiment_spec_rejects_a_repeated_entry(field, values):
    kwargs = {"instances": ("queens:n=4",), "var_heurs": ("dom",), field: values}
    with pytest.raises(ValueError, match=f"repeated entry .* in experiment field '{field}'"):
        ExperimentSpec(**kwargs)
    doc = {name: list(value) for name, value in kwargs.items()}
    with pytest.raises(ValueError, match="repeated entry"):
        ExperimentSpec.from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "field, values",
    [
        ("var_heurs", ("dom/wdeg+rsc+probe", "dom", "dom/wdeg+probe+rsc")),
        ("restarts", ("geo:10:1.5", "none", "geo:10:1.50")),
    ],
)
def test_experiment_spec_rejects_a_second_spelling_of_one_entry(field, values):
    # both spellings would run one configuration twice, under two names
    kwargs = {"instances": ("queens:n=5",), "var_heurs": ("dom",), field: values}
    first, second = values[0], values[2]
    message = f"repeated entry '{first}' / '{second}' in experiment field '{field}'"
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentSpec(**kwargs)


def test_run_experiment_rejects_two_sources_of_one_instance(tmp_path, monkeypatch):
    # their rows would carry one instance name and could not be told apart
    calls = []
    monkeypatch.setattr(harness, "solve", lambda *args: calls.append(args))
    path = tmp_path / "q5.json"
    path.write_text(dump_problem(gen_queens(5)))
    for second in ("queens: n = 5", str(path)):
        spec = ExperimentSpec(instances=("queens:n=5", second), var_heurs=("dom",))
        with pytest.raises(ValueError, match="both build 'queens-5'"):
            run_experiment(spec)
    assert calls == []


def test_experiment_spec_from_json():
    spec = ExperimentSpec.from_json(
        json.dumps(
            {
                "instances": ["queens:n=4"],
                "var_heurs": ["dom", "dom/wdeg"],
                "rev_policies": ["fifo", "dom"],
                "seeds": [0, 1],
                "timeout": 60,
            }
        )
    )
    assert spec.instances == ("queens:n=4",)
    assert spec.var_heurs == ("dom", "dom/wdeg")
    assert spec.rev_policies == ("fifo", "dom")
    assert spec.seeds == (0, 1)
    assert spec.timeout == 60
    assert spec.schemes == ("variable",)  # default
    with pytest.raises(ValueError):
        ExperimentSpec.from_json(json.dumps({"instances": ["queens:n=4"], "nope": 1}))


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1, 2], "must be a JSON object"),
        ({"instances": "queens:n=4", "var_heurs": ["dom"]}, "'instances' must be a list of str"),
        ({"instances": ["queens:n=4"], "var_heurs": ["dom", 3]}, "'var_heurs' must be a list of str"),
        ({"instances": ["queens:n=4"], "var_heurs": ["dom"], "seeds": 3}, "'seeds' must be a list of int"),
        ({"instances": ["queens:n=4"], "var_heurs": ["dom"], "seeds": [0, True]}, "'seeds' must be a list of int"),
        ({"instances": ["queens:n=4"], "var_heurs": ["dom"], "timeout": "60"}, "'timeout' must be a number"),
    ],
)
def test_experiment_spec_from_json_rejects_bad_types(doc, message):
    with pytest.raises(ValueError, match=message):
        ExperimentSpec.from_json(json.dumps(doc))


@pytest.mark.parametrize("timeout", ["NaN", "0", "-5", "-Infinity"])
def test_experiment_spec_from_json_rejects_a_non_positive_timeout(timeout):
    text = f'{{"instances": ["queens:n=4"], "var_heurs": ["dom"], "timeout": {timeout}}}'
    with pytest.raises(ValueError, match="'timeout' must be positive"):
        ExperimentSpec.from_json(text)


def test_experiment_spec_from_json_accepts_an_infinite_timeout():
    text = '{"instances": ["queens:n=4"], "var_heurs": ["dom"], "timeout": Infinity}'
    assert ExperimentSpec.from_json(text).timeout == float("inf")


_ONE = {"instances": ["queens:n=4"], "var_heurs": ["dom"]}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"instances": "queens:n=4", "var_heurs": ["dom"]}, "'instances' must be a list of str"),
        ({**_ONE, "var_heurs": ["dom", 3]}, "'var_heurs' must be a list of str"),
        ({**_ONE, "seeds": 3}, "'seeds' must be a list of int"),
        ({**_ONE, "seeds": [0, True]}, "'seeds' must be a list of int"),
        ({**_ONE, "timeout": "60"}, "'timeout' must be a number"),
        ({**_ONE, "timeout": float("nan")}, "'timeout' must be positive"),
        ({**_ONE, "timeout": 0}, "'timeout' must be positive"),
        ({**_ONE, "timeout": -5}, "'timeout' must be positive"),
        ({**_ONE, "timeout": float("-inf")}, "'timeout' must be positive"),
    ],
)
def test_experiment_spec_checks_a_field_alike_from_json_and_from_python(doc, message):
    with pytest.raises(ValueError, match=message):
        ExperimentSpec.from_json(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        ExperimentSpec(**doc)


def test_experiment_spec_stores_list_fields_as_tuples():
    spec = ExperimentSpec(**_ONE, seeds=[0, 1])
    assert (spec.instances, spec.var_heurs, spec.seeds) == (("queens:n=4",), ("dom",), (0, 1))


def test_load_instance_spec_and_file(tmp_path):
    p = load_instance("queens:n=4")
    assert p.name == "queens-4"
    path = tmp_path / "q4.json"
    path.write_text(dump_problem(gen_queens(4)))
    q = load_instance(str(path))
    assert q.name == "queens-4"
    assert q.variables == p.variables


def test_run_experiment_row_grid():
    spec = ExperimentSpec(
        instances=("queens:n=4", "queens:n=5"),
        var_heurs=("dom", "dom/wdeg"),
        rev_policies=("fifo", "dom"),
    )
    rows = run_experiment(spec)
    assert len(rows) == 2 * 2 * 2
    assert all(r.result == "sat" for r in rows)
    assert {r.instance for r in rows} == {"queens-4", "queens-5"}
    # deterministic order: instance-major, then heuristic, then policy
    assert [(r.instance, r.var_heur, r.rev_heur) for r in rows[:3]] == [
        ("queens-4", "dom", "fifo"),
        ("queens-4", "dom", "dom"),
        ("queens-4", "dom/wdeg", "fifo"),
    ]


def test_run_experiment_skips_invalid_combos(caplog):
    spec = ExperimentSpec(
        instances=("queens:n=4",),
        var_heurs=("dom",),
        schemes=("arc", "variable"),
        rev_policies=("a_wdeg", "v_wdeg"),
    )
    with caplog.at_level(logging.WARNING):
        rows = run_experiment(spec)
    # a_wdeg only fits arc, v_wdeg only fits variable
    assert len(rows) == 2
    assert {(r.scheme, r.rev_heur) for r in rows} == {
        ("arc", "a_wdeg"),
        ("variable", "v_wdeg"),
    }
    assert any("skipping" in rec.message for rec in caplog.records)


def test_run_experiment_deterministic_modulo_time():
    spec = ExperimentSpec(
        instances=("modelD:n=8,d=4,e=14,t=0.5,seed=3",),
        var_heurs=("dom/wdeg",),
        rev_policies=("fifo", "v_dom/wdeg"),
    )
    a = run_experiment(spec)
    b = run_experiment(spec)
    strip = lambda rows: [
        (r.instance, r.scheme, r.var_heur, r.rev_heur, r.restart, r.value_order,
         r.seed, r.result, r.nodes, r.checks, r.revisions, r.dwos)
        for r in rows
    ]
    assert strip(a) == strip(b)


def test_run_experiment_averages_random_seeds():
    spec = ExperimentSpec(
        instances=("queens:n=5",),
        var_heurs=("dom",),
        value_orders=("rand",),
        seeds=(0, 1, 2),
    )
    rows = run_experiment(spec)
    assert len(rows) == 4  # three seed rows plus the average
    avg = rows[-1]
    assert avg.seed == "avg"
    assert avg.result == "sat"
    assert avg.nodes == pytest.approx(sum(r.nodes for r in rows[:3]) / 3)
    assert avg.checks == pytest.approx(sum(r.checks for r in rows[:3]) / 3)


def test_run_experiment_solves_a_seed_blind_config_once(monkeypatch):
    # a seed changes a run only through rand values or +probe, so dom with
    # lex values is solved once for its three seed rows
    calls = []
    real_solve = harness.solve
    monkeypatch.setattr(
        harness, "solve", lambda problem, cfg: calls.append(cfg) or real_solve(problem, cfg)
    )
    spec = ExperimentSpec(
        instances=("queens:n=6",),
        var_heurs=("dom", "dom/wdeg+probe"),
        value_orders=("lex", "rand"),
        seeds=(0, 1, 2),
    )
    rows = run_experiment(spec)
    assert len(calls) == 10
    assert [
        (r.var_heur, r.value_order, r.seed, r.result, r.nodes, r.checks, r.revisions, r.dwos)
        for r in rows
    ] == [
        ("dom", "lex", 0, "sat", 15, 1921, 62, 8),
        ("dom", "lex", 1, "sat", 15, 1921, 62, 8),
        ("dom", "lex", 2, "sat", 15, 1921, 62, 8),
        ("dom", "rand", 0, "sat", 9, 1229, 38, 3),
        ("dom", "rand", 1, "sat", 10, 1256, 40, 4),
        ("dom", "rand", 2, "sat", 10, 1372, 44, 4),
        ("dom", "rand", "avg", "sat", 29 / 3, 3857 / 3, 122 / 3, 11 / 3),
        ("dom/wdeg+probe", "lex", 0, "sat", 6, 797, 20, 0),
        ("dom/wdeg+probe", "lex", 1, "sat", 7, 926, 25, 1),
        ("dom/wdeg+probe", "lex", 2, "sat", 7, 975, 27, 1),
        ("dom/wdeg+probe", "rand", 0, "sat", 6, 797, 20, 0),
        ("dom/wdeg+probe", "rand", 1, "sat", 7, 926, 25, 1),
        ("dom/wdeg+probe", "rand", 2, "sat", 7, 975, 27, 1),
        ("dom/wdeg+probe", "rand", "avg", "sat", 20 / 3, 2698 / 3, 24.0, 2 / 3),
    ]


def test_run_experiment_records_a_run_that_raises_and_goes_on(monkeypatch, caplog):
    # every dom run raises, and fifo's second seed under rand values; each
    # raise costs one row, not the sweep
    calls = []
    real_solve = harness.solve

    def solve(problem, cfg):
        calls.append(cfg)
        if cfg.policy == "dom" or (cfg.policy, cfg.value_order, cfg.seed) == ("fifo", "rand", 1):
            raise RuntimeError("boom")
        return real_solve(problem, cfg)

    monkeypatch.setattr(harness, "solve", solve)
    spec = ExperimentSpec(
        instances=("queens:n=4",),
        var_heurs=("dom",),
        rev_policies=("fifo", "dom", "v_dom/wdeg"),
        value_orders=("lex", "rand"),
        seeds=(0, 1),
    )
    with caplog.at_level(logging.WARNING):
        rows = run_experiment(spec)
    # a lex config is still solved once: its error fills both seeds' rows
    assert len(calls) == 9
    assert [(r.rev_heur, r.value_order, r.seed, r.result) for r in rows] == [
        ("fifo", "lex", 0, "sat"), ("fifo", "lex", 1, "sat"),
        ("fifo", "rand", 0, "sat"), ("fifo", "rand", 1, "error"), ("fifo", "rand", "avg", "mixed"),
        ("dom", "lex", 0, "error"), ("dom", "lex", 1, "error"),
        ("dom", "rand", 0, "error"), ("dom", "rand", 1, "error"), ("dom", "rand", "avg", "error"),
        ("v_dom/wdeg", "lex", 0, "sat"), ("v_dom/wdeg", "lex", 1, "sat"),
        ("v_dom/wdeg", "rand", 0, "sat"), ("v_dom/wdeg", "rand", 1, "sat"),
        ("v_dom/wdeg", "rand", "avg", "sat"),
    ]
    for row in rows:
        if row.result == "error":
            assert (row.nodes, row.checks, row.revisions, row.dwos) == (0, 0, 0, 0)
            assert row.time_ms >= 0.0
        elif row.result == "sat":
            assert row.nodes > 0
    warnings = [rec.message for rec in caplog.records]
    assert len(warnings) == 4
    assert warnings[0] == (
        "queens-4 under variable / dom / fifo / none / rand seed 1 raised RuntimeError: boom;"
        " recorded as error"
    )
    assert read_csv_text(csv_text(rows)) == rows


def test_no_average_for_lex_or_single_seed():
    spec = ExperimentSpec(
        instances=("queens:n=4",),
        var_heurs=("dom",),
        value_orders=("lex",),
        seeds=(0, 1),
    )
    rows = run_experiment(spec)
    assert len(rows) == 2
    assert all(r.seed != "avg" for r in rows)
    spec = ExperimentSpec(
        instances=("queens:n=4",),
        var_heurs=("dom",),
        value_orders=("rand",),
        seeds=(7,),
    )
    rows = run_experiment(spec)
    assert len(rows) == 1


def test_csv_roundtrip(tmp_path):
    rows = [
        make_row(),
        make_row(seed="avg", result="sat", time_ms=2.25, nodes=10.5),
        make_row(instance="langford-2-4", result="unsat", seed=3),
        make_row(result="timeout", time_ms=0.0, dwos=0),
        make_row(seed="avg", result="mixed", checks=0.5),
    ]
    path = tmp_path / "out.csv"
    write_csv(rows, path)
    back = read_csv(path)
    assert back == rows
    assert read_csv_text(csv_text(rows)) == rows


def test_csv_header_is_first_line():
    text = csv_text([make_row()])
    assert text.splitlines()[0] == ",".join(COLUMNS)


def test_read_csv_rejects_foreign_header():
    with pytest.raises(ValueError):
        read_csv_text("a,b,c\n1,2,3\n")


def test_read_csv_rejects_an_empty_text():
    with pytest.raises(ValueError, match="empty"):
        read_csv_text("")


@pytest.mark.parametrize("cut", [
    lambda fields: fields[:-3], lambda fields: fields + ["1"],
], ids=["short", "long"])
def test_read_csv_rejects_a_row_of_the_wrong_width(cut):
    header, first, second = csv_text([make_row(), make_row(seed=1)]).splitlines()
    bad = ",".join(cut(second.split(",")))
    with pytest.raises(ValueError, match="line 3"):
        read_csv_text("\n".join([header, first, bad]) + "\n")


# (column, value) pairs that no results CSV may hold
BAD_VALUES = [
    ("time_ms", "nan"), ("time_ms", "-0.5"), ("nodes", "-5"), ("checks", "abc"),
    ("revisions", "inf"), ("dwos", "1e999"), ("seed", "x"), ("seed", "1.5"),
    ("result", "bogus"), ("result", ""),
]


@pytest.mark.parametrize("column, value", BAD_VALUES)
def test_read_csv_rejects_a_bad_value_naming_its_line_and_column(column, value):
    header, first, second = csv_text([make_row(), make_row(seed=1)]).splitlines()
    fields = second.split(",")
    fields[COLUMNS.index(column)] = value
    text = "\n".join([header, first, ",".join(fields)]) + "\n"
    with pytest.raises(ValueError, match=f"^CSV line 3, column {column}: "):
        read_csv_text(text)


def test_format_table_aligns():
    rows = [make_row(), make_row(instance="langford-2-4", nodes=123456)]
    table = format_table(rows)
    lines = table.splitlines()
    assert lines[0].startswith("instance")
    assert len(lines) == 3
    assert "123456" in lines[2]
    assert "1.5" in lines[1]  # floats keep one decimal


def test_variance_hand_cases():
    assert variance([10, 10, 10]) == pytest.approx(0.0, abs=1e-9)
    assert variance([1, 2, 3]) == pytest.approx(2 / 3, abs=1e-9)
    assert variance([4]) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        variance([])


def test_dependency_report():
    rows = []
    for rev, nodes in (("fifo", 10), ("dom", 14), ("v_dom/wdeg", 12)):
        rows.append(make_row(rev_heur=rev, nodes=nodes))
    for rev, nodes in (("fifo", 5), ("dom", 5), ("v_dom/wdeg", 5)):
        rows.append(make_row(instance="queens-5", rev_heur=rev, nodes=nodes))
    report = dependency_report(rows)
    assert len(report) == 2
    got = {(inst, heur): var for inst, _, heur, _, _, var in report}
    assert got[("queens-4", "dom")] == pytest.approx(variance([10, 14, 12]))
    assert got[("queens-5", "dom")] == pytest.approx(0.0)


def test_dependency_report_keeps_configurations_apart():
    # rows of another scheme, restart or value order are not more seeds of
    # the same configuration
    rows = []
    for rev, nodes in (("fifo", 10), ("dom", 14), ("v_dom/wdeg", 12)):
        rows.append(make_row(rev_heur=rev, nodes=nodes))
        rows.append(make_row(rev_heur=rev, nodes=2 * nodes, restart="geo:10:1.5"))
        rows.append(make_row(rev_heur=rev, nodes=3 * nodes, value_order="rand"))
    # the arc group lacks a_dom/wdeg, one of its scheme's three policies
    rows.append(make_row(scheme="arc", rev_heur="fifo", nodes=500))
    rows.append(make_row(scheme="arc", rev_heur="dom", nodes=900))
    def var(*nodes):
        return pytest.approx(variance(list(nodes)))

    assert dependency_report(rows) == [
        ("queens-4", "variable", "dom", "none", "lex", var(10, 14, 12)),
        ("queens-4", "variable", "dom", "geo:10:1.5", "lex", var(20, 28, 24)),
        ("queens-4", "variable", "dom", "none", "rand", var(30, 42, 36)),
    ]


def test_dependency_report_multi_seed_uses_means():
    rows = [
        make_row(rev_heur="fifo", seed=0, nodes=10),
        make_row(rev_heur="fifo", seed=1, nodes=20),
        make_row(rev_heur="dom", seed=0, nodes=15),
        make_row(rev_heur="dom", seed=1, nodes=15),
        make_row(rev_heur="v_dom/wdeg", seed=0, nodes=12),
        make_row(rev_heur="v_dom/wdeg", seed=1, nodes=18),
    ]
    report = dependency_report(rows)
    assert len(report) == 1
    assert report[0][-1] == pytest.approx(variance([15.0, 15.0, 15.0]))


def test_dependency_report_skips_incomplete_groups(caplog):
    rows = [
        make_row(rev_heur="fifo"),
        make_row(rev_heur="dom"),
        # v_dom/wdeg missing
        make_row(instance="queens-5", rev_heur="fifo", nodes=3),
        make_row(instance="queens-5", rev_heur="dom", nodes=3),
        make_row(instance="queens-5", rev_heur="v_dom/wdeg", nodes=3),
    ]
    with caplog.at_level(logging.WARNING):
        report = dependency_report(rows)
    assert len(report) == 1
    assert report[0][0] == "queens-5"
    assert any("missing" in rec.message for rec in caplog.records)


def test_dependency_report_skips_groups_with_a_timed_out_run(caplog):
    # a timed-out run's node count is where the clock stopped, not its tree
    rows = [
        make_row(rev_heur="fifo", nodes=10),
        make_row(rev_heur="dom", result="timeout", nodes=3),
        make_row(rev_heur="v_dom/wdeg", nodes=12),
        # one timed-out seed of three spoils the policy's mean too
        make_row(instance="queens-5", rev_heur="fifo", seed=0, nodes=4),
        make_row(instance="queens-5", rev_heur="fifo", seed=1, result="timeout", nodes=1),
        make_row(instance="queens-5", rev_heur="dom", nodes=6),
        make_row(instance="queens-5", rev_heur="v_dom/wdeg", result="timeout", nodes=2),
        # a policy outside the report may time out
        make_row(instance="queens-6", rev_heur="fifo", nodes=7),
        make_row(instance="queens-6", rev_heur="dom", nodes=8),
        make_row(instance="queens-6", rev_heur="v_dom/wdeg", nodes=9),
        make_row(instance="queens-6", rev_heur="v_wdeg", result="timeout", nodes=1),
    ]
    with caplog.at_level(logging.WARNING):
        report = dependency_report(rows)
    assert report == [
        ("queens-6", "variable", "dom", "none", "lex", pytest.approx(variance([7, 8, 9]))),
    ]
    assert [rec.message for rec in caplog.records] == [
        "dependency report: queens-4 / variable / dom / none / lex"
        " timed out under dom, skipped",
        "dependency report: queens-5 / variable / dom / none / lex"
        " timed out under fifo, v_dom/wdeg, skipped",
    ]


def test_dependency_report_skips_groups_with_a_run_that_raised(caplog):
    # an error row's counters are zeros, not a tree
    rows = [
        make_row(rev_heur="fifo", nodes=10),
        make_row(rev_heur="dom", result="error", nodes=0),
        make_row(rev_heur="v_dom/wdeg", result="timeout", nodes=12),
        make_row(instance="queens-5", rev_heur="fifo", nodes=4),
        make_row(instance="queens-5", rev_heur="dom", nodes=6),
        make_row(instance="queens-5", rev_heur="v_dom/wdeg", nodes=5),
        make_row(instance="queens-5", rev_heur="v_wdeg", result="error", nodes=0),
    ]
    with caplog.at_level(logging.WARNING):
        report = dependency_report(rows)
    assert report == [
        ("queens-5", "variable", "dom", "none", "lex", pytest.approx(variance([4, 6, 5]))),
    ]
    assert [rec.message for rec in caplog.records] == [
        "dependency report: queens-4 / variable / dom / none / lex"
        " timed out under v_dom/wdeg; raised an error under dom, skipped",
    ]


def test_dependency_report_reads_each_schemes_policies(caplog):
    rows = []
    for rev, nodes in (("fifo", 10), ("dom", 14), ("v_dom/wdeg", 12)):
        rows.append(make_row(rev_heur=rev, nodes=nodes))
    for rev, nodes in (("fifo", 6), ("dom", 9), ("a_dom/wdeg", 3), ("a_wdeg", 999)):
        rows.append(make_row(scheme="arc", rev_heur=rev, nodes=nodes))
    # the constraint scheme has one policy only: nothing to compare
    rows.append(make_row(scheme="constraint", rev_heur="c_wcon", nodes=7))
    with caplog.at_level(logging.WARNING):
        report = dependency_report(rows)
    assert report == [
        ("queens-4", "variable", "dom", "none", "lex", pytest.approx(variance([10, 14, 12]))),
        ("queens-4", "arc", "dom", "none", "lex", pytest.approx(variance([6, 9, 3]))),
    ]
    assert [rec.message for rec in caplog.records] == [
        "dependency report: queens-4 / constraint / dom / none / lex"
        " has no dependency policies, skipped"
    ]


def test_dependency_report_ignores_avg_and_foreign_policies():
    rows = [
        make_row(rev_heur="fifo"),
        make_row(rev_heur="dom"),
        make_row(rev_heur="v_dom/wdeg"),
        make_row(rev_heur="v_wdeg", nodes=999999),  # not a dependency policy
        make_row(rev_heur="fifo", seed="avg", nodes=999999),
    ]
    report = dependency_report(rows)
    assert len(report) == 1
    assert report[0][-1] == pytest.approx(variance([10, 10, 10]))
