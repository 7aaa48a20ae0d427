import json

import pytest

from macsolver.cli import main
from macsolver.harness import COLUMNS, csv_text, read_csv
from macsolver.instances import gen_langford
from macsolver.model import dump_problem
from macsolver.search import MODES, VALUE_ORDERS
from test_harness import BAD_VALUES, make_row
from test_search import ne_chain


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_sat_exit_zero(capsys):
    code, out, _ = run(capsys, "solve", "queens:n=6")
    assert code == 0
    assert "result: sat" in out
    assert "solution:" in out
    assert "nodes:" in out


@pytest.mark.parametrize(
    "flag, choices", [("--values", VALUE_ORDERS), ("--mode", MODES)]
)
def test_solve_choices_are_the_search_tuples(capsys, flag, choices):
    for choice in choices:
        code, out, _ = run(capsys, "solve", "queens:n=4", flag, choice)
        assert code == 0, out
    with pytest.raises(SystemExit) as exc:
        main(["solve", "queens:n=4", flag, "nosuch"])
    assert exc.value.code == 3


def test_solve_unsat_exit_one(capsys):
    code, out, _ = run(capsys, "solve", "langford:k=2,n=5", "--mode", "decide")
    assert code == 1
    assert "result: unsat" in out


def test_solve_timeout_exit_two(capsys):
    code, out, _ = run(capsys, "solve", "langford:k=2,n=7", "--timeout", "1e-6")
    assert code == 2
    assert "result: timeout" in out


def test_solve_count_mode(capsys):
    code, out, _ = run(capsys, "solve", "queens:n=5", "--mode", "count")
    assert code == 0
    assert "solutions: 10" in out


def test_solve_option_plumbing(capsys):
    code, out, _ = run(
        capsys,
        "solve",
        "queens:n=6",
        "--var", "dom/wdeg+rsc",
        "--scheme", "arc",
        "--rev", "a_dom/wdeg",
        "--restart", "geo:10:1.5",
        "--values", "rand",
        "--seed", "4",
        "--mode", "decide",
    )
    assert code == 0
    assert "result: sat" in out


def test_solve_instance_file(tmp_path, capsys):
    path = tmp_path / "l23.json"
    path.write_text(dump_problem(gen_langford(2, 3)))
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 0
    assert "instance: langford-2-3" in out


def test_bad_usage_exits_three(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve"])  # instance argument missing
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["nosuch"])
    assert exc.value.code == 3


def test_domain_errors_exit_three(capsys):
    code, _, err = run(capsys, "solve", "queens:m=8")  # bad generator parameter
    assert code == 3
    assert "error:" in err
    code, _, err = run(capsys, "solve", "/nonexistent/file.json")
    assert code == 3
    code, _, err = run(capsys, "solve", "queens:n=6", "--rev", "a_wdeg")
    assert code == 3  # policy does not fit the variable scheme


def test_a_bad_generator_value_exits_three_naming_the_parameter(capsys):
    code, out, err = run(capsys, "solve", "queens:n=1.5")
    assert code == 3
    assert "result:" not in out
    assert "generator parameter 'n' in 'queens:n=1.5'" in err and "internal" not in err


def test_a_bad_restart_value_exits_three_naming_the_field(capsys):
    code, out, err = run(capsys, "solve", "queens:n=4", "--restart", "geo:x:2")
    assert code == 3
    assert "result:" not in out
    assert "bad value 'x' for BASE in restart spec 'geo:x:2'" in err and "internal" not in err


def test_nan_timeout_and_non_finite_restarts_exit_three(capsys):
    # each is rejected before any search runs
    bad = (("--timeout", "nan"), ("--restart", "geo:1:inf"), ("--restart", "geo:1:nan"))
    for option, value in bad:
        code, out, err = run(capsys, "solve", "langford:k=2,n=9", option, value)
        assert code == 3
        assert "result:" not in out
        assert "error:" in err and "internal" not in err


def test_bench_rejects_a_nan_timeout_before_any_run(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"instances": ["queens:n=4"], "var_heurs": ["dom"], "timeout": NaN}')
    out_path = tmp_path / "rows.csv"
    code, _, err = run(capsys, "bench", str(spec_path), "--out", str(out_path))
    assert code == 3
    assert "'timeout' must be positive" in err
    assert not out_path.exists()


def test_a_geometric_cutoff_past_the_float_range_runs_unlimited(capsys):
    code, out, err = run(
        capsys, "solve", "langford:k=2,n=5", "--mode", "decide", "--restart", "geo:2:1e308"
    )
    assert code == 1, err
    assert "result: unsat" in out
    assert "restarts: 1" in out


def test_a_second_tiebreak_suffix_exits_three(capsys):
    code, out, err = run(capsys, "solve", "queens:n=4", "--var", "dom+rsc+nodeimpact")
    assert code == 3
    assert "result:" not in out
    assert "second tie-break" in err and "internal" not in err


def test_bench_builds_every_configuration_before_the_first_run(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("macsolver.harness.solve", lambda *args: calls.append(args))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        {"instances": ["queens:n=4", "queens:n=5"], "var_heurs": ["dom", "nosuch"]}
    ))
    out_path = tmp_path / "rows.csv"
    code, _, err = run(capsys, "bench", str(spec_path), "--out", str(out_path))
    assert code == 3
    assert "unknown heuristic 'nosuch'" in err
    assert not out_path.exists()
    assert calls == []


def test_bench_loads_every_instance_before_the_first_run(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("macsolver.harness.solve", lambda *args: calls.append(args))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "instances": ["queens:n=6", str(tmp_path / "nosuch.json")],
        "var_heurs": ["dom", "dom/wdeg"],
        "rev_policies": ["fifo", "dom"],
    }))
    out_path = tmp_path / "rows.csv"
    code, _, err = run(capsys, "bench", str(spec_path), "--out", str(out_path))
    assert code == 3
    assert "nosuch.json" in err
    assert not out_path.exists()
    assert calls == []


def test_deep_chain_solves_exit_zero(tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_text(dump_problem(ne_chain(1200)))
    for var in ("dom", "dom/wdeg+probe"):
        code, out, _ = run(capsys, "solve", str(path), "--var", var)
        assert code == 0
        assert "result: sat" in out


def test_internal_errors_exit_three(capsys, monkeypatch):
    def broken(problem, cfg):
        raise RuntimeError("search produced an invalid solution")

    monkeypatch.setattr("macsolver.cli.solve", broken)
    code, out, err = run(capsys, "solve", "queens:n=6")
    assert code == 3
    assert "result:" not in out
    assert "Traceback" in err
    last = err.rstrip().splitlines()[-1]
    assert last == "error: internal RuntimeError: search produced an invalid solution"


def test_bench_writes_csv(tmp_path, capsys):
    spec = {
        "instances": ["queens:n=4", "langford:k=2,n=3"],
        "var_heurs": ["dom", "dom/wdeg"],
        "rev_policies": ["fifo", "dom", "v_dom/wdeg"],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_path = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "bench", str(spec_path), "--out", str(out_path))
    assert code == 0
    rows = read_csv(out_path)
    assert len(rows) == 2 * 2 * 3
    assert all(r.result == "sat" for r in rows)
    assert f"{len(rows)} rows written" in out


def test_bench_table_flag(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps({"instances": ["queens:n=4"], "var_heurs": ["dom"]})
    )
    out_path = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "bench", str(spec_path), "--out", str(out_path), "--table")
    assert code == 0
    assert "instance" in out and "queens-4" in out


def test_report_variance(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "instances": ["queens:n=5"],
                "var_heurs": ["dom"],
                "rev_policies": ["fifo", "dom", "v_dom/wdeg"],
            }
        )
    )
    out_path = tmp_path / "rows.csv"
    assert main(["bench", str(spec_path), "--out", str(out_path)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "report", "variance", str(out_path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "instance,scheme,var_heur,restart,value_order,node_variance"
    assert len(lines) == 2
    assert lines[1].startswith("queens-5,variable,dom,none,lex,")
    float(lines[1].split(",")[5])  # parses as a number


def test_report_rejects_a_malformed_csv(tmp_path, capsys):
    header = ",".join(COLUMNS)
    row = ",".join(map(str, make_row().to_list()))
    short = row.rsplit(",", 3)[0]
    for name, text in (
        ("empty", ""),
        ("short", f"{header}\n{row}\n{short}\n"),
        ("long", f"{header}\n{row},1\n"),
    ):
        path = tmp_path / f"{name}.csv"
        path.write_text(text)
        code, out, err = run(capsys, "report", "variance", str(path))
        assert code == 3, name
        assert "error:" in err and "internal" not in err and "Traceback" not in err, name
        assert out == "", name


@pytest.mark.parametrize("column, value", BAD_VALUES)
def test_report_rejects_a_bad_csv_value(tmp_path, capsys, column, value):
    path = tmp_path / "rows.csv"
    path.write_text(csv_text([make_row(), make_row(**{column: value})]))
    code, out, err = run(capsys, "report", "variance", str(path))
    assert code == 3
    assert f"error: CSV line 3, column {column}: " in err
    assert "internal" not in err and "Traceback" not in err
    assert out == ""
