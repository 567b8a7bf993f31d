"""CLI behaviour: formats, exit codes, corpus runner, reproducibility."""

import json

import pytest

from logres.cli import main
from logres.corpus import run_corpus, corpus_names, CORPUS


def test_analyze_text_output(capsys):
    code = main(["analyze", "--vars", "x,y", "--poly", "x^2 - y^3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "free" in out and "gorenstein" in out
    # a germ analysed with factors also prints its direct-sum verdict
    code = main(["analyze", "--vars", "x,y", "--poly", "x*y",
                 "--factors", "x;y"])
    out = capsys.readouterr().out
    assert code == 0
    assert any(line.split() == ["direct_sum", "true"]
               for line in out.splitlines())


def test_analyze_json_output(capsys):
    code = main(["analyze", "--vars", "x,y", "--poly", "x*y",
                 "--factors", "x;y", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["verdicts"]["free"] == "true"
    assert data["verdicts"]["residues_weakly_holomorphic"] == "true"


def test_analyze_json_byte_identical(capsys):
    args = ["analyze", "--vars", "x,y", "--poly", "x*y", "--format", "json",
            "--seed", "5"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second


def test_analyze_invalid_input_exit_2(capsys):
    assert main(["analyze", "--vars", "x", "--poly", "x^2"]) == 2
    err = capsys.readouterr().err
    assert "squarefree" in err


def test_analyze_invalid_factors_exit_2(capsys):
    for factors in ("x^2;y", "x*y;y", "x;x"):
        assert main(["analyze", "--vars", "x,y", "--poly", "x*y",
                     "--factors", factors]) == 2, factors
        assert "factor" in capsys.readouterr().err


def test_analyze_unreadable_variable_names_exit_2(capsys):
    for names in ("x,x", "x,1"):
        assert main(["analyze", "--vars", names, "--poly", "x"]) == 2, names
        assert "variable name" in capsys.readouterr().err


def test_analyze_empty_factor_list_exit_2(capsys):
    assert main(["analyze", "--vars", "x,y", "--poly", "x*y",
                 "--factors", " ; "]) == 2
    assert "empty factor list" in capsys.readouterr().err


def test_analyze_parse_error_exit_2(capsys):
    assert main(["analyze", "--vars", "x", "--poly", "x*("]) == 2


def test_analyze_has_no_precision_option_exit_2(capsys):
    # the truncation of branch computations is certified, not a knob
    assert main(["analyze", "--vars", "x,y", "--poly", "x^2-y^3",
                 "--precision", "3"]) == 2
    assert "--precision" in capsys.readouterr().err


def test_analyze_branches_file(tmp_path, capsys):
    path = tmp_path / "cusp.json"
    path.write_text(json.dumps(
        [{"param": {"x": [[3, "1"]], "y": [[2, "1"]]}, "truncation": 64}]))
    code = main(["analyze", "--vars", "x,y", "--poly", "x^2 - y^3",
                 "--branches", str(path), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["input"]["branches"] == "supplied"


def test_analyze_non_rational_curve_exit_0(capsys):
    code = main(["analyze", "--vars", "x,y", "--poly", "x^2+y^2",
                 "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert "undecided" not in data["verdicts"].values()


def test_analyze_branches_file_not_on_curve_exit_2(tmp_path, capsys):
    # x = t^3, y = t gives x^2 - y^3 = t^6 - t^3, not zero
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        [{"param": {"x": [[3, "1"]], "y": [[1, "1"]]}, "truncation": 64}]))
    code = main(["analyze", "--vars", "x,y", "--poly", "x^2 - y^3",
                 "--branches", str(path)])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_analyze_branches_file_outside_curve_class_exit_2(tmp_path, capsys):
    # a well-formed branch file for a germ with no branch normalization
    path = tmp_path / "branches.json"
    path.write_text(json.dumps(
        [{"param": {"x": [[1, "1"]], "y": [[1, "-1"]]}, "truncation": 64}]))
    code = main(["analyze", "--vars", "x,y,z", "--poly", "x*y*z*(x+y+z)",
                 "--branches", str(path)])
    assert code == 2
    assert "outside the supported class" in capsys.readouterr().err


def test_analyze_witness_power_above_200_exit_0(capsys):
    code = main(["analyze", "--vars", "x,y", "--poly", "y^2+x^202",
                 "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdicts"]["jacobian_radical"] == "false"
    assert "power 201" in data["witnesses"]["condition_D"]


def _cusp_branch(**changes):
    entry = {"param": {"x": [[3, "1"]], "y": [[2, "1"]]}}
    entry.update(changes)
    return json.dumps([entry])


# (variables, polynomial) of the germs the branch files are read against
CUSP = ("x,y", "x^2 - y^3")
SUSPENDED_CUSP = ("x,y,z", "x^2 - y^3")
LINES = ("x,y", "x*y")


@pytest.mark.parametrize("text,message,germ", [
    pytest.param(b"\xff[", "utf-8", CUSP, id="not-utf-8"),
    pytest.param("{not json", "not JSON", CUSP, id="not-json"),
    pytest.param("[1]", "branch entry 0", CUSP, id="entry-not-object"),
    pytest.param("[]", "non-empty list", CUSP, id="empty-list"),
    pytest.param(_cusp_branch(param={"x": [[3, "abc"]], "y": [[2, "1"]]}),
                 "[3, 'abc'] is not", CUSP, id="coefficient"),
    pytest.param(_cusp_branch(param={"x": [[3, 0.1]], "y": [[2, "1"]]}),
                 "[exponent, coefficient] pair", CUSP, id="float-coefficient"),
    pytest.param(_cusp_branch(param={"x": [[3, "1"]], "y": [[2, True]]}),
                 "[exponent, coefficient] pair", CUSP, id="bool-coefficient"),
    pytest.param(_cusp_branch(truncation="many"), "'many'", CUSP,
                 id="truncation-text"),
    pytest.param(_cusp_branch(param={"x": [[-3, "1"]], "y": [[2, "1"]]}),
                 "[-3, '1'] is not", CUSP, id="negative-exponent"),
    pytest.param(_cusp_branch(truncation=0), "truncation 0", CUSP,
                 id="truncation-0"),
    pytest.param(_cusp_branch(param={"x": 3, "y": [[2, "1"]]}),
                 "'x': 3 is not", CUSP, id="table-not-list"),
    pytest.param(_cusp_branch(param={"x": [[3, "1", 4]], "y": [[2, "1"]]}),
                 "[3, '1', 4] is not", CUSP, id="not-a-pair"),
    pytest.param(_cusp_branch(param={"x": [[3, "1"]]}),
                 "no series for variable 2", CUSP, id="missing-variable"),
    # a branch through (1, 0): x = 1, y = t misses h, and x = 1 + t, y = 0
    # annihilates it; either is rejected before its valuations are read
    pytest.param(json.dumps([{"param": {"x": [[1, "1"]], "y": []}},
                             {"param": {"x": [[0, "1"]], "y": [[1, "1"]]}}]),
                 "does not pass through the origin", LINES, id="off-origin"),
    pytest.param(json.dumps([{"param": {"x": [[1, "1"]], "y": []}},
                             {"param": {"x": [], "y": [[1, "1"]]}},
                             {"param": {"x": [[0, "1"], [1, "1"]], "y": []}}]),
                 "does not pass through the origin", LINES,
                 id="off-origin-annihilating"),
    # the later of two pairs with one exponent would silently win
    pytest.param(_cusp_branch(param={"x": [[3, "1"], [3, "0"]],
                                     "y": [[2, "1"]]}),
                 "exponent 3 is repeated", SUSPENDED_CUSP,
                 id="repeated-exponent"),
    # z is no curve variable of the suspension: no pullback reads its series
    pytest.param(_cusp_branch(param={"x": [[3, "1"]], "y": [[2, "1"]],
                                     "z": [[1, "1"]]}),
                 "series for z, which is not a curve variable",
                 SUSPENDED_CUSP, id="passive-series"),
    pytest.param(_cusp_branch(param={"x": [[3, "1"]], "y": [[2, "1"]],
                                     "z": [[2, "1"], [3, "1"]]}),
                 "series for z, which is not a curve variable",
                 SUSPENDED_CUSP, id="passive-series-primitive"),
])
def test_analyze_malformed_branches_file_exit_2(tmp_path, capsys, text,
                                                message, germ):
    path = tmp_path / "branches.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    vars_, poly = germ
    code = main(["analyze", "--vars", vars_, "--poly", poly,
                 "--branches", str(path)])
    assert code == 2
    assert message in capsys.readouterr().err


def test_corpus_filter_no_match_exit_2(capsys):
    assert main(["corpus", "--only", "nonexistent"]) == 2
    err = capsys.readouterr().err
    assert "no corpus entry" in err


def test_corpus_single_entry(capsys):
    assert main(["corpus", "--only", "cusp"]) == 0
    out = capsys.readouterr().out
    assert "cusp" in out and "verified" in out


def test_corpus_self_test_detects_corruption():
    # the harness must flag a deliberately corrupted expectation
    failures, ran = run_corpus(only="node",
                               expected_overrides={"node": {"free": "false"}})
    assert ran == 1
    assert failures and "free" in failures[0]


def test_consistency_failure_exit_3(monkeypatch, capsys):
    from logres import cli
    from logres.errors import ConsistencyError

    def boom(*a, **k):
        raise ConsistencyError("synthetic disagreement")
    monkeypatch.setattr(cli, "analyze", boom)
    assert main(["analyze", "--vars", "x,y", "--poly", "x*y"]) == 3
    assert "consistency" in capsys.readouterr().err


def test_corpus_names_cover_required_examples():
    names = corpus_names()
    for required in ("node", "cusp", "triple-point", "two-lines-m1",
                     "tangential-m2", "tangential-m3", "coordinate-planes",
                     "whitney-umbrella", "four-planes-family",
                     "non-quasihomogeneous"):
        assert required in names
    polys = {e["poly"] for e in CORPUS}
    assert "x*y*(x+y)*(x+y*z)" in polys
    assert "x^2 - y^2*z" in polys
