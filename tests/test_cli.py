import json

import pytest

from monomap import acceptance, cli
from monomap.errors import InputError


def write_json(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def matrix_file(tmp_path, rows, name="m.json"):
    return write_json(
        tmp_path, name,
        {"m": len(rows), "entries": [[str(x) for x in row] for row in rows]},
    )


def test_spectrum_diagonal(tmp_path, capsys):
    mf = matrix_file(tmp_path, [[2, 0, 0], [0, 3, 0], [0, 0, 5]])
    code, out = run_cli(capsys, ["spectrum", "--matrix", mf])
    assert code == 0
    env = json.loads(out)
    assert env["result"]["lambdas"] == [1.0, 5.0, 15.0, 30.0]
    assert [g["verdict"] for g in env["result"]["gaps"]] == [
        "CERTIFIED_GAP", "CERTIFIED_GAP",
    ]
    assert env["input"]["matrix"]["entries"][0][0] == "2"


def test_spectrum_conjugate_block(tmp_path, capsys):
    mf = matrix_file(tmp_path, [[2, 1, 0], [-1, 2, 0], [0, 0, 2]])
    code, out = run_cli(capsys, ["spectrum", "--matrix", mf])
    env = json.loads(out)
    assert env["result"]["gaps"][0]["verdict"] == "CERTIFIED_EQUAL"
    rous = env["result"]["roots_of_unity"]
    assert rous and rous[0]["status"] == "EXACT_NO"


def test_spectrum_singular_exit_code(tmp_path, capsys):
    mf = matrix_file(tmp_path, [[1, 1], [1, 1]])
    code, out = run_cli(capsys, ["spectrum", "--matrix", mf])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "SingularMatrixError"


def test_stability_vandermonde(tmp_path, capsys):
    mf = matrix_file(tmp_path, [[1, 1, 1], [1, 2, 4], [1, 3, 9]])
    code, out = run_cli(capsys, ["stability", "--matrix", mf, "--k", "2"])
    assert code == 0
    env = json.loads(out)
    assert env["result"]["certificate"]["verdict"] == "STABLE_BY_SIGN"
    assert env["result"]["certificate"]["sign"] == "+"


def test_stability_k_out_of_range(tmp_path, capsys):
    mf = matrix_file(tmp_path, [[1, 1], [1, 2]])
    code, out = run_cli(capsys, ["stability", "--matrix", mf, "--k", "2"])
    assert code == 2


def test_stability_custom_basis(tmp_path, capsys):
    mf = matrix_file(tmp_path, [[4, -1], [-1, 2]])
    bf = write_json(tmp_path, "b.json", {"vectors": [["1", "0"], ["0", "-1"]]})
    code, out = run_cli(
        capsys, ["stability", "--matrix", mf, "--basis", bf, "--k", "1"]
    )
    env = json.loads(out)
    assert env["result"]["certificate"]["verdict"] == "STABLE_BY_SIGN"


def test_stabilize_basis(tmp_path, capsys):
    mf = matrix_file(tmp_path, [[3, -1], [-1, 2]])
    code, out = run_cli(capsys, ["stabilize", "--matrix", mf, "--mode", "basis"])
    assert code == 0
    env = json.loads(out)
    assert env["result"]["mode"] == "BASIS"
    assert all(
        c["verdict"] == "STABLE_BY_SIGN" for c in env["result"]["certificates"]
    )


def test_stabilize_power_precondition_violated(tmp_path, capsys):
    mf = matrix_file(tmp_path, [[2, 1], [-1, 2]])  # |mu1| = |mu2|
    code, out = run_cli(
        capsys, ["stabilize", "--matrix", mf, "--mode", "power", "--ks", "1"]
    )
    assert code == 3
    assert json.loads(out)["error"]["type"] == "PreconditionError"


def test_stabilize_power_with_explicit_model(tmp_path, capsys):
    mf = matrix_file(tmp_path, [[-1, 2], [2, 2]])
    bf = write_json(tmp_path, "std.json", {"vectors": [["1", "0"], ["0", "1"]]})
    code, out = run_cli(
        capsys,
        ["stabilize", "--matrix", mf, "--mode", "power", "--ks", "1",
         "--basis", bf],
    )
    assert code == 0
    env = json.loads(out)
    assert env["result"]["l0"] == 4


def test_stabilize_power_searched_model(tmp_path, capsys):
    mf = matrix_file(tmp_path, [[-1, 2], [2, 2]])
    code, out = run_cli(
        capsys, ["stabilize", "--matrix", mf, "--mode", "power", "--ks", "1"]
    )
    assert code == 0
    env = json.loads(out)
    assert env["result"]["l0"] >= 1  # the searched model may stabilize earlier


def test_degrees_doubling(tmp_path, capsys):
    mf = matrix_file(tmp_path, [[2, 0], [0, 2]])
    code, out = run_cli(
        capsys, ["degrees", "--matrix", mf, "--k", "1", "--terms", "5"]
    )
    env = json.loads(out)
    assert [env["result"]["degrees"][str(n)] for n in range(1, 6)] == [
        "2", "4", "8", "16", "32",
    ]
    assert env["result"]["integral"] is True


def test_degrees_identity(tmp_path, capsys):
    mf = matrix_file(tmp_path, [[1, 0], [0, 1]])
    code, out = run_cli(
        capsys, ["degrees", "--matrix", mf, "--k", "1", "--terms", "3"]
    )
    env = json.loads(out)
    assert set(env["result"]["degrees"].values()) == {"1"}


def test_degrees_custom_polytope(tmp_path, capsys):
    mf = matrix_file(tmp_path, [[2, 0], [0, 2]])
    pf = write_json(
        tmp_path, "p.json",
        {"vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]},
    )
    code, out = run_cli(
        capsys,
        ["degrees", "--matrix", mf, "--k", "2", "--terms", "2", "--polytope", pf],
    )
    env = json.loads(out)
    assert env["result"]["degrees"]["1"] == "8"  # 2! * |det 2I| * vol(square)


def test_flat_polytope_is_input_error(tmp_path, capsys):
    mf = matrix_file(tmp_path, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    pf = write_json(
        tmp_path, "flat.json",
        {"vertices": [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"]]},
    )
    common = ["--matrix", mf, "--k", "1", "--terms", "2", "--polytope", pf]
    for argv in (["degrees"], ["recurrence", "--from-degrees", "--max-order", "1"]):
        code, out = run_cli(capsys, argv + common)
        assert code == cli.EXIT_INPUT
        assert json.loads(out)["error"]["type"] == "DegeneratePolytopeError"


def test_recurrence_from_file(tmp_path, capsys):
    sf = write_json(
        tmp_path, "s.json",
        {"values": [str(x) for x in (1, 1, 2, 3, 5, 8, 13, 21, 34, 55)]},
    )
    code, out = run_cli(capsys, ["recurrence", "--sequence", sf, "--max-order", "3"])
    env = json.loads(out)
    assert env["result"]["recurrence"]["status"] == "FOUND"
    assert env["result"]["recurrence"]["order"] == 2


def test_recurrence_from_degrees_with_ch_check(tmp_path, capsys):
    mf = matrix_file(tmp_path, [[1, 1, 1], [1, 2, 4], [1, 3, 9]])
    code, out = run_cli(
        capsys,
        ["recurrence", "--from-degrees", "--matrix", mf, "--k", "1",
         "--terms", "12", "--max-order", "4"],
    )
    env = json.loads(out)
    assert env["result"]["recurrence"]["status"] == "FOUND"
    ch = env["result"]["cayley_hamilton"]
    assert ch["stability_verdict"] == "STABLE_BY_SIGN"
    assert ch["residuals_all_zero"] is True


def test_recurrence_insufficient_data_exit(tmp_path, capsys):
    sf = write_json(tmp_path, "s.json", {"values": ["1", "2", "3"]})
    code, out = run_cli(capsys, ["recurrence", "--sequence", sf, "--max-order", "5"])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InsufficientData"


def test_bad_json_is_input_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, out = run_cli(capsys, ["spectrum", "--matrix", str(p)])
    assert code == 2
    assert "line" in json.loads(out)["error"]["message"]


def test_non_integer_matrix_rejected(tmp_path, capsys):
    mf = write_json(
        tmp_path, "m.json", {"m": 2, "entries": [["1/2", "0"], ["0", "1"]]}
    )
    code, out = run_cli(capsys, ["spectrum", "--matrix", mf])
    assert code == 2


def test_matrix_big_integer_entries(tmp_path, capsys):
    big = str(12345678901234567890123456789)
    mf = write_json(
        tmp_path, "m.json", {"m": 2, "entries": [[big, "0"], ["0", "1"]]}
    )
    code, out = run_cli(capsys, ["degrees", "--matrix", mf, "--k", "1", "--terms", "1"])
    assert code == 0
    env = json.loads(out)
    assert env["result"]["degrees"]["1"] == big


def test_table_output(tmp_path, capsys):
    mf = matrix_file(tmp_path, [[2, 0], [0, 3]])
    code, out = run_cli(capsys, ["spectrum", "--matrix", mf, "--output", "table"])
    assert code == 0
    assert out.startswith("monomap spectrum")


def test_round_trip_input_echo(tmp_path, capsys):
    mf = matrix_file(tmp_path, [[2, 1], [1, 1]])
    code, out = run_cli(capsys, ["stability", "--matrix", mf, "--k", "1"])
    env = json.loads(out)
    echoed = env["input"]["matrix"]
    mf2 = write_json(tmp_path, "echo.json", echoed)
    code2, out2 = run_cli(capsys, ["stability", "--matrix", mf2, "--k", "1"])
    env2 = json.loads(out2)
    assert env["result"] == env2["result"]


def test_parse_matrix_shape_errors():
    with pytest.raises(InputError):
        cli.parse_matrix({"m": 2, "entries": [["1", "2"]]})
    with pytest.raises(InputError):
        cli.parse_matrix({"m": 1, "entries": [["1"]]})
    with pytest.raises(InputError):
        cli.parse_matrix({"entries": [["1", "x"], ["0", "1"]]})


def test_verify_acceptance_default_writes_stdout(tmp_path, capsys, monkeypatch):
    report = {
        "seed": acceptance.DEFAULT_SEED,
        "criteria": [{"id": 1, "name": "stub", "passed": True}],
        "all_passed": True,
    }
    monkeypatch.setattr(acceptance, "run_all", lambda seed: report)
    monkeypatch.chdir(tmp_path)
    code = cli.main(["verify-acceptance"])
    captured = capsys.readouterr()
    assert captured.out == acceptance.canonical_json(report) + "\n"
    assert "golden: MISMATCH" in captured.err  # the stub is not the golden report
    assert code == cli.EXIT_SEARCH_EXHAUSTED
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,obj", [
    (["stability", "--matrix", "M", "--k", "1", "--basis", "F"], {"vectors": 5}),
    (["stability", "--matrix", "M", "--k", "1", "--basis", "F"],
     {"vectors": [["1", "0"], "01"]}),
    (["degrees", "--matrix", "M", "--k", "1", "--terms", "2", "--polytope", "F"],
     {"vertices": 7}),
    (["degrees", "--matrix", "M", "--k", "1", "--terms", "2", "--polytope", "F"],
     {"vertices": []}),
    (["recurrence", "--max-order", "1", "--sequence", "F"], {"values": 5}),
    (["spectrum", "--matrix", "F"], {"entries": 5}),
    (["spectrum", "--matrix", "F"], {"m": 2, "entries": [["1", "0"], 3]}),
])
def test_malformed_input_shape_is_input_error(tmp_path, capsys, argv, obj):
    files = {"M": matrix_file(tmp_path, [[2, 1], [1, 1]]),
             "F": write_json(tmp_path, "f.json", obj)}
    code, out = run_cli(capsys, [files.get(a, a) for a in argv])
    assert code == cli.EXIT_INPUT
    assert json.loads(out)["error"]["type"] == "InputError"


@pytest.mark.parametrize("precision", ["0", "-5", "2000"])
def test_spectrum_precision_out_of_range(tmp_path, capsys, precision):
    mf = matrix_file(tmp_path, [[0, 0, -2], [1, 0, 0], [0, 1, 0]])
    code, out = run_cli(capsys, ["spectrum", "--matrix", mf, "--precision", precision])
    assert code == cli.EXIT_INPUT
    assert json.loads(out)["error"]["type"] == "ValueError"
