import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

from monomap import acceptance, cli
from monomap.errors import DegenerateLiftError, InputError, MonomapError


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


def test_spectrum_disks_hold_their_eigenvalues(tmp_path, capsys):
    mf = matrix_file(tmp_path, [[2, 1], [1, 1]])
    code, out = run_cli(capsys, ["spectrum", "--matrix", mf])
    assert code == 0
    with mpmath.workprec(300):
        roots = [(3 + s * mpmath.sqrt(5)) / 2 for s in (1, -1)]  # largest first
        for e, root in zip(json.loads(out)["result"]["eigenvalues"], roots):
            assert mpmath.hypot(mpmath.mpf(e["re"]) - root, e["im"]) <= e["radius"]


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


def test_stability_decided_for_every_power(tmp_path, capsys):
    mf = matrix_file(tmp_path, [[2, 0], [0, -3]])
    code, out = run_cli(capsys, ["stability", "--matrix", mf, "--k", "1"])
    assert code == 0
    env = json.loads(out)
    assert env["result"]["certificate"]["verdict"] == "STABLE_ALL_POWERS"
    assert env["result"]["certificate"]["failure_power"] is None
    assert "horizon" not in out
    with pytest.raises(SystemExit):
        cli.main(["stability", "--matrix", mf, "--k", "1", "--horizon", "10"])


@pytest.mark.parametrize("rows", [
    [[3, 0, 0], [0, 3, 0], [0, 0, 3]],
    [[2, 1, 0], [0, 2, 0], [0, 0, 3]],  # a repeated eigenvalue
])
def test_stabilize_basis_keeps_a_certified_standard_model(tmp_path, capsys, rows):
    mf = matrix_file(tmp_path, rows)
    code, out = run_cli(capsys, ["stabilize", "--matrix", mf, "--mode", "basis"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["model"]["epsilon"] == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    assert result["certified_k"] == [1, 2] and result["attempts_logged"] == 1
    assert all(c["verdict"] == "STABLE_BY_SIGN" for c in result["certificates"])


def test_stabilize_basis_singular_exit_code(tmp_path, capsys):
    mf = matrix_file(tmp_path, [[1, 1], [1, 1]])  # passes the sign test
    code, out = run_cli(capsys, ["stabilize", "--matrix", mf, "--mode", "basis"])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "SingularMatrixError"


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


@pytest.mark.parametrize("cmd, flags", [
    ("stabilize", ["--mode", "power", "--confirm-window", "-1"]),
    ("stabilize", ["--mode", "power", "--confirm-window", "-2", "--max-l", "3"]),
    ("stabilize", ["--mode", "power", "--max-l", "0"]),
])
def test_negative_search_bounds_are_value_errors(tmp_path, capsys, cmd, flags):
    mf = matrix_file(tmp_path, [[-1, 2], [2, 2]])
    bf = write_json(tmp_path, "std.json", {"vectors": [["1", "0"], ["0", "1"]]})
    code, out = run_cli(capsys, [cmd, "--matrix", mf, "--basis", bf] + flags)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ValueError"


@pytest.mark.parametrize("rows, flags, code, kind", [
    ([[4, 1, 0, 0], [1, 3, 1, 0], [0, 1, 2, 1], [0, 0, 1, -1]],
     ["--confirm-window", "-1"], 2, "ValueError"),
    ([[4, 1, 0, 0], [1, 3, 1, 0], [0, 1, 2, 1], [0, 0, 1, -1]],
     ["--max-l", "0"], 2, "ValueError"),
    # gap 2 lies inside the conjugate pair 2 +- i: CERTIFIED_EQUAL
    ([[2, 1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]],
     ["--ks", "2"], 3, "PreconditionError"),
])
def test_power_search_checked_before_orthant_search(tmp_path, capsys, monkeypatch,
                                                    rows, flags, code, kind):
    def no_frame(*args, **kwargs):
        raise AssertionError("the orthant frame was built before the input check")

    monkeypatch.setattr(cli.dynamics, "_orthant_frame", no_frame)
    mf = matrix_file(tmp_path, rows)
    got, out = run_cli(capsys, ["stabilize", "--matrix", mf, "--mode", "power"] + flags)
    assert got == code
    assert json.loads(out)["error"]["type"] == kind


def count_factorizations(monkeypatch):
    """A list that grows by one per characteristic polynomial factored."""
    spectral = cli.spectral
    calls = []
    factors = spectral.rational_factors
    monkeypatch.setattr(spectral, "rational_factors",
                        lambda p: calls.append(p) or factors(p))
    spectral._profile.cache_clear()
    return calls


def test_stabilize_power_profiles_the_spectrum_once(tmp_path, capsys, monkeypatch):
    # cmd_stabilize's early check and find_power_l0 share one profile
    calls = count_factorizations(monkeypatch)
    mf = matrix_file(tmp_path, [[2, 1, 0], [-1, 2, 0], [0, 0, 1]])
    code, out = run_cli(capsys, ["stabilize", "--matrix", mf, "--mode", "power", "--ks", "2"])
    assert code == 0 and len(calls) == 1


def test_spectrum_factors_once_for_every_root_of_unity_test(tmp_path, capsys, monkeypatch):
    # |mu_1| = |mu_2| and |mu_3| = |mu_4|: two root-of-unity tests on one profile
    calls = count_factorizations(monkeypatch)
    mf = matrix_file(tmp_path, [[2, 1, 0, 0], [-1, 2, 0, 0], [0, 0, 1, 1], [0, 0, -1, 1]])
    code, out = run_cli(capsys, ["spectrum", "--matrix", mf])
    assert code == 0 and len(json.loads(out)["result"]["roots_of_unity"]) == 2
    assert len(calls) == 1


def test_stabilize_search_flags_are_gone(tmp_path, capsys):
    mf = matrix_file(tmp_path, [[3, -1], [-1, 2]])
    for flag in ("--attempts", "--perturb-scale", "--seed"):
        with pytest.raises(SystemExit):
            cli.main(["stabilize", "--matrix", mf, "--mode", "basis", flag, "1"])
    code, out = run_cli(capsys, ["stabilize", "--matrix", mf, "--mode", "basis"])
    assert set(json.loads(out)["config"]) == {
        "mode", "denominator_bound", "max_l", "confirm_window"}


@pytest.mark.parametrize("error", [
    DegenerateLiftError("all lifts failed"),
    MonomapError("degrees on projective space must be integers; this is a bug"),
    AssertionError("broken invariant"),
])
def test_internal_errors_exit_4_with_json(tmp_path, capsys, monkeypatch, error):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_degrees", fail)
    mf = matrix_file(tmp_path, [[2, 0], [0, 2]])
    code, out = run_cli(capsys, ["degrees", "--matrix", mf, "--k", "1", "--terms", "2"])
    assert code == cli.EXIT_INTERNAL == 4
    assert json.loads(out)["error"]["type"] == type(error).__name__


def cli_import_loads(module):
    code = f"import sys, monomap.cli; sys.exit({module!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-c", code], env=env).returncode != 0


def test_cli_import_leaves_numpy_out():
    assert not cli_import_loads("numpy")


def test_cli_import_leaves_sympy_out():
    # spectral imports sympy on first use, not at the CLI's startup
    assert not cli_import_loads("sympy")


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
