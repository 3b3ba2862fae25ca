"""Acceptance gate: every criterion must pass at its stated tolerance.

Prints one PASS/FAIL line per criterion (run with -s to see them inline).
The module makes two full acceptance runs: the report fixture, and one run
through the CLI entry point whose output file must be byte-identical to the
fixture's canonical report, which checks determinism end to end.
"""

import json
import time

import pytest

from monomap import acceptance, cli

_TIMING = {}


@pytest.fixture(scope="module")
def report():
    t0 = time.perf_counter()
    rep = acceptance.run_all()
    _TIMING["run_all_s"] = time.perf_counter() - t0
    return rep


def _line(c):
    print(f"[{'PASS' if c['passed'] else 'FAIL'}] criterion {c['id']:2d}: {c['name']}")


@pytest.mark.parametrize("index", range(len(acceptance.CRITERIA)))
def test_criterion(report, index):
    c = report["criteria"][index]
    _line(c)
    assert c["passed"], json.dumps(c, indent=2)


def test_criterion_1_runtime_and_size(report):
    c = report["criteria"][0]
    assert c["details"]["pairs"] == 100


def test_criterion_2_covers_fifty_pairs(report):
    assert report["criteria"][1]["details"]["pairs"] == 50


def test_criterion_3_covers_twenty_families(report):
    assert report["criteria"][2]["details"]["families"] == 20


def test_criterion_6_expected_powers(report):
    cases = {c["case"]: c for c in report["criteria"][5]["details"]["cases"]}
    assert cases["late-positive"]["l0"] == 4
    assert cases["tp"]["l0"] == 1
    assert all(c["recertified"] for c in cases.values())


def test_criterion_7_success_rate(report):
    d = report["criteria"][6]["details"]
    assert d["successes"] >= 8 and d["out_of"] == 10


def test_criterion_8_shape(report):
    d = report["criteria"][7]["details"]
    assert d["gap_verdicts"] == ["CERTIFIED_EQUAL", "CERTIFIED_GAP"]
    assert d["root_of_unity"] == "EXACT_NO"
    assert d["hankel_ranks"] == list(range(1, 13))
    assert d["recurrence"] == {"status": "NONE_UP_TO", "order_cap": 12}


def test_total_runtime_within_budgets(report):
    # stated per-criterion budgets sum to 26 minutes; the suite runs in ~1
    assert _TIMING["run_all_s"] < 26 * 60


def test_criterion_9_tolerance(report):
    d = report["criteria"][8]["details"]
    assert d["tolerance"] == 0.05
    for sample in d["samples"]:
        assert all(dev < 0.05 for dev in sample["deviations"])


def test_verify_acceptance_cli_byte_identical(tmp_path, report):
    out = tmp_path / "report.json"
    assert cli.main(["verify-acceptance", "--output-file", str(out)]) == 0
    assert out.read_bytes() == (acceptance.canonical_json(report) + "\n").encode()


def test_golden_report_matches(report):
    from importlib import resources

    golden = resources.files("monomap").joinpath("golden/acceptance.json").read_text()
    assert golden == acceptance.canonical_json(report) + "\n"
