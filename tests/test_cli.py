"""Command-line behavior: goldens, exit codes, deterministic reports."""

import json
import math
import subprocess
import sys

import pytest

from bouwmoller.cli import (_canon, _dumps, _parse_angle, _parse_start,
                            _parse_word, main, run_verification)


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "bouwmoller.cli", *args],
                          capture_output=True, text=True, timeout=600)


def test_derive_golden():
    r = run_cli("derive", "-m", "4", "-n", "3",
                "--word", "1,6,7,8,7,8,5,4,5,2")
    assert r.returncode == 0
    assert r.stdout.strip() == "4,3,4,7,6,1"


def test_open_window_derivation():
    r = run_cli("derive", "-m", "4", "-n", "3", "--open",
                "--word", "1,6,7,8,7,8,5,4,5,2")
    assert r.stdout.strip() == "4,3,4,7,6"


def test_invalid_polygon_count_is_a_usage_error():
    r = run_cli("surface", "-m", "4", "-n", "2")
    assert r.returncode == 2
    assert "error" in r.stderr


def test_renormalization_needs_both_parameters_at_least_three():
    r = run_cli("derive", "-m", "2", "-n", "4", "--word", "1,2")
    assert r.returncode == 2


def test_inadmissible_word_is_reported():
    r = run_cli("derive", "-m", "4", "-n", "3", "--word", "1,1")
    assert r.returncode == 2
    assert "error" in r.stderr


def test_trace_golden():
    r = run_cli("trace", "-m", "4", "-n", "3", "--theta", "pi/8",
                "--crossings", "12")
    assert r.stdout.strip() == "1,6,7,8,5,2,1,6,7,8,5,4"


def test_generate_golden():
    r = run_cli("generate", "-m", "4", "-n", "3", "-i", "1",
                "--word", "1,2,3,4")
    assert r.stdout.strip() == "7,8,5,6,5,2,1"


def test_substitution_table_output():
    r = run_cli("subst", "-m", "4", "-n", "3", "-i", "1", "-j", "1",
                "--table")
    data = json.loads(r.stdout)
    assert data["kind"] == "substitution"
    assert data["table"]["l3"] == ["r2", "v5", "v6", "l5", "v3"]
    assert data["table"]["r2"] == ["r2"]


def test_recognize_constant_itinerary():
    flat = "0," + ",".join(["2,2"] * 25)
    r = run_cli("recognize", "-m", "4", "-n", "3", "--itinerary", flat)
    assert r.stdout.strip() == "0.487806738579"


def test_surface_and_farey_exports(tmp_path):
    r = run_cli("surface", "-m", "4", "-n", "3", "--svg",
                "--out", str(tmp_path))
    assert r.returncode == 0
    surface = json.loads((tmp_path / "surface_m4n3.json").read_text())
    assert surface["m"] == 4
    assert (tmp_path / "surface_m4n3.svg").read_text().startswith("<svg")
    r = run_cli("farey", "-m", "4", "-n", "3", "--svg", "--out", str(tmp_path))
    table = json.loads((tmp_path / "farey_m4n3.json").read_text())
    assert len(table["branches"]) == 6
    assert "<polyline" in (tmp_path / "farey_m4n3.svg").read_text()


def test_trace_report_schema(tmp_path):
    r = run_cli("trace", "-m", "4", "-n", "3", "--theta", "0.45",
                "--crossings", "8", "--out", str(tmp_path))
    assert r.returncode == 0
    data = json.loads((tmp_path / "trace_m4n3.json").read_text())
    assert set(data) >= {"direction", "start", "word", "crossings"}
    assert len(data["word"]) == len(data["crossings"]) == 8


@pytest.mark.parametrize("args, message", [
    (("trace", "-m", "4", "-n", "3", "--theta", "pi/0"), "divides by zero"),
    (("trace", "-m", "4", "-n", "3", "--theta", "0.3", "--start", "9:0,0"),
     "is not inside polygon"),
    (("trace", "-m", "4", "-n", "3", "--theta", "0.3", "--start", "1:0,5"),
     "is not inside polygon"),
    (("trace", "-m", "4", "-n", "3", "--theta", "0.3", "--through", "99"),
     "is not a label"),
    (("subst", "-m", "4", "-n", "3", "-i", "1", "-j", "1", "--word", "r1,zz"),
     "unknown arrow names"),
    (("trace", "-m", "4", "-n", "3", "--theta", "0.3", "--crossings", "-5"),
     "--crossings must be at least 1"),
    (("trace", "-m", "4", "-n", "3", "--theta", "0.3", "--crossings", "0"),
     "--crossings must be at least 1"),
    (("trace", "-m", "4", "-n", "3", "--theta", "nan"), "is not finite"),
    (("trace", "-m", "4", "-n", "3", "--theta", "inf"), "is not finite"),
    (("farey", "-m", "4", "-n", "3", "--theta", "inf*pi/3"), "is not finite"),
    (("generate", "-m", "4", "-n", "3", "-i", "1", "--word", "1,9"),
     "9 is not a side of M(3,4)"),
    (("verify", "-m", "4", "-n", "3", "--trials", "0"),
     "trials must be at least 1"),
    (("verify", "-m", "4", "-n", "3", "--trials", "-1"),
     "trials must be at least 1"),
    (("trace", "-m", "4", "-n", "3", "--theta", "0.3", "--start", "1:0"),
     "--start must be K:X,Y"),
    (("trace", "-m", "4", "-n", "3", "--theta", "0.3", "--start", "1:nan,0"),
     "--start must be K:X,Y"),
    (("recognize", "-m", "4", "-n", "3", "--itinerary", "0,a,b"),
     "--itinerary must be integers b0,a1,b1[,a2,b2...]"),
], ids=["zero-denominator", "no-such-polygon", "outside-polygon",
        "no-such-side", "unknown-arrow", "negative-crossings", "zero-crossings",
        "nan-angle", "inf-angle", "farey-inf-angle", "generate-unknown-side",
        "verify-zero-trials", "verify-negative-trials", "start-without-y",
        "start-not-finite", "itinerary-not-integers"])
def test_bad_arguments_are_usage_errors(args, message):
    r = run_cli(*args)
    assert r.returncode == 2
    assert r.stderr.startswith("error: ")
    assert message in r.stderr
    assert len(r.stderr.strip().splitlines()) == 1


def test_verify_reports_are_byte_deterministic():
    args = ("verify", "-m", "4", "-n", "3", "--trials", "4", "--seed", "7")
    first, second = run_cli(*args), run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    report = json.loads(first.stdout)
    assert report["status"] == "pass"
    names = [c["name"] for c in report["checks"]]
    assert len(names) == 12
    assert not any(k.startswith("_") for c in report["checks"] for k in c)


def test_verify_requires_a_target():
    r = run_cli("verify")
    assert r.returncode == 2


def test_run_verification_seed_changes_draws():
    a = run_verification([(4, 3)], seed=7, trials=3)
    b = run_verification([(4, 3)], seed=8, trials=3)
    assert a["seed"] != b["seed"]
    assert a["status"] == b["status"] == "pass"


def test_parsers():
    assert _parse_word("1,6,7") == [1, 6, 7]
    assert _parse_word("r1, v3") == ["r1", "v3"]
    assert _parse_angle("0.5") == 0.5
    assert abs(_parse_angle("pi/8") - math.pi / 8) < 1e-15
    assert abs(_parse_angle("3*pi/4") - 3 * math.pi / 4) < 1e-15
    assert abs(_parse_angle("-pi") + math.pi) < 1e-15
    assert _parse_start("2:0.5,0.25") == (2, (0.5, 0.25))


def test_canonical_json():
    obj = {"b": 0.1234567890123456789, "a": [1, (2, 3)]}
    text = _dumps(obj)
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text)["b"] == 0.123456789012
    assert _canon(float("1.00000000000049")) == 1.0


def test_main_returns_exit_codes():
    assert main(["surface", "-m", "1", "-n", "3"]) == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])
