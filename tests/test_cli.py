"""Command-line behavior: goldens, exit codes, deterministic reports."""

import hashlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bouwmoller import build_surface, cli, start_through, trace
from bouwmoller.cli import (_parse_angle, _parse_start, _parse_word, main,
                            run_verification)
from bouwmoller.farey import itinerary
from bouwmoller.surface import _canon, _dumps
from bouwmoller.tracer import BLOCK_MIN


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


def test_trace_builds_no_crossings_without_out(monkeypatch, capsys):
    # printing the word reads only the labels
    def refuse(*args):
        raise AssertionError("a crossing was built")
    monkeypatch.setattr("bouwmoller.tracer.Crossing", refuse)
    assert main(["trace", "-m", "4", "-n", "3", "--theta", "0.35",
                 "--crossings", "50"]) == 0
    assert capsys.readouterr().out.count(",") == 49


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


# one dual-admissible word per surface for generate: a walk in T_0 of M(n,m)
_GENERATE_WORDS = {(4, 3): "1,2,3,6,7,6,7,2,3,6,7,6,7",
                   (3, 4): "1,2,3,2,3,2,3,2,3",
                   (3, 7): "1,2,3,2,3,2,3,2,3",
                   (7, 3): "1,2,3,12,13,12,13,2,3,12,13"}


def _cli_runs(m, n):
    """The commands of the CLI output pin on M(m,n).  W stands for the word
    the first run prints; its cyclic derive is a pinned usage error."""
    s = ["-m", str(m), "-n", str(n)]
    vertices = build_surface(m, n).polygons[0].vertices
    x, y = (sum(c) / len(vertices) for c in zip(*vertices))
    runs = [["trace", *s, "--theta", "0.3", "--crossings", "400"],
            ["surface", *s, "--svg", "--out"],
            ["diagram", *s, "--out"],
            ["diagram", *s, "-i", "1", "--format", "dot", "--out"],
            ["diagram", *s, "--derivation", "--out"],
            ["diagram", *s, "--derivation", "--format", "dot", "--out"],
            ["diagram", *s, "--hooper", "--out"],
            ["trace", *s, "--theta", "0.3", "--crossings", "50", "--svg",
             "--out"],
            ["trace", *s, "--theta", "2*pi/5", "--through", "2",
             "--crossings", "300", "--svg", "--out"],
            ["trace", *s, "--theta", "0.3", "--start", f"0:{x!r},{y!r}",
             "--crossings", str(BLOCK_MIN + 500), "--svg", "--out"]]
    if min(m, n) >= 3:
        runs += [["derive", *s, "--open", "--word", "W", "--out"],
                 ["derive", *s, "--word", "W"],
                 ["generate", *s, "-i", "1", "--word",
                  _GENERATE_WORDS[m, n], "--out"],
                 ["generate", *s, "-i", str(m - 1), "--word",
                  _GENERATE_WORDS[m, n]],
                 ["subst", *s, "-i", "1", "-j", "1", "--out"],
                 ["subst", *s, "-i", "1", "--table"],
                 ["subst", *s, "-i", "1", "-j", "1", "--word", "r1,l1,v1"],
                 ["farey", *s, "--svg", "--out"],
                 ["farey", *s, "--theta", "0.3", "--depth", "6"],
                 ["farey", *s, "--theta", "pi/7"],
                 ["recognize", *s, "--itinerary", ",".join(
                     map(str, itinerary(m, n, 0.3, 25).flatten()))],
                 ["recognize", *s, "--word", "W", "--tol", "0.05"],
                 ["verify", *s, "--trials", "2", "--seed", "3", "--out"]]
    return runs


@pytest.mark.parametrize("m, n, digest", [
    (4, 3, "ccc821d33602c65ca77b77c87410d900aaf5cd6fc19c2b72a60c3763287d9b05"),
    (3, 4, "f5b870804cd3027d1b0f1f2d088d003ef6e17a78d8f44f082a266b4dd72d302d"),
    (2, 5, "e87c0774cad7200648759d4ce249977b846e3259fe18eeb6401f8422b419fd95"),
    (3, 7, "8a864ea7d8d00c3a3dc3aaa103830e2b8b44de95b3ac655c3ae55a099802073f"),
    (7, 3, "b32467ae61d528bb25a1144ecee2de039ad78b211d3f6e7fe3186ef1469e51df"),
])
def test_cli_output_bytes_are_pinned(m, n, digest, tmp_path, capsys):
    # stdout, stderr, exit code and every file written, for each command;
    # the trace of BLOCK_MIN + 500 crossings takes the block path
    sha = hashlib.sha256()
    word = None
    for k, args in enumerate(_cli_runs(m, n)):
        args = [word if a == "W" else a for a in args]
        out_dir = tmp_path / str(k)
        code = main(args + [str(out_dir)] * (args[-1] == "--out"))
        out, err = capsys.readouterr()
        word = word or out.strip()
        out = out.replace(str(tmp_path), "OUT")  # the paths written
        sha.update(repr((args, code, out, err)).encode())
        for path in sorted(out_dir.glob("*")):
            sha.update(path.name.encode() + b"\0" + path.read_bytes())
    assert sha.hexdigest() == digest


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
    (("generate", "-m", "4", "-n", "3", "-i", "8", "--word", "1,2"),
     "sector 8 out of range 1..3"),
    (("generate", "-m", "4", "-n", "3", "-i", "-1", "--word", "1,2"),
     "sector -1 out of range 1..3"),
    (("generate", "-m", "4", "-n", "3", "-i", "0", "--word", "1,2"),
     "sector 0 out of range 1..3"),
    (("generate", "-m", "4", "-n", "3", "-i", "8", "--word", "1,99"),
     "99 is not a side of M(3,4)"),
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
    (("verify", "-m", "4", "-n", "4"),
     "verify does not support m and n both even, got (4, 4)"),
    (("verify", "-m", "0", "-n", "3"),
     "renormalization needs m, n >= 3, got (0, 3)"),
    (("recognize", "-m", "4", "-n", "3", "--word", "1,6,7,8", "--depth", "-3"),
     "--depth must be at least 1, got -3"),
    (("trace", "-m", "4", "-n", "3", "--theta", "0.35", "--svg"),
     "trace --svg needs --out"),
    (("farey", "-m", "4", "-n", "3", "--theta", "0.35", "--out", "x"),
     "farey --theta prints its result"),
    (("farey", "-m", "4", "-n", "3", "--theta", "0.35", "--svg"),
     "farey --theta prints its result"),
    (("farey", "-m", "4", "-n", "3", "--depth", "3"),
     "farey --depth needs --theta"),
    (("subst", "-m", "4", "-n", "3", "-i", "1", "--word", "r1", "--out", "x"),
     "subst --word prints its image"),
    (("diagram", "-m", "4", "-n", "3", "--hooper", "--format", "json"),
     "diagram --hooper writes DOT only"),
    (("verify", "-m", "4", "--all-small"),
     "verify --all-small takes no -m or -n"),
    (("recognize", "-m", "4", "-n", "3", "--itinerary", "0,2,2", "--depth", "3"),
     "recognize --depth is for --word"),
    (("farey", "-m", "4", "-n", "3", "--theta", "0.35", "--depth", "0"),
     "--depth must be at least 1, got 0"),
    (("recognize", "-m", "4", "-n", "3", "--itinerary", "0,2,2", "--tol",
      "nan"), "--tol must be finite and above 0, got nan"),
    (("recognize", "-m", "4", "-n", "3", "--itinerary", "0,2,2", "--tol",
      "0"), "--tol must be finite and above 0, got 0.0"),
    (("recognize", "-m", "4", "-n", "3", "--itinerary", "0,2,2", "--tol",
      "-1"), "--tol must be finite and above 0, got -1.0"),
    (("recognize", "-m", "4", "-n", "3", "--word", "99"),
     "word admissible in no sector of M(4,3)"),
    # the renormalization gate comes before every other check
    (("derive", "-m", "2", "-n", "5", "--word", "1"),
     "renormalization needs m, n >= 3, got (2, 5)"),
    (("farey", "-m", "2", "-n", "5", "--depth", "3"),
     "renormalization needs m, n >= 3, got (2, 5)"),
    (("subst", "-m", "2", "-n", "5", "-i", "1", "--word", "r1", "--out", "x"),
     "renormalization needs m, n >= 3, got (2, 5)"),
    (("recognize", "-m", "2", "-n", "5", "--itinerary", "0,1,1", "--tol",
      "0"), "renormalization needs m, n >= 3, got (2, 5)"),
], ids=["zero-denominator", "no-such-polygon", "outside-polygon",
        "no-such-side", "unknown-arrow", "negative-crossings", "zero-crossings",
        "nan-angle", "inf-angle", "farey-inf-angle", "generate-unknown-side",
        "generate-sector-above", "generate-sector-negative",
        "generate-sector-zero", "generate-side-before-sector",
        "verify-zero-trials", "verify-negative-trials", "start-without-y",
        "start-not-finite", "itinerary-not-integers", "verify-both-even",
        "verify-zero-m",
        "recognize-negative-depth", "trace-svg-without-out", "farey-theta-out",
        "farey-theta-svg", "farey-depth-without-theta", "subst-word-out",
        "diagram-hooper-json", "verify-all-small-and-m",
        "recognize-itinerary-depth", "farey-zero-depth", "recognize-nan-tol",
        "recognize-zero-tol", "recognize-negative-tol",
        "recognize-word-no-side", "gate-before-derive",
        "gate-before-farey-depth", "gate-before-subst-out",
        "gate-before-recognize-tol"])
def test_bad_arguments_are_usage_errors(args, message):
    r = run_cli(*args)
    assert r.returncode == 2
    assert r.stderr.startswith("error: ")
    assert message in r.stderr
    assert len(r.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("args", [
    ("diagram", "-m", "4", "-n", "3", "--format", "svg"),
    ("recognize", "-m", "4", "-n", "3", "--itinerary", "0,2,2", "--out", "x"),
    ("derive", "-m", "4", "-n", "3", "--word", "1,6", "--format", "json"),
    ("generate", "-m", "4", "-n", "3", "-i", "1", "--word", "1,2",
     "--format", "json"),
    ("subst", "-m", "4", "-n", "3", "-i", "1", "--format", "json"),
    ("recognize", "-m", "4", "-n", "3", "--itinerary", "0,2,2",
     "--format", "json"),
    ("verify", "-m", "4", "-n", "3", "--format", "json"),
    ("surface", "-m", "4", "-n", "3", "--format", "svg"),
    ("trace", "-m", "4", "-n", "3", "--theta", "0.3", "--format", "svg"),
    ("farey", "-m", "4", "-n", "3", "--format", "svg"),
    ("subst", "-m", "4", "-n", "3", "-i", "1", "--table", "--word", "r1"),
    ("diagram", "-m", "4", "-n", "3", "--hooper", "-i", "2"),
    ("diagram", "-m", "4", "-n", "3", "--derivation", "-i", "2"),
    ("diagram", "-m", "4", "-n", "3", "--hooper", "--derivation"),
    ("recognize", "-m", "4", "-n", "3", "--itinerary", "0,2,2",
     "--word", "1,6"),
    ("trace", "-m", "4", "-n", "3", "--theta", "0.35", "--start", "1:1.5,0.7",
     "--through", "5"),
    # an option given at its default value still counts as given
    ("trace", "-m", "4", "-n", "3", "--theta", "0.35", "--start", "1:1.5,0.7",
     "--through", "1"),
    ("diagram", "-m", "4", "-n", "3", "--derivation", "-i", "0"),
], ids=["diagram-svg", "recognize-out", "derive-format", "generate-format",
        "subst-format", "recognize-format", "verify-format", "surface-format",
        "trace-format", "farey-format", "subst-table-and-word",
        "diagram-hooper-and-sector", "diagram-derivation-and-sector",
        "diagram-hooper-and-derivation", "recognize-itinerary-and-word",
        "trace-start-and-through", "trace-start-and-default-through",
        "diagram-derivation-and-default-sector"])
def test_options_a_command_ignores_are_rejected(args, capsys):
    # each subcommand takes only the options it acts on, and of the options
    # that choose what to do only one; SVG output has the one switch --svg
    with pytest.raises(SystemExit) as exc:
        main(list(args))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert ("error: unrecognized arguments" in err or "invalid choice" in err
            or "not allowed with argument" in err)


def test_a_closed_pipe_ends_quietly():
    # the reader stops after a few bytes, as `| head -c 10` does
    proc = subprocess.Popen(
        [sys.executable, "-m", "bouwmoller.cli", "trace", "-m", "4", "-n", "3",
         "--theta", "0.35", "--crossings", "200000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(10) == b"1,6,7,8,5,"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=600) == 1
    assert err == b""


def test_the_package_runs_without_numpy():
    code = ("import sys\n"
            "sys.modules['numpy'] = None\n"
            "from bouwmoller.cli import main\n"
            "codes = [main(['verify', '-m', '4', '-n', '3', '--trials', '3']),\n"
            "         main(['farey', '-m', '4', '-n', '3'])]\n"
            "sys.exit(0 if codes == [0, 0] else 1)\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, timeout=600)
    assert r.returncode == 0, r.stderr
    assert '"status": "pass"' in r.stdout


def test_recognize_a_sector_n_word():
    # sector n of M(4,3) is sector 0 traversed backwards
    theta = math.pi + 0.7
    surf = build_surface(4, 3)
    word = trace(surf, start_through(surf, 1, theta), theta, 2000).labels
    r = run_cli("recognize", "-m", "4", "-n", "3", "--depth", "12",
                "--tol", "1e-3", "--word", ",".join(map(str, word)))
    assert r.returncode == 0
    assert r.stderr == ""
    assert abs(float(r.stdout) - theta) < 1e-3


def test_recognize_stops_at_the_first_ambiguous_stage():
    # the 15th and 16th derivatives of this window have two letters and
    # one, too short to fix their sectors
    theta = math.pi + 0.7
    surf = build_surface(4, 3)
    word = trace(surf, start_through(surf, 1, theta), theta, 2000).labels
    args = ("recognize", "-m", "4", "-n", "3", "--depth", "16",
            "--word", ",".join(map(str, word)))
    r = run_cli(*args, "--tol", "1e-6")
    assert r.returncode == 2
    assert "branch pair" not in r.stderr
    assert "stage 15" in r.stderr
    r = run_cli(*args, "--tol", "1e-5")
    assert r.returncode == 0
    assert abs(float(r.stdout) - theta) < 1e-5


def test_recognize_derives_only_as_deep_as_the_word_allows():
    # the sixth derivative of this 30-crossing window has one letter, so
    # depth 8 derives six times and stops at the ambiguous stage 5, as
    # depth 6 does
    surf = build_surface(4, 3)
    word = trace(surf, start_through(surf, 1, 0.3), 0.3, 30).labels
    for depth in ("6", "8", "30"):
        r = run_cli("recognize", "-m", "4", "-n", "3", "--depth", depth,
                    "--tol", "0.05", "--word", ",".join(map(str, word)))
        assert r.returncode == 0
        assert r.stdout == "0.303974571726\n"
        assert "stopped at derivation stage 5" in r.stderr
    r = run_cli("recognize", "-m", "4", "-n", "3", "--depth", "8",
                "--word", ",".join(map(str, word[:6])))
    assert r.returncode == 2
    assert len(r.stderr.strip().splitlines()) == 1
    assert "before any whole branch pair" in r.stderr


def test_recognize_reports_an_ambiguous_stage_not_an_absent_word():
    # this traced word reads in sectors 2 and 6 of M(3,4); derived in
    # sector 2 its derivative is admissible nowhere, but the word occurs
    r = run_cli("trace", "-m", "3", "-n", "4", "--theta", "4.775914736533735",
                "--start", "1:2.7787206661460138,0.07557806142078664",
                "--crossings", "16")
    assert r.returncode == 0
    word = r.stdout.strip()
    assert word == "4,2,4,2,4,2,4,2,4,1,3,1,3,1,3,1"
    r = run_cli("recognize", "-m", "3", "-n", "4", "--word", word)
    assert r.returncode == 2
    assert r.stderr == ("error: derivation stage 0 has ambiguous sectors, "
                        "before any whole branch pair\n")


def test_traced_windows_quarantine_a_derivation_past_an_ambiguous_stage():
    # one of these windows of M(3,5) reads in two sectors at stage 0, and
    # derived in the lower one its derivative is admissible nowhere: an
    # ambiguous trial, not a derivability failure and not a short window
    derivability, agreement = cli.check_traced_windows(3, 5, trials=364,
                                                       seed=0)
    assert derivability["status"] == agreement["status"] == "pass"
    assert derivability["skipped"]["short"] == 0
    assert agreement["ambiguous_quarantined"] == 19


def test_farey_warns_where_the_double_stops_determining_the_itinerary(capsys):
    # itinerary(4, 3, 0.35, 200) and those of both neighbouring doubles of
    # 0.35 first differ at pair 17; stdout keeps all 200 pairs
    assert main(["farey", "-m", "4", "-n", "3", "--theta", "0.35",
                 "--depth", "200"]) == 0
    out, err = capsys.readouterr()
    assert len(json.loads(out)["itinerary"]["pairs"]) == 200
    assert err == ("warning: the double 0.35 does not determine itinerary "
                   "pair 17 (0-based) or later ones\n")
    for x in (math.nextafter(0.35, -math.inf), math.nextafter(0.35, math.inf)):
        pairs = itinerary(4, 3, x, 18).pairs
        assert pairs[:17] == itinerary(4, 3, 0.35, 17).pairs
        assert pairs[17] != itinerary(4, 3, 0.35, 18).pairs[17]
    assert main(["farey", "-m", "4", "-n", "3", "--theta", "0.35",
                 "--depth", "5"]) == 0
    assert capsys.readouterr().err == ""


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


@pytest.mark.parametrize("args, digest", [
    (("--seed", "1", "--trials", "20"),
     "bf6b9f53d861e3f19a9dc3d0c68971df6050a4866c5dff5e5ed745498b9bf4d7"),
    (("--seed", "7"),
     "5d5b63b71813361eea89f3ca4d56ba702e720042e54ff6917b3b4c8e58f785b7"),
], ids=["seed-1-trials-20", "seed-7"])
def test_verify_report_is_pinned(args, digest, capsys):
    # the whole report, across runs and changes that keep its behaviour;
    # seed 7 runs every check at its own trial count
    assert main(["verify", "--all-small", *args]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_requires_a_target():
    r = run_cli("verify")
    assert r.returncode == 2


def test_run_verification_seed_changes_draws():
    a = run_verification([(4, 3)], seed=7, trials=3)
    b = run_verification([(4, 3)], seed=8, trials=3)
    assert a["seed"] != b["seed"]
    assert a["status"] == b["status"] == "pass"


@pytest.mark.parametrize("trials", [2.5, 3.0, "3", [3]])
def test_run_verification_takes_int_trials(trials):
    # a float ran ceil(trials) trials in the checks that count up to it,
    # and a TypeError out of range() in check_conjugacy
    with pytest.raises(ValueError, match=r"^trials must be an int, got "):
        run_verification([(4, 3)], trials=trials)


def test_a_check_that_raises_is_one_error_entry(monkeypatch, capsys):
    # a check that raises, as generation_diagram does on a broken table,
    # is reported as an error, and the other checks still run
    def broken(*args):
        raise RuntimeError("no interpolating path")

    monkeypatch.setattr(cli, "generate", broken)
    report = run_verification([(4, 3)], trials=2)
    errors = [c for c in report["checks"] if c["status"] != "pass"]
    assert errors == [
        {"name": "substitution-conjugacy", "status": "error",
         "error": "RuntimeError: no interpolating path"},
        {"name": "generation-inverse", "surface": [4, 3], "status": "error",
         "error": "RuntimeError: no interpolating path"}]
    assert len(report["checks"]) == 12 and report["status"] == "fail"
    capsys.readouterr()
    assert main(["verify", "-m", "4", "-n", "3", "--trials", "2"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["status"] == "fail"
    assert "Traceback" not in err


@pytest.mark.parametrize("args", [
    ("trace", "-m", "4", "-n", "3", "--theta", "0.35", "--crossings", "5"),
    ("verify", "-m", "4", "-n", "3", "--trials", "1"),
], ids=["trace", "verify"])
def test_an_out_directory_that_cannot_be_made_is_a_usage_error(args, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    r = run_cli(*args, "--out", str(blocker / "out"))
    assert r.returncode == 2
    assert r.stderr.startswith("error: ")
    assert "Not a directory" in r.stderr
    assert len(r.stderr.strip().splitlines()) == 1


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


def _checks_without_a_row(names):
    """The names of names that no row of README's "What is checked" table
    gives in backquotes."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## What is checked\n", 1)[1].split("\n## ", 1)[0]
    named = {name for line in section.splitlines() if line.startswith("| ")
             for name in re.findall(r"`([^`]+)`", line)}
    return [name for name in names if name not in named]


def test_every_verify_check_has_a_row_in_what_is_checked():
    # a new criterion cannot land without saying which claim it checks
    report = run_verification([(4, 3)], trials=1)
    names = [c["name"] for c in report["checks"]]
    assert len(names) == 12 and _checks_without_a_row(names) == []
    assert _checks_without_a_row(names + ["unlisted-check"]) == ["unlisted-check"]
