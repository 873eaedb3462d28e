import functools
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import itlc
from itlc.cli import run
from itlc.formula import DIAMOND_FRAGMENT, Modality, format_formula, random_formula

FIXTURE = "fixtures/minimal5.json"
FLAGSHIP = "A(~p | <>p) -> (~<>p | <>p)"


def test_decide_valid(capsys):
    assert run(["decide", "p -> p"]) == 0
    assert capsys.readouterr().out.strip() == "VALID"


def test_decide_flagship_json(capsys):
    assert run(["decide", FLAGSHIP, "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert itlc.verify_certificate(data, itlc.parse(FLAGSHIP))


def test_decide_fragment_violation(capsys):
    assert run(["decide", "[]p -> p"]) == 2


def test_decide_parse_error(capsys):
    assert run(["decide", "p ->"]) == 2


def test_check_fixture_reports_failing_point(capsys):
    code = run(["check", FIXTURE, "(X p -> X q) -> X(p -> q)"])
    assert code == 1
    assert "v" in capsys.readouterr().out


def test_check_holds(capsys):
    assert run(["check", FIXTURE, "<>p"]) == 0
    assert "holds" in capsys.readouterr().out


def test_valid_subcommand(capsys):
    assert run(["valid", FIXTURE, "E p -> <>p"]) == 0
    assert run(["valid", FIXTURE, "p | ~p"]) == 1


def test_countermodel_subcommand(capsys):
    assert run(["countermodel", "X p -> p", "--max-points", "2"]) == 1
    assert run(["countermodel", "p -> p", "--max-points", "2"]) == 0


def test_countermodel_honours_max_valuations(capsys):
    assert run(["countermodel", "p & q & r -> p", "--max-valuations", "3"]) == 3
    assert "valuations exceed the cap" in capsys.readouterr().err


_COMMAND_LINES = {
    "decide": ["decide", "X p -> p"],
    "extract": ["extract", FIXTURE, "(X p -> X q) -> X(p -> q)"],
    "enumerate": ["enumerate", "--sigma", "<>p"],
    "valid": ["valid", FIXTURE, "p & q -> p"],
    "countermodel": ["countermodel", "p & q & r -> p"],
}


@pytest.mark.parametrize("command, flag", [
    *[(c, f) for c in ("decide", "extract", "enumerate")
      for f in ("--max-valuations", "--max-systems")],
    ("valid", "--max-moments"), ("valid", "--max-systems"), ("countermodel", "--max-moments"),
])
def test_cap_flags_a_command_ignores_are_usage_errors(command, flag, capsys):
    assert run([*_COMMAND_LINES[command], flag, "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and flag in captured.err


@pytest.mark.parametrize("command, flag, value, uncapped", [
    ("decide", "--max-moments", "1", 1),
    ("extract", "--max-moments", "1", 1),
    ("enumerate", "--max-moments", "2", 0),
    ("valid", "--max-valuations", "1", 0),
    ("countermodel", "--max-valuations", "3", 0),
    ("countermodel", "--max-systems", "5", 0),
])
def test_each_cap_flag_a_command_takes_changes_its_outcome(command, flag, value, uncapped,
                                                             capsys):
    assert run(_COMMAND_LINES[command]) == uncapped
    assert run([*_COMMAND_LINES[command], flag, value]) == 3


def test_analyze_subcommand(capsys):
    assert run(["analyze", FIXTURE, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"minimal": True, "recurrent": True, "connected": False}


def test_extract_subcommand(capsys):
    code = run(["extract", FIXTURE, "(X p -> X q) -> X(p -> q)"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert "(Xp -> Xq) -> X(p -> q)" in payload["falsified"]


@pytest.mark.parametrize("flags, reason", [
    (["--timeout", "0"], "moment generation passed the 0.0 s timeout"),
    (["--max-moments", "1"], "moment cap reached"),
])
def test_extract_names_the_limit_that_tripped(flags, reason, capsys):
    assert run(["extract", FIXTURE, "X p -> p", *flags]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"resource limit: {reason}\n"


def test_extract_prints_json_unless_asked_for_dot(capsys):
    argv = _COMMAND_LINES["extract"]
    assert run([*argv, "--format", "text"]) == 2
    assert "--format" in capsys.readouterr().err
    assert run(argv) == 1
    default = capsys.readouterr().out
    assert run([*argv, "--format", "json"]) == 1
    assert capsys.readouterr().out == default


def test_verify_subcommand(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert run(["decide", FLAGSHIP, "--out", str(cert_path)]) == 1
    capsys.readouterr()
    assert run(["verify", str(cert_path), FLAGSHIP]) == 0
    data = json.loads(cert_path.read_text())
    data["s_edges"] = []
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(data))
    assert run(["verify", str(bad_path), FLAGSHIP]) == 1
    assert "INVALID" in capsys.readouterr().out


def test_one_process_answers_like_fresh_ones(tmp_path):
    # the parser is built once per process, so a usage error must leave
    # nothing behind that changes the commands after it
    cert_path = tmp_path / "cert.json"
    commands = [["decide"],
                ["decide", FLAGSHIP, "--format", "json", "--out", str(cert_path)],
                ["verify", str(cert_path), FLAGSHIP]]
    env = dict(os.environ, PYTHONPATH=str(Path(itlc.__file__).resolve().parents[1]))
    fresh = [subprocess.run([sys.executable, "-m", "itlc.cli", *argv], env=env,
                            capture_output=True) for argv in commands]
    for argv, proc in zip(commands, fresh):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
        assert (code, out.getvalue().encode(), err.getvalue().encode()) == (
            proc.returncode, proc.stdout, proc.stderr)
    assert [proc.returncode for proc in fresh] == [2, 1, 0]


def test_enumerate_subcommand(capsys):
    assert run(["enumerate", "--sigma", "<>p"]) == 0
    assert capsys.readouterr().out == (
        "context: 2 formulas, 3 types\n"
        "height 1: 3 irreducible moments\n"
        "height 2: 4 irreducible moments\n"
        "height 3: 1 irreducible moments\n"
        "total: 8 (complete)\n")


def test_enumerate_incomplete_is_resource_limit(capsys):
    # the layer a cap cuts short still gets its line, here the first and the third
    assert run(["enumerate", "--sigma", "<>p", "--max-moments", "2"]) == 3
    assert capsys.readouterr().out == (
        "context: 2 formulas, 3 types\n"
        "height 1: 0 irreducible moments\n"
        "total: 0 (INCOMPLETE)\n")
    assert run(["enumerate", "--sigma", "(p -> q) | (q -> p)", "--max-moments", "2000"]) == 3
    assert capsys.readouterr().out == (
        "context: 5 formulas, 7 types\n"
        "height 1: 4 irreducible moments\n"
        "height 2: 15 irreducible moments\n"
        "height 3: 0 irreducible moments\n"
        "total: 19 (INCOMPLETE)\n")


def test_random_system_deterministic_bytes(capsys):
    assert run(["random-system", "4", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert run(["random-system", "4", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("argv", [
    ["random-system", "0"],
    ["random-system", "-3"],
    ["countermodel", "X p -> p", "--max-points", "0"],
    ["countermodel", "X p -> p", "--max-points", "-1"],
    # cap flags parse through Caps, which refuses a count below 1
    ["countermodel", "p -> p", "--max-systems", "-1"],
    ["countermodel", "p -> p", "--max-valuations", "0"],
    ["decide", "p -> p", "--max-moments", "-5"],
    ["extract", FIXTURE, "p", "--max-moments", "0"],
    ["enumerate", "--sigma", "p", "--max-moments", "0"],
    ["valid", FIXTURE, "p", "--max-valuations", "0"],
    ["decide", "p -> p", "--jobs", "-3"],
    ["countermodel", "p -> p", "--jobs", "0"],
])
def test_counts_below_one_are_usage_errors(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be at least 1" in captured.err


def test_schema_error_names_pair(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "elements": ["a", "b"],
        "order": [["a", "b"], ["b", "a"]],
        "map": {"a": "a", "b": "b"},
    }))
    assert run(["analyze", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "antisymmetry" in err and "a" in err and "b" in err


def test_missing_file(capsys):
    assert run(["analyze", "no-such-file.json"]) == 2


def test_fixture_loads_and_validates():
    X, val = itlc.load_system(FIXTURE)
    assert len(X) == 5
    assert val["p"] == frozenset({"y", "z"})
    assert itlc.analyze(X).minimal


def test_dot_output(capsys):
    assert run(["decide", FLAGSHIP, "--format", "dot"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("digraph")


def test_decide_capped_search_is_resource_limit(capsys):
    # a single retained moment cannot witness falsifiability of Xp -> p,
    # and an incomplete enumeration must never upgrade to VALID
    assert run(["decide", "X p -> p", "--max-moments", "1"]) == 3
    assert "RESOURCE" in capsys.readouterr().out


def test_decide_resource_limit_json(capsys):
    assert run(["decide", "X p -> p", "--max-moments", "1", "--format", "json"]) == 3
    data = json.loads(capsys.readouterr().out)
    assert data == {"verdict": "RESOURCE_LIMIT", "complete": False}


def test_decide_resource_limit_dot(capsys):
    assert run(["decide", "X p -> p", "--max-moments", "1", "--format", "dot"]) == 3
    assert capsys.readouterr().out == 'digraph verdict {\n  label="RESOURCE_LIMIT";\n}\n'


def test_decide_valid_dot(capsys):
    assert run(["decide", "p -> p", "--format", "dot"]) == 0
    assert capsys.readouterr().out == 'digraph verdict {\n  label="VALID";\n}\n'


def test_decide_deep_nesting_is_parse_error(capsys):
    for text in ("X" * 3000 + "p", "(" * 3000 + "p" + ")" * 3000,
                 " -> ".join(["p"] * 3000), " & ".join(["p"] * 3000)):
        assert run(["decide", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: formula nested deeper than")


def test_certificate_and_extract_share_quasimodel_keys(capsys):
    shared = ["sigma", "profile", "worlds", "order", "s_edges"]
    assert run(["decide", FLAGSHIP, "--format", "json"]) == 1
    cert = json.loads(capsys.readouterr().out)
    assert list(cert) == shared + ["witness", "target", "lassos"]
    assert run(["extract", FIXTURE, "(X p -> X q) -> X(p -> q)", "--format", "json"]) == 1
    extracted = json.loads(capsys.readouterr().out)
    assert list(extracted) == shared + ["falsified"]


def test_countermodel_honours_timeout(capsys):
    # the 4-point search takes about a second without the timeout
    assert run(["countermodel", FLAGSHIP, "--max-points", "4", "--timeout", "0.01"]) == 3
    assert "timeout" in capsys.readouterr().err


def test_valid_honours_timeout(capsys):
    # 6 atoms over the fixture's 12 opens, 2,985,984 valuations: over a tenth
    # of a second without the timeout, in blocks of 144 valuations
    assert run(["valid", FIXTURE, "p1 & p2 & p3 & p4 & p5 & p6 -> p1",
                "--max-valuations", "3000000", "--timeout", "0.01"]) == 3
    assert "timeout" in capsys.readouterr().err


def test_a_nan_timeout_is_a_usage_error(capsys):
    # a NaN deadline never trips: decide would run this for about a second
    # instead of refusing the flag
    wide = " | ".join(f"p{i}" for i in range(1, 12)) + " -> (X p1 -> p1)"
    for argv in (["decide", wide], ["countermodel", "p -> p"], ["enumerate", "--sigma", "p"]):
        assert run(argv + ["--timeout", "nan"]) == 2
        assert "--timeout" in capsys.readouterr().err


def test_countermodel_max_systems_trips_during_enumeration(capsys):
    # 9,740 systems have at most 4 points, so the cap trips early among
    # the 5-point ones, before they are all built
    start = time.monotonic()
    assert run(["countermodel", "p -> p", "--max-points", "5", "--max-systems", "9800"]) == 3
    assert time.monotonic() - start < 20
    assert "9800 systems" in capsys.readouterr().err


def test_decide_timeout_covers_type_enumeration(capsys):
    # 28 subformulas and no one-world countermodel, since X p1 -> p1 holds
    # wherever a world is its own successor: after the one-world search and
    # the label viability of 20,482 types, which takes most of the 0.5 s,
    # the timeout trips in the search that follows, which files each size
    # layer under every type and checks the deadline per type (the deadline
    # test in test_labels trips inside type enumeration itself)
    wide = " | ".join(f"p{i}" for i in range(1, 14)) + " -> (X p1 -> p1)"
    start = time.monotonic()
    assert run(["decide", wide, "--timeout", "0.5", "--format", "json"]) == 3
    assert time.monotonic() - start < 1.5
    assert json.loads(capsys.readouterr().out) == {"verdict": "RESOURCE_LIMIT",
                                                   "complete": False}


_FUZZ_TOKENS = ("p", "q", "r", "~", "&", "|", "->", "<->", "X", "<>", "[]", "A", "E",
                "(", ")", "<", "-", "]", "?", "0")
_FUZZ_TIMEOUT = 0.5

_FORMULA_TEXTS = st.one_of(
    st.builds(lambda seed, depth, modalities: format_formula(
                  random_formula(random.Random(seed), depth, ("p", "q", "r"), modalities)),
              st.integers(0, 10**9), st.integers(1, 5),
              st.sampled_from([DIAMOND_FRAGMENT, DIAMOND_FRAGMENT, frozenset(Modality)])),
    st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=12).map(" ".join),
    st.text(max_size=16),
)


@settings(max_examples=30, deadline=None)
@given(_FORMULA_TEXTS)
def test_decide_fuzz_keeps_the_exit_code_contract(text):
    out, err = io.StringIO(), io.StringIO()
    start = time.monotonic()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(["decide", "--format", "json", "--timeout", str(_FUZZ_TIMEOUT),
                    "--max-moments", "2000", "--", text])
    assert time.monotonic() - start < _FUZZ_TIMEOUT + 10
    assert code in {0, 1, 2, 3}, err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error:")
    else:
        json.loads(out.getvalue())


def test_valid_on_a_wide_system_keeps_its_timeout(tmp_path, capsys):
    # 22 points: testing all 2^22 subsets for openness took about 9 s
    path = tmp_path / "wide.json"
    assert run(["random-system", "22", "--seed", "1", "--out", str(path)]) == 0
    start = time.monotonic()
    assert run(["valid", str(path), "E p -> <>p", "--timeout", "0.5"]) in {0, 1, 3}
    assert time.monotonic() - start < 2


def test_verify_reports_malformed_lassos(tmp_path, capsys):
    assert run(["decide", "X p -> p", "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    data["lassos"] = []
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    assert run(["verify", str(path), "X p -> p"]) == 1
    assert capsys.readouterr().out.startswith("certificate INVALID: malformed certificate: ")


_FILE_COMMANDS = (["check"], ["valid", "--timeout", "0.5"], ["analyze"],
                  ["extract", "--timeout", "0.5"], ["verify"])


def _run_on_file(command, path):
    """Exit code, stdout and stderr of one file command, run in-process."""
    name, *flags = command
    formula = [] if name == "analyze" else ["X p -> p"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run([name, str(path), *formula, *flags])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("text", [
    '{"elements": ["a"], "order": [], "ma', "[" * 1200 + "]" * 1200, "\xff",
], ids=["truncated", "nested", "not-utf8"])
def test_unreadable_files_are_usage_errors(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="latin-1")
    for command in _FILE_COMMANDS:
        code, out, err = _run_on_file(command, path)
        assert (code, out) == (2, ""), command
        assert err.startswith("error: ") and "not a JSON document" in err


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=10)


@functools.cache
def _valid_documents():
    """A system file and a certificate for X p -> p, as JSON values."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert run(["decide", "X p -> p", "--format", "json"]) == 1
    return json.loads(Path(FIXTURE).read_text()), json.loads(out.getvalue())


def _with_field(which, key, value):
    data = dict(_valid_documents()[which])
    data[sorted(data)[key % len(data)]] = value
    return json.dumps(data)


def _truncated(which, cut):
    text = json.dumps(_valid_documents()[which])
    return text[:cut % len(text)]


_HOSTILE_TEXTS = st.one_of(
    _JSON_VALUES.map(json.dumps),
    st.builds(_with_field, st.sampled_from([0, 1]), st.integers(0, 9), _JSON_VALUES),
    st.builds(_truncated, st.sampled_from([0, 1]), st.integers(0, 10**6)),
)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_HOSTILE_TEXTS)
def test_hostile_files_keep_the_exit_code_contract(tmp_path, text):
    path = tmp_path / "hostile.json"
    path.write_text(text)
    for command in _FILE_COMMANDS:
        code, out, err = _run_on_file(command, path)
        assert code in {0, 1, 2, 3}, (command, err)
        if code == 2:
            assert out == "" and err.startswith("error: "), (command, err)
