"""Exit codes and output shapes of the command-line front end."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from polyflag import (analysis, chiral, cli, constructions, coset_enum,
                      corpus)
from polyflag.cli import main, build_parser, ENV_MAX_COSETS
from polyflag.constructions import FAMILIES
from polyflag.corpus import entry_text, load_entry


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def corpus_file(tmp_path, name):
    path = tmp_path / f"{name}.txt"
    path.write_text(entry_text(name))
    return str(path)


def test_analyze_reflection_clean(tmp_path, capsys):
    code, out, _ = run(capsys, "analyze",
                       corpus_file(tmp_path, "coxeter-3-3"))
    assert code == 0
    assert "order 24" in out
    assert "string C-group: yes" in out
    assert "flat pairs none" in out


def test_analyze_collapsed_fails(tmp_path, capsys):
    code, out, _ = run(capsys, "analyze",
                       corpus_file(tmp_path, "p2-collapsed"))
    assert code == 1
    assert "string C-group: NO" in out
    assert "witness" in out


def test_analyze_rotation(tmp_path, capsys):
    code, out, _ = run(capsys, "analyze",
                       corpus_file(tmp_path, "rotation-44-1-2"))
    assert code == 0
    assert "chiral: yes" in out
    assert "flags 40" in out
    assert "smallest regular cover: 200 flags" in out
    assert "string C+-group: yes" in out


def test_analyze_rotation_failing_intersection_exits_1(tmp_path, capsys):
    # {4,4}_(1,1) as a rotation group: too small to be polytopal
    path = tmp_path / "torus-44-1-1.txt"
    path.write_text("rank 3\nkind rotation\nschlafli 4 4\n"
                    "rel s1 s2- s2- s1\n")
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 1
    assert "rotation group, order 8  flags 16" in out
    assert "string C+-group: NO" in out
    assert "  witness: <[0, 1]> meets <[1, 2]> too large" in out
    code, out, _ = run(capsys, "--json", "analyze", str(path))
    assert code == 1
    payload = json.loads(out)
    assert payload["c_group"] is False
    assert payload["c_group_witness"] == [[0, 1], [1, 2]]


@pytest.mark.parametrize(
    "name", ["rotation-338", "rotation-44-1-2", "rotation-44-2-0"])
def test_analyze_rotation_corpus_exits_0(tmp_path, capsys, name):
    code, out, _ = run(capsys, "--json", "analyze",
                       corpus_file(tmp_path, name))
    assert code == 0
    payload = json.loads(out)
    assert payload["c_group"] is True
    assert "c_group_witness" not in payload


def test_analyze_json_schema(tmp_path, capsys):
    code, out, _ = run(capsys, "--json", "analyze",
                       corpus_file(tmp_path, "coxeter-3-4"))
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload) == [
        "audit_violations", "c_group", "f_vector", "flag_count",
        "flat_pairs", "is_degenerate", "is_flat", "is_tight", "order",
        "rank", "schlafli"]
    assert payload["order"] == 48
    assert payload["f_vector"] == [6, 12, 8]


def test_analyze_rotation_json_schema(tmp_path, capsys):
    code, out, _ = run(capsys, "--json", "analyze",
                       corpus_file(tmp_path, "rotation-338"))
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 192
    assert payload["bound_check"]["ok"] is True
    assert payload["bound_check"]["minimum_flags"] == 384
    assert (payload["facet_kind"], payload["vf_kind"]) == ("regular",
                                                           "regular")


def test_analyze_rotation_names_the_bound_profile(tmp_path, capsys):
    code, out, _ = run(capsys, "analyze",
                       corpus_file(tmp_path, "rotation-338"))
    assert code == 0
    assert "flag bound for rank 4 regular/regular: 384 <= 384: ok" in out


@pytest.mark.parametrize("text", [
    # rank 2: no sections, and a polygon is never chiral
    "rank 2\nkind rotation\nschlafli 5\n",
    # the 5-simplex's rotations: regular, with regular sections
    "rank 5\nkind rotation\nschlafli 3 3 3 3\n",
    # {{4,4}_(2,0),{4,3}}: flat regular facets, but not chiral
    "rank 4\nkind rotation\nschlafli 4 4 3\nrel s1 s2- s1 s2-\n",
])
def test_analyze_regular_rotation_groups_exit_0(tmp_path, capsys, text):
    path = tmp_path / "rotation.txt"
    path.write_text(text)
    code, out, _ = run(capsys, "--json", "analyze", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["is_chiral"] is False
    assert payload["bound_check"] is None
    assert payload["audit_violations"] == []


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/file.txt")
    assert code == 1
    assert "error" in err


def test_analyze_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("rank 3\nkind reflection\nrel r7\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 3
    assert "parse error" in err


@pytest.mark.parametrize("line, fragment", [
    # the exponent's digits pass Python's int-string limit
    ("rel r0^" + "9" * 5000, "Exceeds the limit"),
    ("rel r0^0", "exponent zero (position 2)"),
    ("rel (r0 r1", "unclosed parenthesis (position 6)"),
    ("central r0 r0-", "central word reduces to the empty word"),
], ids=["long-exponent", "exponent-zero", "unclosed", "empty-central"])
def test_analyze_word_errors_name_their_line(tmp_path, capsys, line,
                                             fragment):
    # words are parsed after the directives, but under the same
    # per-line error wrapping
    path = tmp_path / "bad.txt"
    path.write_text(f"rank 3\nkind reflection\nschlafli 3 3\n{line}\n")
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("parse error: line 4: ")
    assert fragment in err
    assert "position -1" not in err


def nested_file(tmp_path, depth):
    """[3,3] with a redundant relator inside ``depth`` parentheses."""
    path = tmp_path / f"nested-{depth}.txt"
    path.write_text("rank 3\nkind reflection\nschlafli 3 3\n"
                    f"rel {'(' * depth}r0 r1{')' * depth}^3\n")
    return str(path)


@pytest.mark.parametrize("depth, code", [(100, 0), (101, 3), (5000, 3)])
def test_analyze_nesting_bound_exits_without_traceback(tmp_path, depth,
                                                       code):
    # the word parser recurses once per bracket, so a deep word is
    # refused as input instead of overflowing the stack; run in a fresh
    # interpreter so that stderr is exactly what a user sees
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-m", "polyflag", "analyze",
         nested_file(tmp_path, depth)],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == code
    assert "Traceback" not in done.stderr
    if code == 3:
        assert done.stdout == ""
        assert done.stderr.startswith("parse error: line 4: ")
        assert "nested deeper than 100" in done.stderr


def test_analyze_non_utf8_input_exits_3(tmp_path, capsys):
    path = tmp_path / "bytes.txt"
    path.write_bytes(b"rank 3\nkind reflection\nrel r0 \xff\xfe\n")
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (3, "")
    assert err == "parse error: not UTF-8: byte 0xff at offset 30\n"
    # a file that cannot be read at all stays an OSError, exit 1
    code, _, err = run(capsys, "analyze", str(tmp_path / "missing.txt"))
    assert code == 1 and err.startswith("error: ")


def test_analyze_coset_limit_flag(tmp_path, capsys):
    code, _, err = run(capsys, "--max-cosets", "100", "analyze",
                       corpus_file(tmp_path, "cube-5"))
    assert code == 2
    assert "enumeration limit" in err


def test_analyze_coset_limit_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(ENV_MAX_COSETS, "100")
    code, _, err = run(capsys, "analyze", corpus_file(tmp_path, "cube-5"))
    assert code == 2
    assert "enumeration limit" in err


def coxeter_file(tmp_path, *periods):
    path = tmp_path / "coxeter.txt"
    path.write_text(f"rank {len(periods) + 1}\nkind reflection\n"
                    f"schlafli {' '.join(map(str, periods))}\n")
    return str(path)


def test_analyze_infinite_coxeter_fails_fast(tmp_path, capsys):
    # at the default cap, enumerating [4,3,4] takes about 30 s
    path = coxeter_file(tmp_path, 4, 3, 4)
    start = time.perf_counter()
    code, _, err = run(capsys, "analyze", path)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert err.startswith("enumeration limit: string Coxeter group [4,3,4]"
                          " is infinite")


@pytest.mark.parametrize("text", [
    "rank 3\nkind reflection\nrel r0^1000000000\n",
    "rank 3\nkind reflection\nrel " + "r0^1000000 " * 5 + "\n",
    "rank 3\nkind reflection\nrel " + "(r0 r1 r0-)^333333 " * 5 + "\n",
    "rank 3\nkind reflection\nschlafli 3 1000000000\n",
    "rank 100000000\nkind reflection\n",
    "rank 100000000\nkind reflection\ncentral r0\n",
])
def test_analyze_oversized_input_exits_3_fast(tmp_path, capsys, text):
    # a few bytes asking for a billion letters or 10^8 generators are
    # refused before anything is expanded
    path = tmp_path / "big.txt"
    path.write_text(text)
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err.startswith("parse error:") and "exceed the limit" in err


@pytest.mark.parametrize("argv", [
    ("coxeter", "3", "1000000000"),
    ("torus44", "1000000000", "0"),
    ("torus44", "1000000000", "1"),
])
def test_construct_oversized_parameters_exit_3_fast(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, "construct", *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err.startswith("parse error:") and "exceed the limit" in err


def test_analyze_coxeter_over_cap_names_its_order(tmp_path, capsys):
    path = coxeter_file(tmp_path, 3, 3, 5)
    code, _, err = run(capsys, "--max-cosets", "1000", "analyze", path)
    assert code == 2
    assert "has order 14400" in err and "limit 1000" in err


def test_construct_infinite_coxeter_exits_2(capsys):
    code, _, err = run(capsys, "construct", "coxeter", "4", "4")
    assert code == 2
    assert "[4,4] is infinite" in err


def test_internal_error_exits_1_without_traceback(tmp_path, capsys,
                                                  monkeypatch):
    monkeypatch.setattr(coset_enum, "_table_fault",
                        lambda *args: "forced fault")
    code, out, err = run(capsys, "analyze", corpus_file(tmp_path, "cube-4"))
    assert code == 1
    assert out == ""
    assert err == "internal error: forced fault\n"


def test_short_flag_orbit_exits_1(tmp_path, capsys, monkeypatch):
    # the closed form claims [3,3] has order 48; the orbit has 24 points
    monkeypatch.setattr(coset_enum, "coxeter_order", lambda symbol: 48)
    code, out, err = run(capsys, "analyze", corpus_file(tmp_path,
                                                        "coxeter-3-3"))
    assert code == 1
    assert out == ""
    assert err.startswith("internal error: ")
    assert "orbit has 24 points" in err


def test_env_coset_cap_read_on_every_call(tmp_path, capsys, monkeypatch):
    # the parser is built once; the cap in the environment is not
    path = corpus_file(tmp_path, "cube-4")
    monkeypatch.setenv(ENV_MAX_COSETS, "10")
    assert run(capsys, "analyze", path)[0] == 2
    monkeypatch.delenv(ENV_MAX_COSETS)
    assert run(capsys, "analyze", path)[0] == 0


@pytest.mark.parametrize("raw", [None, "12345", "abc"])
def test_parser_is_built_once_and_holds_no_cap(monkeypatch, raw):
    if raw is None:
        monkeypatch.delenv(ENV_MAX_COSETS, raising=False)
    else:
        monkeypatch.setenv(ENV_MAX_COSETS, raw)
    assert build_parser() is build_parser()
    assert build_parser().get_default("max_cosets") is None


def test_coset_cap_flag_wins_over_a_bad_env(monkeypatch, capsys):
    monkeypatch.setenv(ENV_MAX_COSETS, "abc")
    code, out, err = run(capsys, "--max-cosets", "100", "construct",
                         "coxeter", "3", "3")
    assert (code, err) == (0, "")
    assert "order certificate: expected 24, computed 24, ok" in out


@pytest.mark.parametrize("argv", [("--help",), ("construct", "--help")],
                         ids=["top", "construct"])
def test_help_ignores_a_bad_env_coset_cap(monkeypatch, capsys, argv):
    monkeypatch.setenv(ENV_MAX_COSETS, "abc")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: polyflag")


def test_argument_error_before_coset_cap_error(capsys):
    code, out, err = run(capsys, "--max-cosets", "abc", "--bogus",
                         "verify", "table3")
    assert (code, out) == (1, "")
    assert err == "error: unrecognized arguments: --bogus\n"


def test_repeated_coset_cap_flag_keeps_the_last(capsys):
    code, _, err = run(capsys, "--max-cosets", "-5", "--max-cosets", "47",
                       "construct", "coxeter", "4", "3")
    assert code == 2
    assert err == ("enumeration limit: string Coxeter group [4,3] has"
                   " order 48, over the coset limit 47\n")


def test_bad_env_coset_cap_is_an_error(monkeypatch, capsys):
    monkeypatch.setenv(ENV_MAX_COSETS, "abc")
    code, out, err = run(capsys, "verify", "table3", "--rank", "3")
    assert code == 1
    assert err.startswith("error:")
    assert ENV_MAX_COSETS in err and "'abc'" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("argv, value", [
    (("--max-cosets", "-5", "construct", "lambda", "6", "3"), -5),
    (("--max-cosets=-1", "construct", "hemi"), -1),
    (("--max-cosets", "0", "construct", "coxeter", "3", "3"), 0),
], ids=["flag-negative", "flag-attached", "flag-zero"])
def test_coset_cap_below_one_is_an_error(capsys, argv, value):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: --max-cosets must be at least 1, got {value}\n"


@pytest.mark.parametrize("raw", ["-1", "0"])
def test_env_coset_cap_below_one_is_an_error(capsys, monkeypatch, raw):
    monkeypatch.setenv(ENV_MAX_COSETS, raw)
    code, out, err = run(capsys, "construct", "hemi")
    assert (code, out) == (1, "")
    assert err == f"error: {ENV_MAX_COSETS} must be at least 1, got {raw}\n"


def test_coset_cap_of_one_is_a_cap(capsys):
    code, _, err = run(capsys, "--max-cosets", "1", "construct", "lambda",
                       "6", "3")
    assert code == 2
    assert err.startswith("enumeration limit: coset limit 1 exceeded")


def test_coset_cap_of_the_group_order_builds_it(capsys):
    code, out, _ = run(capsys, "--max-cosets", "48", "construct", "coxeter",
                       "4", "3")
    assert code == 0
    assert "order certificate: expected 48, computed 48, ok" in out


def test_bad_coset_cap_flag_names_the_flag(capsys):
    code, out, err = run(capsys, "--max-cosets", "abc", "verify", "table3")
    assert (code, out) == (1, "")
    assert err == "error: --max-cosets is not an integer: 'abc'\n"


def test_repeated_directive_exits_3(tmp_path, capsys):
    path = tmp_path / "twice.txt"
    path.write_text("rank 3\nkind rotation\nkind reflection\n"
                    "schlafli 3 3\n")
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (3, "")
    assert err == ("parse error: line 3: repeated directive 'kind'"
                   " (first on line 2)\n")


@pytest.mark.parametrize("argv", [
    ("--max-cosets", "abc", "verify", "table3"),
    ("--bogus", "verify", "table3"),
    (),
], ids=["bad-int", "unknown-option", "no-command"])
def test_bad_arguments_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert out == ""


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    assert "usage: polyflag" in capsys.readouterr().out


def test_audit_violation_is_a_text_line_and_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(analysis, "audit_counting_propositions",
                        lambda report: ["forced_violation"])
    code, out, _ = run(capsys, "construct", "coxeter", "3", "3")
    assert code == 1
    assert out.endswith("\nAUDIT: forced_violation\n")


def test_construct_coxeter(capsys):
    code, out, _ = run(capsys, "construct", "coxeter", "3", "3")
    assert code == 0
    assert "order certificate: expected 24, computed 24, ok" in out


def test_construct_coxeter_rank_one(capsys):
    # no periods: a single mirror, whose only relator is r0^2
    code, out, _ = run(capsys, "--max-cosets", "2000", "construct", "coxeter")
    assert code == 0
    assert "order certificate: expected 2, computed 2, ok" in out


def test_construct_simplex_extension_certificate(capsys):
    code, out, _ = run(capsys, "construct", "lambda", "6", "3", "3")
    assert code == 0
    assert "order certificate: expected 240, computed 240, ok" in out


def test_construct_regular_torus(capsys):
    code, out, _ = run(capsys, "construct", "torus44", "2", "0")
    assert code == 0
    assert "order certificate: expected 32, computed 32, ok" in out
    assert "string C-group: yes" in out


def test_construct_chiral_torus_routes_to_rotation(capsys):
    code, out, _ = run(capsys, "construct", "torus44", "1", "2")
    assert code == 0
    assert "order certificate: expected 20, computed 20, ok" in out
    assert "chiral: yes" in out


def test_construct_amalgam(capsys):
    code, out, _ = run(capsys, "construct", "amalgam",
                       "coxeter:4,3", "torus36:1,1")
    assert code == 0
    assert "order 288 (no closed form)" in out
    assert "flat pairs (0,3) (1,3)" in out


@pytest.mark.parametrize("facet, vertex_figure, symbol", [
    ("coxeter:4,3", "coxeter:3,4", "[4,3,4]"),
    ("coxeter:3,5", "coxeter:5,3", "[3,5,3]"),
])
def test_construct_infinite_coxeter_amalgam_fails_fast(capsys, facet,
                                                       vertex_figure, symbol):
    # the amalgam is the bare Coxeter group of its symbol, refused like
    # construct coxeter before anything is enumerated
    start = time.perf_counter()
    code, out, err = run(capsys, "construct", "amalgam", facet, vertex_figure)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith(
        f"enumeration limit: string Coxeter group {symbol} is infinite")


def test_construct_torus_certificate_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(chiral, "torus_order", lambda kind, b, c: 2)
    code, out, err = run(capsys, "construct", "torus44", "1", "2")
    assert (code, out) == (1, "")
    assert err == "error: order: expected 1, got 20\n"


def test_construct_amalgam_needs_two_sections(capsys):
    code, _, err = run(capsys, "construct", "amalgam", "coxeter:4,3")
    assert code == 1
    assert "amalgam takes 2 section(s), got 1" in err


def test_construct_named(capsys):
    code, out, _ = run(capsys, "construct", "named", "4-cube")
    assert code == 0
    assert "expected 384, computed 384" in out


def test_construct_unknown_family(capsys):
    code, _, err = run(capsys, "construct", "dodecaplex")
    assert code == 1
    assert "error" in err


def test_construct_unknown_section_family(capsys):
    code, out, err = run(capsys, "construct", "amalgam", "bogus:1",
                         "coxeter:3,3")
    assert (code, out) == (1, "")
    assert err == "error: unknown family 'bogus'\n"


def test_construct_help_lists_every_family(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "family " + " | ".join(FAMILIES) + " params" in out


def test_construct_json_carries_family_and_certificate(capsys):
    code, out, _ = run(capsys, "--json", "construct", "hemi")
    assert code == 0
    payload = json.loads(out)
    assert payload["family"]["family"] == "hemi"
    assert payload["certificate"] == {
        "expected_order": 60, "order": 60, "ok": True}


@pytest.mark.parametrize("argv, family", [
    (("torus44", "a", "b"), "torus44"),
    (("torus44", "inf", "2"), "torus44"),
    (("coxeter", "4", "x"), "coxeter"),
    (("torus44", "1"), "torus44"),
    (("hemi", "3"), "hemi"),
])
def test_construct_bad_parameters_are_errors(capsys, argv, family):
    code, out, err = run(capsys, "construct", *argv)
    assert code == 1
    assert err.startswith("error:")
    assert family in err
    assert "Traceback" not in err
    assert out == ""


# the closed form each route's builder certifies against
_CLOSED_FORMS = {("named", "4-cube"): (constructions, "coxeter_order"),
                 ("torus44", "1", "2"): (chiral, "torus_order")}


@pytest.mark.parametrize("argv", list(_CLOSED_FORMS))
def test_construct_certificate_mismatch(capsys, monkeypatch, argv):
    # both routes check their closed form in the builder; a wrong one
    # stops the command before anything is reported
    module, name = _CLOSED_FORMS[argv]
    monkeypatch.setattr(module, name, lambda *args: 2 * 3 * 5 * 7)
    for flags in ((), ("--json",)):
        code, out, err = run(capsys, *flags, "construct", *argv)
        assert code == 1
        assert err.startswith("error:") and "expected" in err
        assert out == ""


def test_verify_table2(capsys):
    code, out, _ = run(capsys, "verify", "table2")
    assert code == 0
    assert "table2: 16 checks, 0 failures" in out


def test_verify_table2_single_rank(capsys):
    code, out, _ = run(capsys, "verify", "table2", "--rank", "3")
    assert code == 0
    assert "table2: 4 checks, 0 failures" in out


def test_verify_table3(capsys):
    code, out, _ = run(capsys, "verify", "table3")
    assert code == 0
    assert "table3: 27 checks, 0 failures" in out


def test_verify_table3_rank4(capsys):
    code, out, _ = run(capsys, "verify", "table3", "--rank", "4")
    assert code == 0
    assert "table3: 4 checks, 0 failures" in out


@pytest.mark.parametrize("rank", ["20", "17..20"])
def test_verify_table3_past_the_chain_selects_nothing(capsys, rank):
    code, out, err = run(capsys, "verify", "table3", "--rank", rank)
    assert code == 1
    assert "table3: 0 checks, 0 failures" in out
    assert f"error: table3 --rank {rank} selects no checks" in err


def test_verify_table3_chain_follows_the_rank_range(capsys):
    code, out, _ = run(capsys, "verify", "table3", "--rank", "8")
    assert code == 0
    assert "table3 bound ordering cc < cr < rr for ranks 8..8: ok" in out
    assert "table3: 4 checks, 0 failures" in out
    code, out, _ = run(capsys, "verify", "table3", "--rank", "12..30")
    assert code == 0
    assert "for ranks 12..16: ok" in out
    assert "table3: 5 checks, 0 failures" in out
    code, out, _ = run(capsys, "verify", "table3", "--rank", "3..7")
    assert "bound ordering" not in out


def test_verify_table3_default_range_is_3_to_16(capsys):
    default = run(capsys, "verify", "table3")
    assert default == run(capsys, "verify", "table3", "--rank", "3..16")
    assert "for ranks 8..16: ok" in default[1]


def test_verify_props(capsys):
    code, out, _ = run(capsys, "verify", "props")
    assert code == 0
    assert "props: 22 checks, 0 failures" in out


def test_verify_props_json(capsys):
    code, out, _ = run(capsys, "--json", "verify", "props")
    assert code == 0
    payload = json.loads(out[out.find("{"):])
    assert payload["failures"] == 0
    assert len(payload["results"]) == 22


def test_verify_props_checks_the_rotation_verdict(tmp_path, capsys,
                                                  monkeypatch):
    # {4,4}_(1,1) as a rotation group fails the intersection condition;
    # a sidecar that claims otherwise must not pass
    (tmp_path / "rotation-44-1-1.txt").write_text(
        "rank 3\nkind rotation\nschlafli 4 4\nrel s1 s2- s2- s1\n")
    (tmp_path / "rotation-44-1-1.json").write_text(json.dumps(
        {"kind": "rotation", "c_group": True, "facet_kind": "regular",
         "vf_kind": "regular"}))
    monkeypatch.setattr(corpus, "_root", lambda: tmp_path)
    code, out, _ = run(capsys, "--json", "verify", "props")
    assert code == 1
    assert ("props rotation-44-1-1: VIOLATIONS sidecar_c_group_disagrees"
            in out)
    payload = json.loads(out[out.find("{"):])
    assert payload["failures"] == 1
    assert payload["results"] == [{
        "entry": "rotation-44-1-1",
        "violations": ["sidecar_c_group_disagrees"], "ok": False}]


def test_verify_props_checks_the_rotation_section_kinds(tmp_path, capsys,
                                                        monkeypatch):
    (tmp_path / "rotation-44-1-2.txt").write_text(
        entry_text("rotation-44-1-2"))
    (tmp_path / "rotation-44-1-2.json").write_text(json.dumps(
        {"kind": "rotation", "c_group": True, "facet_kind": "chiral",
         "vf_kind": "regular"}))
    monkeypatch.setattr(corpus, "_root", lambda: tmp_path)
    code, out, _ = run(capsys, "verify", "props")
    assert code == 1
    assert ("props rotation-44-1-2: VIOLATIONS"
            " sidecar_facet_kind_disagrees") in out


def test_verify_props_checks_the_exhaustive_oracle(tmp_path, capsys,
                                                   monkeypatch):
    # an oracle that finds a witness the verdict missed is a violation
    (tmp_path / "coxeter-3-3.txt").write_text(entry_text("coxeter-3-3"))
    (tmp_path / "coxeter-3-3.json").write_text(
        json.dumps(load_entry("coxeter-3-3")[1]))
    monkeypatch.setattr(corpus, "_root", lambda: tmp_path)
    witness = SimpleNamespace(rank_sets=lambda: ((0,), (1,)))
    monkeypatch.setattr(cli, "intersection_condition_exhaustive",
                        lambda group: SimpleNamespace(witness=witness))
    code, out, _ = run(capsys, "verify", "props")
    assert code == 1
    assert out == ("props coxeter-3-3: VIOLATIONS exhaustive_oracle_disagrees"
                   "\nprops: 1 checks, 1 failures\n")


def test_verify_bad_rank_range(capsys):
    code, _, err = run(capsys, "verify", "table2", "--rank", "x..y")
    assert code == 1
    assert "bad rank range" in err


@pytest.mark.parametrize("suite", ["table2", "table3", "props"])
def test_verify_reversed_rank_range_fails(capsys, suite):
    code, out, err = run(capsys, "verify", suite, "--rank", "5..3")
    assert code == 1
    assert "reversed rank range '5..3'" in err
    assert "checks" not in out


def test_verify_selecting_nothing_fails(capsys):
    code, out, err = run(capsys, "verify", "table3", "--rank", "2")
    assert code == 1
    assert "table3: 0 checks, 0 failures" in out
    assert "error: table3 --rank 2 selects no checks" in err


def test_verify_props_selecting_nothing_fails(capsys):
    code, out, err = run(capsys, "verify", "props", "--rank", "9")
    assert code == 1
    assert "props: 0 checks, 0 failures" in out
    assert "error: props --rank 9 selects no checks" in err


def test_verify_props_rank_range_keeps_its_entries(capsys):
    code, out, _ = run(capsys, "--json", "verify", "props", "--rank", "4..5")
    assert code == 0
    entries = [r["entry"] for r in json.loads(out[out.find("{"):])["results"]]
    assert len(entries) == 10
    assert all(4 <= load_entry(name)[0].rank <= 5 for name in entries)


def test_construct_torus_over_the_cap_exits_2(capsys):
    code, _, err = run(capsys, "--max-cosets", "40",
                       "construct", "torus44", "3", "5")
    assert code == 2
    assert "enumeration limit:" in err
