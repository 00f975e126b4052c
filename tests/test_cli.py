"""Exit codes and output shapes of the command-line front end."""

import json

import pytest

from polyflag.cli import main, build_parser, ENV_MAX_COSETS
from polyflag.corpus import entry_text


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


def test_env_default_in_parser(monkeypatch):
    monkeypatch.setenv(ENV_MAX_COSETS, "12345")
    args = build_parser().parse_args(["verify", "props"])
    assert args.max_cosets == 12345


def test_bad_env_coset_cap_is_an_error(monkeypatch, capsys):
    monkeypatch.setenv(ENV_MAX_COSETS, "abc")
    code, out, err = run(capsys, "verify", "table3", "--rank", "3")
    assert code == 1
    assert err.startswith("error:")
    assert ENV_MAX_COSETS in err and "'abc'" in err
    assert "Traceback" not in err
    assert out == ""


def test_construct_coxeter(capsys):
    code, out, _ = run(capsys, "construct", "coxeter", "3", "3")
    assert code == 0
    assert "order 24 (no closed form)" in out


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


def test_construct_amalgam_needs_two_sections(capsys):
    code, _, err = run(capsys, "construct", "amalgam", "coxeter:4,3")
    assert code == 1
    assert "two section specs" in err


def test_construct_named(capsys):
    code, out, _ = run(capsys, "construct", "named", "4-cube")
    assert code == 0
    assert "expected 384, computed 384" in out


def test_construct_unknown_family(capsys):
    code, _, err = run(capsys, "construct", "dodecaplex")
    assert code == 1
    assert "error" in err


def test_construct_json_carries_family_and_certificate(capsys):
    code, out, _ = run(capsys, "--json", "construct", "hemi")
    assert code == 0
    payload = json.loads(out)
    assert payload["family"]["family"] == "hemi"
    assert payload["certificate"] == {
        "expected_order": 60, "order": 60, "ok": True}


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


def test_verify_bad_rank_range(capsys):
    code, _, err = run(capsys, "verify", "table2", "--rank", "x..y")
    assert code == 1
    assert "bad rank range" in err
