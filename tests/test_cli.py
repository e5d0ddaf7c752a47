import json

import pytest

from irrbase.cli import EXIT_GUARD, EXIT_INVALID, EXIT_OK, EXIT_VERIFY_FAIL, run


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_realize_spec_only(capsys):
    code, out, _ = run_cli(capsys, "realize", "--min", "3", "--max", "5")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["spec"]["family"] == "affine"
    assert data["spec"]["expected_lengths"] == [3, 4, 5]
    assert "lengths" not in data


def test_realize_instantiate_symmetric(capsys):
    code, out, _ = run_cli(capsys, "realize", "--min", "5", "--max", "5", "--instantiate")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["lengths"] == [5]
    assert data["group_order"] == "720"
    assert data["is_interval"] is True
    assert data["witnesses"]["5"] == [0, 1, 2, 3, 4]


def test_realize_instantiate_suzuki_extended(capsys):
    code, out, _ = run_cli(capsys, "realize", "--min", "2", "--max", "4", "--instantiate")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["lengths"] == [2, 3, 4]
    assert data["domain_size"] == 2080
    assert data["group_order"] == "87360"


def test_realize_guard_refusal_exit_code(capsys):
    code, out, _ = run_cli(capsys, "realize", "--min", "2", "--max", "9", "--instantiate")
    assert code == EXIT_GUARD
    data = json.loads(out)
    assert data["spec"]["family"] == "suzuki"
    assert "guard_refused" in data


def test_realize_malformed_guard_env(capsys, monkeypatch):
    monkeypatch.setenv("IRRBASE_MAX_POINTS", "abc")
    code, out, err = run_cli(capsys, "realize", "--min", "3", "--max", "3", "--instantiate")
    assert code == EXIT_INVALID
    assert out == ""
    assert "IRRBASE_MAX_POINTS" in err


def test_realize_invalid_interval(capsys):
    code, _, err = run_cli(capsys, "realize", "--min", "1", "--max", "3")
    assert code == EXIT_INVALID
    assert "error" in err


def test_realize_byte_stable(capsys):
    code1, out1, _ = run_cli(capsys, "realize", "--min", "4", "--max", "4", "--instantiate")
    code2, out2, _ = run_cli(capsys, "realize", "--min", "4", "--max", "4", "--instantiate")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_timings_opt_in(capsys):
    _, out_plain, _ = run_cli(capsys, "realize", "--min", "4", "--max", "4", "--instantiate")
    _, out_timed, _ = run_cli(
        capsys, "realize", "--min", "4", "--max", "4", "--instantiate", "--timings"
    )
    assert "timings" not in json.loads(out_plain)
    assert "timings" in json.loads(out_timed)


def test_emit_spec_then_analyze(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    code, _, _ = run_cli(capsys, "realize", "--min", "3", "--max", "4", "--emit-spec", str(spec_path))
    assert code == EXIT_OK
    stored = json.loads(spec_path.read_text())
    assert stored["family"] == "affine"

    code, out, _ = run_cli(capsys, "analyze", "--spec", str(spec_path), "--lengths")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["lengths"] == [3, 4]
    assert data["domain_size"] == 64

    code, out, _ = run_cli(
        capsys, "analyze", "--spec", str(spec_path), "--min-base", "--max-irredundant"
    )
    data = json.loads(out)
    assert data["min_length"] == 3 and data["max_length"] == 4


def test_analyze_chain_mode(tmp_path, capsys):
    spec_path = tmp_path / "sym.json"
    run_cli(capsys, "realize", "--min", "3", "--max", "3", "--emit-spec", str(spec_path))
    code, out, _ = run_cli(capsys, "analyze", "--spec", str(spec_path), "--chain", "0,1,2")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["chain_orders"] == ["24", "6", "2", "1"]
    assert data["is_irredundant_base"] is True


def test_analyze_chain_mode_suzuki(tmp_path, capsys):
    spec_path = tmp_path / "sz.json"
    run_cli(capsys, "realize", "--min", "2", "--max", "3", "--emit-spec", str(spec_path))
    code, out, _ = run_cli(capsys, "analyze", "--spec", str(spec_path), "--chain", "0,133,72")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["chain_orders"] == ["29120", "14", "2", "1"]
    assert data["is_irredundant_base"] is True
    assert data["point_labels"][0] == ["inf", [0, 0, 0]]


def test_analyze_missing_spec_file(capsys):
    code, _, err = run_cli(capsys, "analyze", "--spec", "/nonexistent.json")
    assert code == EXIT_INVALID
    assert "error" in err


def test_analyze_unknown_family(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for family, message in (('"sporadic"', "invalid group spec"), ('["affine"]', "cannot read group spec")):
        bad.write_text(
            '{"family": ' + family + ', "params": {"n": 5}, "extended": false,'
            ' "action": "natural", "expected_lengths": []}'
        )
        code, _, err = run_cli(capsys, "analyze", "--spec", str(bad))
        assert code == EXIT_INVALID, family
        assert message in err, family


def test_analyze_invalid_params(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for params, message in (('{"m": 0}', "error"), ('[["m", 1]]', "cannot read group spec")):
        bad.write_text(
            '{"family": "suzuki", "params": ' + params + ', "extended": false,'
            ' "action": "pairs", "expected_lengths": [2, 3]}'
        )
        code, _, err = run_cli(capsys, "analyze", "--spec", str(bad))
        assert code == EXIT_INVALID, params
        assert message in err, params


def test_analyze_spec_values_are_checked_not_coerced(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for params, extended, lengths in (
        ('{"d": 1, "f": 2, "p": 2}', '"false"', "[]"),
        ('{"d": 1, "f": 2.9, "p": 2}', "false", "[]"),
        ('{"d": true, "f": 2, "p": 2}', "false", "[]"),
        ('{"d": 1, "f": "2", "p": 2}', "false", "[]"),
        ('{"d": 1, "f": 2, "p": 2}', "0", "[]"),
        ('{"d": 1, "f": 2, "p": 2}', "false", '["3"]'),
        ('{"d": 1, "f": 2, "p": 2}', "false", "[3.0]"),
        ('{"d": 1, "f": 2, "p": 2}', "false", '"34"'),
    ):
        bad.write_text(
            f'{{"family": "affine", "params": {params}, "extended": {extended},'
            f' "action": "vectors", "expected_lengths": {lengths}}}'
        )
        code, out, err = run_cli(capsys, "analyze", "--spec", str(bad))
        assert code == EXIT_INVALID, (params, extended, lengths)
        assert "cannot read group spec" in err, (params, extended, lengths)
        assert out == ""


def test_analyze_bad_chain_points(tmp_path, capsys):
    spec_path = tmp_path / "sym.json"
    run_cli(capsys, "realize", "--min", "3", "--max", "3", "--emit-spec", str(spec_path))
    code, _, err = run_cli(capsys, "analyze", "--spec", str(spec_path), "--chain", "0,zz")
    assert code == EXIT_INVALID


def test_invalid_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_verify_subset_passes(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--level", "quick", "--only", "affine-d1-q4")
    assert code == EXIT_OK
    assert "[PASS] affine-d1-q4-intervals" in out


def test_verify_json_output(capsys):
    code, out, _ = run_cli(
        capsys, "verify-paper", "--level", "quick", "--only", "realize-small", "--json"
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["ok"] is True
    assert data["checks"][0]["name"] == "realize-small-roundtrip"


def test_analyze_action_must_fit_family(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for family, params, action in (
        ("affine", '{"d": 2, "f": 2, "p": 2}', "pairs"),
        ("symmetric", '{"n": 4}', "vectors"),
        ("suzuki", '{"m": 1}', "natural"),
    ):
        bad.write_text(
            f'{{"family": "{family}", "params": {params}, "extended": false,'
            f' "action": "{action}", "expected_lengths": []}}'
        )
        code, out, err = run_cli(capsys, "analyze", "--spec", str(bad))
        assert code == EXIT_INVALID, family
        assert out == "", family
        assert f"action {action!r} does not fit family {family!r}" in err, family


def test_verify_only_matching_nothing_is_invalid(capsys):
    for level, only in (("quick", "suzki"), ("quick", "q64"), ("full", "suzki")):
        code, out, err = run_cli(capsys, "verify-paper", "--level", level, "--only", only)
        assert code == EXIT_INVALID, (level, only)
        assert out == ""
        assert repr(only) in err and repr(level) in err
