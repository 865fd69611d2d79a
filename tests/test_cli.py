"""The tlaction command line: subcommands, exit codes, determinism."""

from __future__ import annotations

import json

import pytest

import tlaction.cli as cli
from tlaction import FUEL_ENV_VAR, InvariantError, default_fuel


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- act -----------------------------------------------------------------------


def test_act_on_z(capsys):
    code, out, _ = run(capsys, "act", "--group", "Z", "--steps", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 7
    table = dict(line.split("\t") for line in lines)
    assert sorted(table) == sorted(str(n) for n in range(-3, 4))
    assert table["0"] == "e"
    assert len(set(table.values())) == 7  # freeness: distinct vertices


def test_act_zero_steps(capsys):
    code, out, _ = run(capsys, "act", "--group", "Z2", "--steps", "0")
    assert code == 0
    assert out == "0\te\n"


def test_act_rejects_negative_steps(capsys):
    code, _, err = run(capsys, "act", "--steps", "-1")
    assert code == 2
    assert "config error" in err


def test_act_unknown_group(capsys):
    code, _, err = run(capsys, "act", "--group", "NoSuchGroup")
    assert code == 2
    assert "config error" in err


def test_act_deterministic(capsys):
    _, out1, _ = run(capsys, "act", "--group", "Z2", "--steps", "4", "--seed", "9")
    _, out2, _ = run(capsys, "act", "--group", "Z2", "--steps", "4", "--seed", "9")
    assert out1 == out2


# -- export --------------------------------------------------------------------


def test_export_dot_ball(capsys):
    code, out, _ = run(capsys, "export", "dot", "--group", "Z2", "--radius", "2")
    assert code == 0
    assert out.startswith("graph patch {")
    assert out.count('label="') == 13
    assert 'label="e"' in out


def test_export_patch_radius_zero(capsys):
    code, out, _ = run(capsys, "export", "patch", "--radius", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == [0]
    assert doc["edges"] == []
    assert doc["labels"] == {"0": "e"}


def test_export_visited_table(capsys):
    code, out, _ = run(capsys, "export", "visited", "--group", "Z2", "--stages", "10")
    assert code == 0
    table = json.loads(out)
    assert "e" in table
    assert len(table) >= 11
    assert len(set(table.values())) == len(table)  # positions are distinct


def test_export_visited_needs_transitive_mode(capsys):
    code, _, err = run(capsys, "export", "visited", "--group", "FreeF2")
    assert code == 2
    assert "transitive" in err


def test_export_rejects_negative_radius(capsys):
    code, _, _ = run(capsys, "export", "patch", "--radius", "-2")
    assert code == 2


# -- verify ----------------------------------------------------------------------


def test_verify_paths_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "paths")
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == 0
    assert report["passes"] == len(report["checks"])


def test_verify_all_has_jump_bound_check(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--group", "Z2")
    assert code == 0
    report = json.loads(out)
    assert "thm-t2-bound-3" in [c["name"] for c in report["checks"]]
    assert report["failures"] == 0


def test_verify_byte_identical_per_seed(capsys):
    args = ("verify", "--suite", "all", "--group", "Z2", "--seed", "7")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1.encode() == out2.encode()


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


# -- psi and subshift-check --------------------------------------------------------


def test_psi_emits_overlaid_patch(capsys):
    code, out, _ = run(capsys, "psi", "--range", "200", "--radius", "1")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"domain", "A", "B"}
    assert len(doc["domain"]) == 5
    assert all(a in ("circle", "square", "rhombus") for a in doc["A"])


def test_psi_range_too_small(capsys):
    code, _, err = run(capsys, "psi", "--range", "0", "--radius", "2")
    assert code == 2
    assert "needs" in err


def test_subshift_check_own_pattern(capsys):
    code, out, _ = run(capsys, "subshift-check", "--radius", "2")
    assert code == 0
    verdict = json.loads(out)
    assert verdict == {
        "J": 3,
        "kind": "arrow",
        "vertices": 13,
        "xj_forbidden": False,
    }


def test_psi_roundtrip_through_file(capsys, tmp_path):
    patch_file = tmp_path / "patch.json"
    code, _, _ = run(
        capsys, "psi", "--range", "200", "--radius", "1", "--out", str(patch_file)
    )
    assert code == 0
    code, out, _ = run(capsys, "subshift-check", str(patch_file))
    assert code == 0
    verdict = json.loads(out)
    assert verdict == {
        "J": 3,
        "kind": "pair",
        "vertices": 5,
        "xj_forbidden": False,
        "yxj_forbidden": "false-so-far",
    }


def test_subshift_check_rejects_letter_only(capsys, tmp_path):
    patch_file = tmp_path / "letters.json"
    patch_file.write_text(json.dumps({"domain": ["e", "a"], "A": ["x", "y"]}))
    code, _, err = run(capsys, "subshift-check", str(patch_file))
    assert code == 2
    assert "arrow data" in err


@pytest.mark.parametrize(
    "command, doc",
    [
        ("subshift-check", {"domain": [], "A": []}),
        ("subshift-check", {"domain": ["e"], "B": [["e"]]}),
        ("subshift-check", {"domain": ["e"], "B": ["ab"]}),
        ("subshift-check", {"domain": [3], "A": ["x"]}),
        ("act", {"strategy": "zd", "d": "x"}),
        ("act", {"strategy": "z", "generators": 5}),
        ("act", {"strategy": "z", "declared_ends": 2, "certificate": {"separator": ["e"]}}),
    ],
)
def test_malformed_input_file_is_config_error(capsys, tmp_path, command, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    argv = (command, str(path)) if command == "subshift-check" else (command, "--group", str(path))
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "config error" in err


# -- plumbing -----------------------------------------------------------------------


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "lines.txt"
    code, out, _ = run(capsys, "act", "--group", "Z", "--steps", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    _, direct, _ = run(capsys, "act", "--group", "Z", "--steps", "2")
    assert target.read_text() == direct


def test_tiny_fuel_exhausts(capsys):
    code, _, err = run(capsys, "act", "--group", "Z2", "--fuel", "20", "--steps", "5")
    assert code == 3
    assert "fuel exhausted" in err


def test_nonpositive_fuel_rejected(capsys):
    code, _, _ = run(capsys, "act", "--fuel", "0")
    assert code == 2


def test_fuel_environment_variable(capsys, monkeypatch):
    monkeypatch.setenv(FUEL_ENV_VAR, "33")
    assert default_fuel() == 33
    code, _, _ = run(capsys, "act", "--group", "Z2", "--steps", "5")
    assert code == 3  # budget of 33 steps cannot build the needed stages
    monkeypatch.setenv(FUEL_ENV_VAR, "junk")
    code, _, _ = run(capsys, "act", "--group", "Z2", "--steps", "0")
    assert code == 2


def test_invariant_failure_maps_to_exit_4(capsys, monkeypatch):
    def boom(args):
        raise InvariantError("synthetic failure")

    monkeypatch.setattr(cli, "cmd_act", boom)
    code, _, err = run(capsys, "act")
    assert code == 4
    assert "invariant failure" in err


def test_config_path_group(capsys, tmp_path):
    config = tmp_path / "group.json"
    config.write_text(json.dumps({"strategy": "zd", "d": 1, "generators": ["a"]}))
    code, out, _ = run(capsys, "act", "--group", str(config), "--steps", "1")
    assert code == 0
    assert len(out.strip().split("\n")) == 3
