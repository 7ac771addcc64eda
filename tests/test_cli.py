"""CLI subcommands and exit-code mapping."""

import json
import time

import pytest

from cubiccayley.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_writes_ball(tmp_path, capsys):
    out = tmp_path / "ball.json"
    code, _, err = run(capsys, "build", "--type", "I", "--n", "2",
                       "--radius", "4", "-o", str(out))
    assert code == 0
    assert "certified ball" in err
    data = json.loads(out.read_text())
    assert len(data["vertices"]) == 16


def test_build_presentation_finite(capsys):
    code, out, _ = run(capsys, "build", "--presentation",
                       "<b,c,d|b^2,c^2,d^2,(bc)^2,cd>", "--radius", "6")
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 4


def test_build_invalid_params(capsys):
    code, _, err = run(capsys, "build", "--type", "V", "--n", "2", "--m", "1")
    assert code == 2
    assert "m >= 2" in err


def test_classify_presentation(capsys):
    code, out, _ = run(capsys, "classify", "<a,b|b^2,(aba^-1b^-1)^2>")
    assert code == 0
    data = json.loads(out)
    assert data["type"] == "II" and data["params"] == {"n": 2}


def test_classify_ball_blind(tmp_path, capsys):
    out = tmp_path / "ball.json"
    assert run(capsys, "build", "--type", "VI", "--n", "2", "--m", "3",
               "--radius", "6", "-o", str(out))[0] == 0
    code, text, _ = run(capsys, "classify", str(out), "--blind")
    assert code == 0
    data = json.loads(text)
    assert data["type"] == "VI" and data["params"] == {"n": 2, "m": 3}


def test_classify_not_in_catalogue(capsys):
    code, _, err = run(capsys, "classify", "<a,b|b^2,a^3>")
    assert code == 3
    assert "case-1" in err


def test_classify_parse_error(capsys):
    code, _, err = run(capsys, "classify", "a,b|b^2")
    assert code == 1


def test_classify_oversized_power_is_parse_error(capsys):
    # the power is rejected before it is expanded, not after building
    # a 20M-letter relator
    start = time.perf_counter()
    code, _, err = run(capsys, "classify", "<a,b|b^2,(ab)^10000000>")
    assert time.perf_counter() - start < 2
    assert code == 1
    assert "longer than 10000 letters" in err


def test_embed_json(capsys):
    code, out, _ = run(capsys, "embed", "--type", "IV", "--m", "2",
                       "--radius", "4")
    assert code == 0
    data = json.loads(out)
    assert data["colour_spin"] == {"b": "preserving", "c": "preserving",
                                   "d": "preserving"}


def test_render_svg(tmp_path, capsys):
    out = tmp_path / "fig.svg"
    code, _, _ = run(capsys, "render", "--type", "III", "--m", "4",
                     "--radius", "4", "--depth", "3", "-o", str(out))
    assert code == 0
    assert out.read_text().startswith("<svg")


def test_render_dot(capsys):
    code, out, _ = run(capsys, "render", "--type", "I", "--n", "2",
                       "--radius", "3", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")


def test_render_depth_overflow(capsys):
    code, _, err = run(capsys, "render", "--type", "I", "--n", "2",
                       "--radius", "3", "--depth", "9")
    assert code == 5


def test_verify_k33(capsys):
    code, out, _ = run(capsys, "verify", "--check", "k33-scaffold")
    assert code == 0
    assert json.loads(out)["pass"]


def test_verify_separator_involution(tmp_path, capsys):
    out = tmp_path / "ball.json"
    assert run(capsys, "build", "--type", "I", "--n", "2", "--radius", "5",
               "-o", str(out))[0] == 0
    code, text, _ = run(capsys, "verify", str(out), "--check",
                        "separator-involution")
    assert code == 0
    data = json.loads(text)
    assert data["pass"]
    assert data["separator"]["z_word"] == "b"


def test_verify_unknown_check(capsys):
    code, _, _ = run(capsys, "verify", "--check", "no-such-check")
    assert code == 2


def test_verify_grid_smoke(tmp_path, capsys):
    out = tmp_path / "grid"
    code, _, _ = run(capsys, "verify", "--grid", "smoke", "--radius", "4",
                     "-o", str(out))
    assert code == 0
    report = json.loads((out / "grid.json").read_text())
    assert report["pass"]
    assert len(report["grid"]) == 18
    assert len(list(out.glob("*.svg"))) == 18


@pytest.mark.parametrize("how", ["list", "sparse-id", "endpoint",
                                 "duplicate-edge"])
def test_verify_malformed_ball_is_parse_error(tmp_path, capsys, how):
    from cubiccayley.construct import TypeParams, construct
    from test_ball import _mangled
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        _mangled(construct(TypeParams("I", n=2), 4), how)))
    code, _, err = run(capsys, "verify", str(bad), "--check",
                       "separator-involution")
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ["[" * 100000,
                                  "{\"center\": " + "1" * 5000 + "}",
                                  "\udcff"])
def test_verify_unreadable_ball_is_parse_error(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text, errors="surrogateescape")
    code, _, err = run(capsys, "verify", str(bad), "--check",
                       "separator-involution")
    assert code == 1
    assert err.startswith("error: cannot read ball file")


@pytest.mark.parametrize("argv", [["verify", "--check", "separator-involution"],
                                  ["classify", "--blind"]])
def test_disconnected_ball_is_parse_error(tmp_path, capsys, argv):
    # verify used to exit 6 on a bogus separator, classify --blind 0
    from test_ball import _disconnected
    bad = tmp_path / "disc.json"
    bad.write_text(json.dumps(_disconnected()))
    code, out, err = run(capsys, argv[0], str(bad), *argv[1:])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "not connected" in err


@pytest.mark.parametrize("argv", [
    ["classify", "<a,b|b^2,(ab)^3>", "--radius", "3"],
    ["classify", "<a,b|b^2,(ab)^3>", "--type", "I"],
    ["verify", "--check", "k33-scaffold", "--n", "2"],
    ["build", "--type", "I", "--n", "2", "--format", "json"],
    ["embed", "--type", "I", "--n", "2", "--format", "json"],
    ["render", "--type", "I", "--n", "2", "--format", "json"],
    ["render", "--type", "I", "--n", "2", "--layout", "tree"],
])
def test_subcommands_reject_flags_they_do_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
