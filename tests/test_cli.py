"""CLI subcommands and exit-code mapping."""

import hashlib
import importlib
import json
import time

import pytest

from cubiccayley import cli
from cubiccayley.cli import main
from test_presentation import DEEP_NESTING, HUGE_EXPONENT
from test_spin_planarity import RENAMED  # catalogue families, renamed

# the package exports a function named construct, which hides the module
ball_mod = importlib.import_module("cubiccayley.ball")
construct_mod = importlib.import_module("cubiccayley.construct")


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
    # the file is the ball's JSON text, with no line added
    ball = construct_mod.construct(construct_mod.TypeParams("I", n=2), 4)
    assert out.read_bytes() == ball.to_json().encode()


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


@pytest.mark.parametrize("argv", [
    ("classify", HUGE_EXPONENT),
    ("classify", DEEP_NESTING),
    ("build", "--presentation", DEEP_NESTING),
])
def test_input_past_python_limits_is_parse_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("build", "--presentation", "<a,b|b^2,a^3>", "--radius", "2",
     "--cap", "0"),
    ("build", "--presentation", "<a,b|b^2,a^3>", "--radius", "2",
     "--cap", "-5"),
    ("verify", "--grid", "smoke", "--cap", "0"),
])
def test_cap_below_one_is_invalid(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: cap must be >= 1, got {argv[-1]}\n"


@pytest.mark.parametrize("argv", [
    ("build", "--presentation", "<a,b|b^2,(ab)^3>", "--radius", "-1"),
    ("embed", "<a,b|b^2,(ab)^3>", "--radius", "-1"),
    ("render", "<a,b|b^2,(ab)^3>", "--radius", "-1"),
    ("build", "--type", "I", "--n", "3", "--radius", "-1"),
])
def test_negative_radius_is_invalid(capsys, tmp_path, argv):
    out_file = tmp_path / "out"
    code, out, err = run(capsys, *argv, "-o", str(out_file))
    assert code == 2
    assert out == "" and not out_file.exists()
    assert err == "error: radius must be >= 0\n"


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


# sha256 of the output bytes: the SVG lays out children in the spin
# rotation's order; the last two sources are not in the catalogue, so
# the SVG falls back to construction order
RENDER_SHA = {
    ("dot", "--type", "VII", "--n", "3", "--m", "2", "--radius", "6"):
        "957d9c215f1ac3e8f9d904420b240b44f92c1e831d9e4c8148c1eb791e67934f",
    ("svg", "--type", "VII", "--n", "3", "--m", "2", "--radius", "6"):
        "2adb4d6f48f9f96af2590d3c60df4074bc1a1a88ccd4914fad278ee5032ae320",
    ("dot", "--type", "IX", "--n", "2"):
        "442cb41cbd4907faa21b92abb6324f993b726c8c3408e07e05115dda8a9b0151",
    ("svg", "--type", "IX", "--n", "2"):
        "f4fd71c44ef425ed73314b11dd305460b9772328394fe551fac4f06840f6f415",
    ("dot", "<a,b|b^2,(ab)^3>", "--radius", "4"):
        "8ae4b3a7494d61a38550dbaf86e064a8cd00791f68188628a87f431824a2b4c4",
    ("svg", "<a,b|b^2,(ab)^3>", "--radius", "4"):
        "29a196f2f42f23b220582387a81f20025ca6a1b3b2eb358f1a3f2a60fec6f7b9",
    ("dot", "<a,b|b^2,a^3>", "--radius", "3"):
        "9f96547a3e2edcae776b08f0bd8f5c9b42773e0a9cf33e2de1e6d9b9aaf154be",
    ("svg", "<a,b|b^2,a^3>", "--radius", "3"):
        "1d423fe2aefabb00c32e13c974601a776dd60e8761c0dd7da3f9ce6b0bb97c14",
}


@pytest.mark.parametrize("fmt,args", [(k[0], k[1:]) for k in RENDER_SHA])
def test_render_embeds_only_for_svg(monkeypatch, capsys, fmt, args):
    calls = []
    real = cli.embed_mod.embed
    monkeypatch.setattr(cli.embed_mod, "embed",
                        lambda ball, tp: calls.append(tp) or real(ball, tp))
    code, out, _ = run(capsys, "render", *args, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RENDER_SHA[(fmt, *args)]
    if fmt == "dot":
        assert calls == []
    elif args[0] == "--type":
        assert len(calls) == 1


@pytest.mark.parametrize("text", sorted(RENAMED))
def test_embed_renamed_presentation(capsys, text):
    code, out, err = run(capsys, "embed", text, "--radius", "3",
                         "--cap", "1000")
    assert code == 0 and err == ""
    assert json.loads(out)["colour_spin"] == RENAMED[text]


@pytest.mark.parametrize("text", sorted(RENAMED))
def test_render_renamed_presentation(capsys, text):
    render = cli.render_mod
    code, out, err = run(capsys, "render", text, "--radius", "3",
                         "--cap", "1000")
    assert code == 0 and err == ""
    ball = construct_mod.construct_presentation_ball(
        cli.parse_presentation(text), 3, cap=1000)
    rotation = cli.embed_mod.spin_embedding(ball).rotation
    assert out == render.to_svg(ball, render.RenderSpec(depth=3), rotation)


def test_embed_walks_faces_once(monkeypatch, capsys):
    # check_consistency and to_dict read one trace of the faces
    calls = []
    real = cli.embed_mod.face_successor
    monkeypatch.setattr(cli.embed_mod, "face_successor",
                        lambda *a: calls.append(a) or real(*a))
    code, _, _ = run(capsys, "embed", "--type", "VII", "--n", "3", "--m", "2",
                     "--radius", "5")
    assert code == 0
    assert len(calls) == 1


def _count_certify(monkeypatch, result=None):
    """Count ``certify_ball`` calls wherever the package imported it; a
    given ``result`` replaces its violations."""
    calls = []
    real = ball_mod.certify_ball

    def counting(ball, p):
        calls.append(ball)
        return real(ball, p) if result is None else result

    for mod in (ball_mod, construct_mod, cli):
        if hasattr(mod, "certify_ball"):
            monkeypatch.setattr(mod, "certify_ball", counting)
    return calls


@pytest.mark.parametrize("args", [
    ("--type", "I", "--n", "2", "--radius", "3"),
    ("--presentation", "<a,b|b^2,(ab)^3>", "--radius", "3"),
])
def test_build_certifies_once(monkeypatch, capsys, args):
    calls = _count_certify(monkeypatch)
    code, out, err = run(capsys, "build", *args)
    assert code == 0 and "certified ball" in err
    assert len(calls) == 1


@pytest.mark.parametrize("args", [
    ("--type", "I", "--n", "2", "--radius", "3"),
    ("--presentation", "<a,b|b^2,(ab)^3>", "--radius", "3"),
])
def test_build_certificate_violation_exits_6(monkeypatch, capsys, args):
    calls = _count_certify(monkeypatch, result=[("slot", 0, "b")])
    code, out, err = run(capsys, "build", *args)
    assert code == 6
    assert out == "" and "1 certification violations" in err
    assert len(calls) == 1


def test_verify_grid_certifies_each_ball_once(monkeypatch, tmp_path, capsys):
    # construct certifies every ball it returns; the grid reuses that
    calls = _count_certify(monkeypatch)
    code, _, _ = run(capsys, "verify", "--grid", "smoke", "--radius", "2",
                     "-o", str(tmp_path / "grid"))
    assert code == 0
    assert calls and len({id(ball) for ball in calls}) == len(calls)


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


@pytest.mark.parametrize("flags", [(), ("--type", "I", "--n", "2")])
def test_embed_ball_without_presentation(tmp_path, capsys, flags):
    path = tmp_path / "ball.json"
    data = construct_mod.construct(construct_mod.TypeParams("I", n=2),
                                   3).to_dict()
    data["presentation"] = None
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "embed", str(path), *flags)
    assert code == 2 and out == ""
    assert err == "error: ball carries no presentation\n"
