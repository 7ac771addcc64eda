"""Criterion 10 held to fixed bytes: the ``verify --grid smoke --radius
4`` directory and the report outputs of the four report balls hash to
the digests ``bench/expected.json`` pins, so a change that moves one
byte of them fails here and not only in the benchmark.  The directory is
hashed as ``bench/workloads.py``'s ``dir_sha`` hashes it: per file in
name order, its name, a zero byte and the sha256 hex digest of its
bytes.  Each report ball's ``to_json`` is pinned, then, as the benchmark
does, the ball is read back through ``from_json`` and the rest of the
report runs on the read-back ball: ``embed(...).to_dict()`` and
``two_basis_check`` hashed as ``json_sha`` hashes them (the witness edge
as a list, as ``_basis_payload`` writes it), ``to_svg`` at depth 3 over
the embedding's rotation and ``to_dot`` as plain sha256.  V(2,2) r11 is
an amalgam ball, grown by ``RawGraph.grow``; the other three are glue
trees."""

import hashlib
import json
from pathlib import Path

from cubiccayley import analyze as A
from cubiccayley import embed as E
from cubiccayley import render as R
from cubiccayley.ball import CayleyBall
from cubiccayley.cli import main as cli_main
from cubiccayley.construct import TypeParams, construct

EXPECTED = json.loads((Path(__file__).resolve().parents[1] / "bench"
                       / "expected.json").read_text())

# bench/workloads.py's REPORT_BALLS, under the keys it gives them
REPORT_BALLS = {"I_3_0_r14": ("I", 3, None, 14),
                "VI_2_3_r16": ("VI", 2, 3, 16),
                "V_2_2_r11": ("V", 2, 2, 11),
                "VIII_0_2_r10": ("VIII", None, 2, 10)}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def json_sha(payload) -> str:
    return sha(json.dumps(payload, sort_keys=True, default=repr).encode())


def basis_payload(result: dict) -> dict:
    edge = result["witness_edge"]
    return dict(result, witness_edge=None if edge is None else
                [edge.u, edge.v, edge.colour, edge.directed])


def dir_sha(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(path.iterdir()):
        h.update(p.name.encode() + b"\0" + sha(p.read_bytes()).encode())
    return h.hexdigest()


def test_outputs_match_the_pinned_digests(tmp_path):
    outdir = tmp_path / "out"
    assert cli_main(["verify", "--grid", "smoke", "--radius", "4",
                     "-o", str(outdir)]) == 0
    assert dir_sha(outdir) == EXPECTED["verify_smoke"]["output_sha256"]
    pinned = EXPECTED["ball_report"]
    assert sorted(pinned) == sorted(REPORT_BALLS)
    for key, (type_id, n, m, radius) in REPORT_BALLS.items():
        ball = construct(TypeParams(type_id, n=n, m=m), radius)
        assert sha(ball.to_json().encode()) == pinned[key]["to_json"], key


def test_report_outputs_match_the_pinned_digests():
    for key, (type_id, n, m, radius) in REPORT_BALLS.items():
        tp, want = TypeParams(type_id, n=n, m=m), EXPECTED["ball_report"][key]
        ball = CayleyBall.from_json(construct(tp, radius).to_json())
        emb = E.embed(ball, tp)
        assert json_sha(emb.to_dict()) == want["to_dict"], key
        basis = A.two_basis_check(ball, tp.presentation())
        assert json_sha(basis_payload(basis)) == want["two_basis"], key
        svg = R.to_svg(ball, R.RenderSpec(layout="auto", depth=3),
                       emb.rotation)
        assert sha(svg.encode()) == want["to_svg"], key
        assert sha(R.to_dot(ball).encode()) == want["to_dot"], key
