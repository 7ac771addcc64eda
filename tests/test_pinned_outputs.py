"""Criterion 10 held to fixed bytes: the ``verify --grid smoke --radius
4`` directory and the ``to_json`` of the four report balls hash to the
digests ``bench/expected.json`` pins, so a change that moves one byte of
them fails here and not only in the benchmark.  The directory is hashed
as ``bench/workloads.py``'s ``dir_sha`` hashes it: per file in name
order, its name, a zero byte and the sha256 hex digest of its bytes.
V(2,2) r11 is an amalgam ball, grown by ``RawGraph.grow``; the other
three are glue trees."""

import hashlib
import json
from pathlib import Path

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
