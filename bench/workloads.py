"""The three benchmark workloads and the known answers they are checked against.

A workload turns the seed into its inputs; the set of cells is fixed and
the seed picks only their order, so totals compare across seeds.  One pass
runs every cell as a sequence of operations, each a single call into the
library's public API.  Only the calls are timed: every result is checked
between calls, off the clock.

Known answers come from two places:

* the paper and the acceptance tests fix separator word lengths, the
  involution law, colour counts, independent-path counts, blind
  classification, spin consistency, planarity and the cycle-space span;
* the seed code's outputs, which the roadmap requires to stay
  byte-identical, are pinned as digests in ``expected.json`` together with
  ball sizes and closed-face counts.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from cubiccayley import analyze, classify, cli, render
from cubiccayley import embed as E
from cubiccayley.ball import CayleyBall
from cubiccayley.errors import CubicCayleyError, NoSeparatorFound
from cubiccayley.presentation import Presentation

from tracing import BENCH, Tracer

# the package re-exports the function construct() under the module's name
C = importlib.import_module("cubiccayley.construct")

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())

TWO_GEN = {"I", "II", "III"}
HINGE_TYPES = {"I", "II", "VI", "VIII"}

# Balls for the structural report: glue-tree (I, VI, VIII) and amalgam (V)
# builders, each large enough that the quadratic face checks dominate.
REPORT_BALLS = [("I", 3, None, 14), ("VI", 2, 3, 16), ("V", 2, 2, 11),
                ("VIII", None, 2, 10)]

VERIFY_ARGS = ["verify", "--grid", "smoke", "--radius", "4"]


def z_length(type_id: str, n: Optional[int]) -> int:
    """Length of the shortest separating word z, as the paper gives it."""
    return {"I": 1, "II": 1, "III": 2, "IV": 2, "V": 3, "VI": 1,
            "VII": 2 * (n or 0) + 1, "VIII": 1, "IX": 2}[type_id]


def cell_key(type_id, n, m, radius=None) -> str:
    key = f"{type_id}_{n or 0}_{m or 0}"
    return key if radius is None else f"{key}_r{radius}"


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def json_sha(payload) -> str:
    return sha(json.dumps(payload, sort_keys=True, default=repr))


def dir_sha(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(path.iterdir()):
        h.update(p.name.encode() + b"\0" + sha(p.read_bytes()).encode())
    return h.hexdigest()


@dataclass(frozen=True)
class Cell:
    key: str
    tp: C.TypeParams
    presentation: Presentation
    radius: int   # separator ball radius, or report ball radius
    margin: int


def build_inputs(workload: str, seed: int) -> List:
    """The workload's inputs; the seed fixes their order only."""
    rng = random.Random(seed)
    if workload == "separator_grid":
        cells = []
        for type_id, n, m in cli.SMOKE_GRID:
            tp = C.TypeParams(type_id, n=n, m=m)
            pres = tp.presentation()
            margin = analyze.sound_margin(pres)
            cells.append(Cell(cell_key(type_id, n, m), tp, pres,
                              margin + z_length(type_id, n) + 1, margin))
        rng.shuffle(cells)
        return cells
    if workload == "ball_report":
        cells = []
        for type_id, n, m, radius in REPORT_BALLS:
            tp = C.TypeParams(type_id, n=n, m=m)
            pres = tp.presentation()
            cells.append(Cell(cell_key(type_id, n, m, radius), tp, pres,
                              radius, analyze.sound_margin(pres)))
        rng.shuffle(cells)
        return cells
    if workload == "verify_smoke":
        # the CLI fixes the grid and its order; the seed changes nothing
        return [list(VERIFY_ARGS)]
    raise ValueError(f"unknown workload {workload!r}")


class Pass:
    """One pass: timed calls, untimed checks, operation counts.

    ``run`` issues one operation (closed loop: the next starts after this
    one returns), adds its duration on ``clock`` to ``seconds`` and its
    wall-clock duration to ``wall_seconds``, and checks the result.  A
    library error is a result too, since some known answers are errors.
    """

    def __init__(self, clock: Callable[[], float],
                 tracer: Optional[Tracer] = None,
                 after_op: Optional[Callable] = None):
        self.clock = clock
        self.tracer = tracer
        self.after_op = after_op  # runs off the clock after each call
        self.seconds = 0.0
        self.wall_seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.sizes: Dict[str, list] = {}

    def run(self, label: str, check: Callable, fn, *args, **kwargs):
        self.attempted += 1
        result = None
        t0, w0 = self.clock(), time.perf_counter()
        try:
            if self.tracer is None:
                result = fn(*args, **kwargs)
            else:
                self.tracer.op += 1
                result = self.tracer.call(f"{BENCH}.{label.rsplit(':', 1)[-1]}",
                                          fn, args, kwargs, root=True)
        except CubicCayleyError as exc:
            result = exc
        except Exception as exc:  # a crash is a failed operation, not an abort
            result = exc
            traceback.print_exc(file=sys.stderr)
        finally:
            self.seconds += self.clock() - t0
            self.wall_seconds += time.perf_counter() - w0
        if self.after_op is not None:
            self.after_op()
        ok = False
        try:
            ok = bool(check(result))
        except Exception:
            traceback.print_exc(file=sys.stderr)
        if not ok:
            self.failed += 1
            self.failures.append(f"{label}: got {str(result)[:160]!r}")
        return result if ok else None

    def sized(self, key: str, want: list):
        def check(ball):
            if isinstance(ball, Exception):
                return False
            self.sizes[key] = [ball.n_vertices, len(ball.edges)]
            return self.sizes[key] == want
        return check


# ---------------------------------------------------------------------------
# separator_grid: acceptance criterion 2 over the whole smoke grid
# ---------------------------------------------------------------------------

def _cert_ok(cell: Cell, want: dict):
    type_id, n = cell.tp.type_id, cell.tp.n

    def check(cert):
        if "z" not in want:  # IX n=1: two vertices, nothing to separate
            return isinstance(cert, NoSeparatorFound)
        if isinstance(cert, Exception):
            return False
        checks = cert.checks
        colours_ok = (checks["monochromatic"] if type_id in TWO_GEN or
                      type_id in HINGE_TYPES else checks["two_coloured"])
        return (len(cert.z) == z_length(type_id, n)
                and cert.z.pretty() == want["z"]
                and checks["z_squared_closes"] and colours_ok)
    return check


def separator_pass(cells: List[Cell], p: Pass):
    for cell in cells:
        want = EXPECTED["separator_grid"][cell.key]
        tp, key = cell.tp, cell.key
        ball = p.run(f"{key}:construct", p.sized(f"{key}_r{cell.radius}",
                                                 want["ball"]),
                     C.construct, tp, cell.radius)
        if ball is None:
            continue
        cert = p.run(f"{key}:shortest_separating_path", _cert_ok(cell, want),
                     analyze.shortest_separating_path, ball, cell.margin,
                     center_only=True)
        del ball  # free the separator ball before the next build
        if cert is None or "z" not in want:
            continue
        ip_radius = z_length(tp.type_id, tp.n) + 3
        ip_ball = p.run(f"{key}:construct",
                        p.sized(f"{key}_r{ip_radius}", want["ip_ball"]),
                        C.construct, tp, ip_radius)
        if ip_ball is None:
            continue
        y = ip_ball.trace_word(ip_ball.center, cert.z)
        paths = 2 if tp.type_id == "IX" else 3
        p.run(f"{key}:independent_paths",
              lambda ip: not isinstance(ip, Exception) and (
                  ip == paths if tp.type_id == "IX" else ip >= paths),
              analyze.independent_paths, ip_ball, ip_ball.center, y)


# ---------------------------------------------------------------------------
# verify_smoke: the user-facing grid verification, in-process
# ---------------------------------------------------------------------------

def verify_pass(inputs: List[list], p: Pass, scratch: Path):
    want = EXPECTED["verify_smoke"]["output_sha256"]
    for argv in inputs:
        outdir = Path(tempfile.mkdtemp(prefix="verify-", dir=scratch))
        try:
            def check(code):
                report = json.loads((outdir / "grid.json").read_text())
                return (code == 0 and report["pass"]
                        and len(list(outdir.iterdir())) == 19
                        and dir_sha(outdir) == want)
            p.run("verify_smoke:main", check, cli.main, argv + ["-o", str(outdir)])
        finally:
            shutil.rmtree(outdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# ball_report: the full structural report on four mid-size balls
# ---------------------------------------------------------------------------

def _no_error(fn):
    return lambda r: not isinstance(r, Exception) and fn(r)


def _basis_payload(result: dict) -> dict:
    edge = result["witness_edge"]
    return dict(result, witness_edge=None if edge is None else
                [edge.u, edge.v, edge.colour, edge.directed])


def report_pass(cells: List[Cell], p: Pass):
    for cell in cells:
        want = EXPECTED["ball_report"][cell.key]
        tp, key, pres = cell.tp, cell.key, cell.presentation
        params = {k: v for k, v in (("n", tp.n), ("m", tp.m)) if v is not None}
        ball = p.run(f"{key}:construct", p.sized(key, want["ball"]),
                     C.construct, tp, cell.radius)
        if ball is None:
            continue
        text = p.run(f"{key}:to_json", _no_error(
            lambda t: sha(t) == want["to_json"]), ball.to_json)
        if text is None:
            continue
        back = p.run(f"{key}:from_json", _no_error(
            lambda b: b.canonical_form() == ball.canonical_form()
            and b.words == ball.words and b.interior == ball.interior
            and b.distances == ball.distances), CayleyBall.from_json, text)
        if back is None:
            continue
        ball = back  # the rest of the report runs on the read-back ball
        p.run(f"{key}:classify_ball", _no_error(
            lambda r: (r.type_id, r.params) == (tp.type_id, params)),
            classify.classify_ball, ball)
        emb = p.run(f"{key}:embed", _no_error(
            lambda e: e.colour_spin == E.spin_table(tp)), E.embed, ball, tp)
        if emb is None:
            continue
        p.run(f"{key}:check_consistency", lambda ok: ok is True,
              E.check_consistency, emb)
        faces = p.run(f"{key}:trace_faces", _no_error(
            lambda fs: sum(f.closed for f in fs) == want["closed_faces"]),
            E.trace_faces, emb, 8 * len(ball.edges) + 8)
        for face in faces or ():
            if face.closed:
                p.run(f"{key}:face_relator_match", lambda ok: ok is True,
                      E.face_relator_match, ball, face)
        p.run(f"{key}:to_dict", _no_error(
            lambda d: json_sha(d) == want["to_dict"]), emb.to_dict)
        p.run(f"{key}:planarity_check", _no_error(
            lambda v: isinstance(v, E.Planar) and v.euler_ok),
            E.planarity_check, ball)
        p.run(f"{key}:cycle_space_span_check", lambda ok: ok is True,
              analyze.cycle_space_span_check, ball, pres)
        p.run(f"{key}:two_basis_check", _no_error(
            lambda r: json_sha(_basis_payload(r)) == want["two_basis"]),
            analyze.two_basis_check, ball, pres)
        spec = render.RenderSpec(layout="auto", depth=3)
        p.run(f"{key}:to_svg", _no_error(lambda s: sha(s) == want["to_svg"]),
              render.to_svg, ball, spec, emb.rotation)
        p.run(f"{key}:to_dot", _no_error(lambda s: sha(s) == want["to_dot"]),
              render.to_dot, ball)


def run_pass(workload: str, inputs: List, p: Pass, scratch: Path):
    if workload == "separator_grid":
        separator_pass(inputs, p)
    elif workload == "verify_smoke":
        verify_pass(inputs, p, scratch)
    else:
        report_pass(inputs, p)
