"""Command-line surface: build, classify, embed, render, verify.

Exit codes: 0 ok, 1 parse error, 2 invalid parameters (an ``-o`` path
that cannot be written among them), 3 not in catalogue, 4 inconclusive,
5 render error, 6 verification failure, 7 oracle inconclusive.  All
commands are deterministic for fixed flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager

from . import analyze, classify, embed as embed_mod, render as render_mod
from .ball import CayleyBall
from .construct import (FAMILIES, TYPE_IDS, TypeParams, construct,
                        construct_presentation_ball, cross_check)
from .errors import (BallTooSmall, ConstructionIncomplete, CubicCayleyError,
                     Inconclusive, InvalidParams, NoSeparatorFound, NotCubic,
                     NotInCatalogue, OracleInconclusive, Overflow, ParseError,
                     RenderError, SpinConflict, WrongType)
from .presentation import parse_presentation

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_NOT_IN_CATALOGUE = 3
EXIT_INCONCLUSIVE = 4
EXIT_RENDER = 5
EXIT_VERIFY = 6
EXIT_ORACLE = 7

_EXIT_FOR = (
    (ParseError, EXIT_PARSE),
    (NotInCatalogue, EXIT_NOT_IN_CATALOGUE),
    ((InvalidParams, NotCubic, WrongType), EXIT_INVALID),
    ((Inconclusive, BallTooSmall, NoSeparatorFound), EXIT_INCONCLUSIVE),
    (RenderError, EXIT_RENDER),
    ((OracleInconclusive, Overflow), EXIT_ORACLE),
    ((ConstructionIncomplete, SpinConflict), EXIT_VERIFY),
)

SMOKE_GRID = [
    ("I", 2, None), ("I", 3, None), ("II", 1, None), ("II", 2, None),
    ("III", 2, None), ("III", 3, None), ("IV", None, 2), ("IV", None, 3),
    ("V", 2, 2), ("V", 2, 3), ("VI", 2, 2), ("VI", 2, 3),
    ("VII", 2, 2), ("VII", 3, 2), ("VIII", None, 1), ("VIII", None, 2),
    ("IX", 1, None), ("IX", 2, None),
]


def _dump(payload, output):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write_text(text, output)


@contextmanager
def _writing(path):
    """An OSError inside is an ``-o`` path that cannot be written."""
    try:
        yield
    except OSError as exc:
        raise InvalidParams(
            f"cannot write {path}: {exc.strerror or exc}") from None


def _write_text(text, output):
    if output:
        with _writing(output), open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _type_params(args) -> TypeParams:
    if args.type is None:
        raise InvalidParams("need --type or a presentation")
    n, m = args.n, args.m
    if FAMILIES[args.type].min_m is None and n is None and m is not None:
        n, m = m, None  # tolerate --m for the single-parameter n families
    return TypeParams(args.type, n=n, m=m)


def _load_ball(path) -> CayleyBall:
    try:
        with open(path) as fh:
            data = json.loads(fh.read())
    # ValueError covers bad JSON, bad encodings and overlong integers;
    # RecursionError covers JSON nested deeper than the parser's stack
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read ball file {path}: {exc}")
    return CayleyBall.from_dict(data)


def _source_ball(args) -> CayleyBall:
    """Ball from a file, a presentation string, or type flags."""
    src = getattr(args, "source", None)
    if src is not None and (os.path.exists(src) or src.endswith(".json")):
        return _load_ball(src)
    if src is not None:
        p = parse_presentation(src)
        return construct_presentation_ball(p, args.radius, cap=args.cap)
    tp = _type_params(args)
    return construct(tp, args.radius)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_build(args) -> int:
    if args.presentation is not None:
        p = parse_presentation(args.presentation)
        ball = construct_presentation_ball(p, args.radius, cap=args.cap)
    else:
        ball = construct(_type_params(args), args.radius)
    # both builders certify the ball and raise on a violation (exit 6)
    _write_text(ball.to_json(), args.output)
    print(f"certified ball: {ball.n_vertices} vertices, "
          f"{len(ball.edges)} edges, {len(ball.interior)} interior, "
          f"radius {ball.radius}", file=sys.stderr)
    return EXIT_OK


def cmd_classify(args) -> int:
    if os.path.exists(args.source) or args.source.endswith(".json"):
        ball = _load_ball(args.source)
        report = classify.classify_ball(ball)
    else:
        report = classify.classify_presentation(parse_presentation(args.source))
    _dump(report.to_dict(), args.output)
    return EXIT_OK


def _embedding(args, ball: CayleyBall) -> embed_mod.RotationEmbedding:
    """The spin embedding of the family that --type names, or else of the
    family the ball's presentation classifies into, on its own colours."""
    if args.type is not None:
        return embed_mod.embed(ball, _type_params(args))
    return embed_mod.spin_embedding(ball)


def cmd_embed(args) -> int:
    ball = _source_ball(args)
    emb = _embedding(args, ball)
    if not embed_mod.check_consistency(emb):
        print("embedding consistency check failed", file=sys.stderr)
        return EXIT_VERIFY
    _dump(emb.to_dict(), args.output)
    return EXIT_OK


def cmd_render(args) -> int:
    ball = _source_ball(args)
    if args.format == "dot":
        _write_text(render_mod.to_dot(ball), args.output)
        return EXIT_OK
    rotation = None  # without an embedding, construction order
    try:
        rotation = _embedding(args, ball).rotation
    except CubicCayleyError:
        pass
    depth = min(3, ball.radius) if args.depth is None else args.depth
    spec = render_mod.RenderSpec(depth=depth)
    _write_text(render_mod.to_svg(ball, spec, rotation), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _smoke_cell(type_id, n, m, radius, cap):
    tp = TypeParams(type_id, n=n, m=m)
    checks = {}
    ball = construct(tp, radius)
    # construct runs certify_ball on every ball it returns and raises
    # ConstructionIncomplete on a violation, so this ball is certified
    checks["certified"] = True
    checks["oracle_match"] = cross_check(tp, min(radius, 3), cap=min(cap, 5000))
    emb = embed_mod.embed(ball, tp)
    checks["spin_consistent"] = embed_mod.check_consistency(emb)
    # the spin rotation is a planar embedding iff its faces close Euler
    _, checks["euler"] = emb.sphere_faces()
    checks["planar"] = checks["euler"]
    rt = classify.classify_presentation(tp.presentation())
    want = {k: v for k, v in (("n", n), ("m", m)) if v is not None}
    checks["classify_roundtrip"] = (rt.type_id == type_id and rt.params == want)
    svg = render_mod.to_svg(ball, render_mod.RenderSpec(depth=min(3, radius)),
                            emb.rotation)
    return tp, checks, svg


def _verify_grid(args) -> dict:
    cells = []
    svg_dir = None
    if args.output:
        svg_dir = args.output
        with _writing(svg_dir):
            os.makedirs(svg_dir, exist_ok=True)
    for type_id, n, m in SMOKE_GRID:
        tp, checks, svg = _smoke_cell(type_id, n, m, args.radius, args.cap)
        ok = all(checks.values())
        cells.append({"type": type_id, "n": n, "m": m,
                      "checks": checks, "pass": ok})
        if svg_dir:
            name = f"{type_id}_{n or 0}_{m or 0}.svg"
            _write_text(svg, os.path.join(svg_dir, name))
    return {"grid": cells, "pass": all(c["pass"] for c in cells)}


def _verify_k33_scaffold() -> dict:
    import networkx as nx
    scaffold = embed_mod.case2_scaffold(3)
    suppressed = embed_mod.suppress_degree_two(scaffold)
    simple = nx.Graph(suppressed)
    is_k33 = nx.is_isomorphic(simple, nx.complete_bipartite_graph(3, 3))
    verdict = embed_mod.planarity_check(scaffold)
    witness_ok = (not isinstance(verdict, embed_mod.Planar)
                  and verdict.kind == "K33" and verdict.valid)
    return {"check": "k33-scaffold",
            "suppressed_is_k33": is_k33,
            "witness": witness_ok,
            "pass": is_k33 and witness_ok}


def _verify_separator_involution(ball: CayleyBall) -> dict:
    if ball.presentation is None:
        raise InvalidParams("ball file carries no presentation")
    margin = analyze.sound_margin(ball.presentation)
    cert = analyze.shortest_separating_path(ball, margin, center_only=True)
    ok = bool(cert.checks.get("z_squared_closes"))
    return {"check": "separator-involution",
            "separator": cert.to_dict(), "pass": ok}


def cmd_verify(args) -> int:
    if args.grid:
        report = _verify_grid(args)
        _dump(report, (os.path.join(args.output, "grid.json")
                       if args.output else None))
        if not report["pass"]:
            failing = next(c for c in report["grid"] if not c["pass"])
            print(f"first failing cell: {failing['type']} "
                  f"n={failing['n']} m={failing['m']}", file=sys.stderr)
            return EXIT_VERIFY
        return EXIT_OK
    if args.check == "k33-scaffold":
        report = _verify_k33_scaffold()
    elif args.check == "separator-involution":
        if args.source is None:
            raise InvalidParams("separator-involution needs a ball file")
        report = _verify_separator_involution(_load_ball(args.source))
    elif args.check is None:
        raise InvalidParams("verify needs --grid smoke or "
                            "--check k33-scaffold|separator-involution")
    else:
        raise InvalidParams(f"unknown check {args.check!r}")
    _dump(report, args.output)
    return EXIT_OK if report["pass"] else EXIT_VERIFY


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_size(sub):
    sub.add_argument("--radius", type=int, default=6)
    sub.add_argument(
        "--cap", type=int, default=100000,
        help="ceiling of the coset enumeration: a truncated ball must agree "
             "at two successive sizes of a doubling schedule that ends with "
             "CAP and 2*CAP cosets; verify --grid starts it small under the "
             "ceiling min(CAP, 5000), a presentation's ball starts it at "
             "CAP (exit 7 when the last pair still disagrees)")


def _add_type(sub):
    sub.add_argument("--type", choices=TYPE_IDS, default=None)
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--m", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubiccayley",
        description="planar cubic Cayley graphs of connectivity two")
    subs = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, func, summary):
        sub = subs.add_parser(name, help=summary)
        sub.add_argument("-o", "--output", default=None)
        sub.set_defaults(func=func)
        return sub

    p = subcommand("build", cmd_build, "construct and certify a ball")
    _add_size(p)
    _add_type(p)
    p.add_argument("--presentation", default=None)

    p = subcommand("classify", cmd_classify,
                   "classify a presentation or ball")
    p.add_argument("source", help="presentation string or ball JSON file")

    p = subcommand("embed", cmd_embed, "spin embedding as JSON")
    _add_size(p)
    _add_type(p)
    p.add_argument("source", nargs="?", default=None)

    p = subcommand("render", cmd_render, "draw a ball as SVG or DOT")
    _add_size(p)
    _add_type(p)
    p.add_argument("source", nargs="?", default=None)
    p.add_argument("--format", choices=("svg", "dot"), default="svg")
    p.add_argument("--depth", type=int, default=None)  # min(3, radius)

    p = subcommand("verify", cmd_verify, "run verification checks")
    _add_size(p)
    p.add_argument("source", nargs="?", default=None)
    p.add_argument("--grid", choices=("smoke",), default=None)
    p.add_argument("--check", default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CubicCayleyError as exc:
        for types, code in _EXIT_FOR:
            if isinstance(exc, types):
                print(f"error: {exc}", file=sys.stderr)
                return code
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
