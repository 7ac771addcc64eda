"""Deterministic DOT and SVG output for balls and embeddings.

Layout is presentation, never correctness: the figures illustrate the
graphs, while every verifiable claim lives in the JSON reports.  All
output is byte-identical across runs for the same input and options.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from .ball import CayleyBall
from .errors import RenderError

# the DOT and SVG colour of each generator; any other is drawn _FALLBACK
COLOURS = {"a": "#d62728", "b": "#1f77b4", "c": "#2ca02c", "d": "#9467bd"}
_FALLBACK = "#7f7f7f"
WIDTH = HEIGHT = 840  # the SVG canvas


@dataclass(frozen=True)
class RenderSpec:
    # radial, tree or auto: validated but never read, every value draws
    # the radial tree; the field can go only with a benchmark change
    layout: str = "auto"
    depth: int = 3

    def __post_init__(self):
        if self.layout not in ("radial", "tree", "auto"):
            raise RenderError(f"unknown layout {self.layout!r}")
        if self.depth < 0:
            raise RenderError("depth must be >= 0")


# ---------------------------------------------------------------------------
# DOT
# ---------------------------------------------------------------------------

def to_dot(ball: CayleyBall) -> str:
    """One edge statement per edge object; involution edges undirected."""
    lines = ["digraph ball {"]
    lines.append('  graph [outputorder="edgesfirst"];')
    lines.append("  node [shape=circle, fontsize=10];")
    for v in ball.vertices():
        word = ball.words[v] or "1"
        interior = "" if v in ball.interior else ', style="dashed"'
        lines.append(f'  {v} [label="{word}"{interior}];')
    for e in ball.edges:
        arrow = "" if e.directed else ", dir=none"
        lines.append(
            f'  {e.u} -> {e.v} [color="{COLOURS.get(e.colour, _FALLBACK)}"'
            f', label="{e.colour}"{arrow}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# layout
# ---------------------------------------------------------------------------

def _bfs_children(ball: CayleyBall, rotation, depth: int):
    """BFS tree as parent -> ordered children, child order following the
    vertex rotation (indexed by vertex) when an embedding supplies one.

    Vertices at distance ``depth`` or more are not expanded: their
    children lie beyond the drawing, and the tree up to ``depth`` is the
    one a walk of the whole ball finds."""
    children: Dict[int, List[int]] = {ball.center: []}
    queue = [ball.center]
    for v in queue:
        if ball.distances[v] >= depth:
            continue
        eids = rotation[v] if rotation is not None else ball.incident_edges(v)
        for eid in eids:
            w = ball.edges[eid].other(v)
            if w not in children:
                children[w] = []
                children[v].append(w)
                queue.append(w)
    return children


def layout_positions(ball: CayleyBall, spec: RenderSpec,
                     rotation=None) -> Dict[int, tuple]:
    """Radial tree positions: each vertex owns an angular wedge inside its
    parent's wedge, at ring radius proportional to its distance."""
    depth = min(spec.depth, ball.radius)
    if spec.depth > ball.radius and not ball.whole:
        raise RenderError(
            f"depth {spec.depth} exceeds ball radius {ball.radius}")
    shown = [v for v in ball.vertices() if ball.distances[v] <= depth]
    max_d = max((ball.distances[v] for v in shown), default=0)
    unit = (min(WIDTH, HEIGHT) / 2 - 40) / max(max_d, 1)
    cx, cy = WIDTH / 2, HEIGHT / 2
    children = _bfs_children(ball, rotation, depth)
    pos = {ball.center: (cx, cy)}
    wedge = {ball.center: (0.0, 2 * math.pi)}

    def place(v):
        lo, hi = wedge[v]
        kids = [w for w in children[v] if ball.distances[w] <= depth]
        if not kids:
            return
        step = (hi - lo) / len(kids)
        for i, w in enumerate(kids):
            a, b = lo + i * step, lo + (i + 1) * step
            wedge[w] = (a, b)
            theta = (a + b) / 2
            r = unit * ball.distances[w]
            pos[w] = (cx + r * math.cos(theta), cy + r * math.sin(theta))
            place(w)

    place(ball.center)
    return pos


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.2f}"


def to_svg(ball: CayleyBall, spec: Optional[RenderSpec] = None,
           rotation=None) -> str:
    """Deterministic SVG document for the ball, truncated at spec.depth."""
    spec = spec or RenderSpec()
    pos = layout_positions(ball, spec, rotation)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}"'
        f' height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        '<defs><marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5"'
        ' markerWidth="5" markerHeight="5" orient="auto-start-reverse">'
        '<path d="M 0 0 L 10 5 L 0 10 z"/></marker></defs>',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    pair_count: Dict[frozenset, int] = {}
    for e in ball.edges:
        if e.u not in pos or e.v not in pos:
            continue
        (x1, y1), (x2, y2) = pos[e.u], pos[e.v]
        colour = COLOURS.get(e.colour, _FALLBACK)
        marker = ' marker-end="url(#arrow)"' if e.directed else ""
        key = frozenset((e.u, e.v))
        k = pair_count.get(key, 0)
        pair_count[key] = k + 1
        if k == 0:
            parts.append(
                f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}"'
                f' y2="{_fmt(y2)}" stroke="{colour}" stroke-width="1.6"'
                f'{marker}/>')
        else:
            # parallel edges bow out so both stay visible
            mx, my = (x1 + x2) / 2, (y1 + y2) / 2
            dx, dy = x2 - x1, y2 - y1
            norm = math.hypot(dx, dy) or 1.0
            off = 14.0 * k
            qx, qy = mx - dy / norm * off, my + dx / norm * off
            parts.append(
                f'<path d="M {_fmt(x1)} {_fmt(y1)} Q {_fmt(qx)} {_fmt(qy)}'
                f' {_fmt(x2)} {_fmt(y2)}" fill="none" stroke="{colour}"'
                f' stroke-width="1.6"{marker}/>')
    for v in sorted(pos):
        x, y = pos[v]
        fill = "black" if v == ball.center else (
            "white" if v in ball.interior else "#cccccc")
        parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="{fill}"'
            ' stroke="black" stroke-width="1"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
