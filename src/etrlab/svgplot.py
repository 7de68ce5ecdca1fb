"""Minimal deterministic SVG line and heat-map rendering (no dependencies)."""

from __future__ import annotations

from .errors import IoFailure

_PALETTE = ["#4363d8", "#e6194b", "#3cb44b", "#f58231", "#911eb4", "#46f0f0"]
W, H, PAD = 640, 420, 56


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _axes(xlab: str, ylab: str, title: str) -> list[str]:
    return [
        f'<rect x="0" y="0" width="{W}" height="{H}" fill="white"/>',
        f'<line x1="{PAD}" y1="{H - PAD}" x2="{W - PAD}" y2="{H - PAD}" stroke="black"/>',
        f'<line x1="{PAD}" y1="{PAD}" x2="{PAD}" y2="{H - PAD}" stroke="black"/>',
        f'<text x="{W // 2}" y="{H - 12}" text-anchor="middle" font-size="13">{xlab}</text>',
        f'<text x="16" y="{H // 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 16 {H // 2})">{ylab}</text>',
        f'<text x="{W // 2}" y="24" text-anchor="middle" font-size="15">{title}</text>',
    ]


def line_plot(path, series: dict, xlab: str, ylab: str, title: str) -> None:
    """series: name -> list of (x, y). Writes one SVG file."""
    xs = [p[0] for pts in series.values() for p in pts]
    ys = [p[1] for pts in series.values() for p in pts]
    if not xs:
        raise IoFailure("no data to plot")
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys + [0.0]), max(ys + [1e-12])
    sx = lambda x: PAD + (W - 2 * PAD) * (x - x0) / max(x1 - x0, 1e-12)
    sy = lambda y: H - PAD - (H - 2 * PAD) * (y - y0) / max(y1 - y0, 1e-12)
    parts = _axes(xlab, ylab, title)
    for i, (name, pts) in enumerate(sorted(series.items())):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{W - PAD + 4}" y="{PAD + 16 * i + 12}" font-size="12" '
            f'fill="{color}">{name}</text>'
        )
        for x, y in pts:
            parts.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="2.5" fill="{color}"/>')
    _write(path, parts)


def heat_map(path, grid: dict, xs: list, ys: list, xlab: str, ylab: str,
             title: str, colors: dict) -> None:
    """grid: (x, y) -> a label; colors: label -> its cell's fill."""
    if not grid:
        raise IoFailure("no data to plot")
    cw = (W - 2 * PAD) / max(len(xs), 1)
    ch = (H - 2 * PAD) / max(len(ys), 1)
    parts = _axes(xlab, ylab, title)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            v = grid.get((x, y))
            if v is None:
                continue
            fill = colors[v]
            px = PAD + i * cw
            py = H - PAD - (j + 1) * ch
            parts.append(
                f'<rect x="{_fmt(px)}" y="{_fmt(py)}" width="{_fmt(cw)}" '
                f'height="{_fmt(ch)}" fill="{fill}" stroke="#eeeeee"/>'
            )
    for i, x in enumerate(xs):
        parts.append(
            f'<text x="{_fmt(PAD + (i + 0.5) * cw)}" y="{H - PAD + 16}" '
            f'text-anchor="middle" font-size="11">{x}</text>'
        )
    for j, y in enumerate(ys):
        parts.append(
            f'<text x="{PAD - 6}" y="{_fmt(H - PAD - (j + 0.5) * ch + 4)}" '
            f'text-anchor="end" font-size="11">{y}</text>'
        )
    _write(path, parts)


def _write(path, parts: list[str]) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(
                f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">\n'
            )
            fh.write("\n".join(parts))
            fh.write("\n</svg>\n")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
