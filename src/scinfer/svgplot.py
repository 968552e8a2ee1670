"""Minimal self-contained SVG line charts (no plotting dependency).

One fixed-size chart style: linear axes, per-series polyline with
markers and symmetric error whiskers, inline legend. Output references
nothing external, so the files render anywhere as-is.
"""

from __future__ import annotations

import math

__all__ = ["line_plot_svg"]

_WIDTH, _HEIGHT = 640, 440
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 72, 24, 44, 58
_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _finite(values):
    return [v for v in values if v is not None and math.isfinite(v)]


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _fmt(v: float) -> str:
    return f"{v:.3g}"


def _el(tag: str, body=None, **attrs) -> str:
    """One SVG element: attributes in the order given, ``_`` in a name
    written as ``-``, floats to one decimal and anything else as is."""
    text = " ".join(
        f'{name.replace("_", "-")}="{f"{v:.1f}" if isinstance(v, float) else v}"'
        for name, v in attrs.items()
    )
    return f"<{tag} {text}/>" if body is None else f"<{tag} {text}>{body}</{tag}>"


def _text(body, x, y, size: int, anchor=None, **attrs) -> str:
    """A sans-serif ``<text>`` with ``&``, ``<`` and ``>`` in ``body``
    escaped; ``anchor`` sets ``text-anchor`` when given."""
    body = str(body).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    align = {} if anchor is None else {"text_anchor": anchor}
    return _el("text", body, x=x, y=y, **align, font_family="sans-serif", font_size=size, **attrs)


def line_plot_svg(path, x_values, series, title: str, x_label: str, y_label: str) -> None:
    """Write a line chart.

    Parameters
    ----------
    x_values : sequence of float
        Shared x coordinates.
    series : list of (label, means, stderrs)
        One curve per entry; non-finite means are skipped pointwise and
        stderrs draw symmetric whiskers.
    """
    xs = [float(v) for v in x_values]
    all_y = []
    for _, means, stderrs in series:
        for m, s in zip(means, stderrs):
            if m is not None and math.isfinite(m):
                all_y.append(m - (s or 0.0))
                all_y.append(m + (s or 0.0))
    x_fin = _finite(xs)
    x_lo, x_hi = (min(x_fin), max(x_fin)) if x_fin else (0.0, 1.0)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    y_lo, y_hi = (min(all_y), max(all_y)) if all_y else (0.0, 1.0)
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B
    bottom, mid_x, mid_y = _MARGIN_T + plot_h, _MARGIN_L + plot_w / 2, _MARGIN_T + plot_h / 2

    def sx(v: float) -> float:
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v: float) -> float:
        return _MARGIN_T + plot_h - (v - y_lo) / (y_hi - y_lo) * plot_h

    axis = "#333333"
    parts = [
        _el("rect", width=_WIDTH, height=_HEIGHT, fill="white"),
        _text(title, _WIDTH / 2, 24, 15, "middle", font_weight="bold"),
        _el("line", x1=_MARGIN_L, y1=bottom, x2=_MARGIN_L + plot_w, y2=bottom, stroke=axis,
            stroke_width=1),
        _el("line", x1=_MARGIN_L, y1=_MARGIN_T, x2=_MARGIN_L, y2=bottom, stroke=axis,
            stroke_width=1),
    ]
    for tick in _ticks(x_lo, x_hi):
        px = sx(tick)
        parts.append(_el("line", x1=px, y1=bottom, x2=px, y2=bottom + 5, stroke=axis))
        parts.append(_text(_fmt(tick), px, bottom + 20, 11, "middle"))
    for tick in _ticks(y_lo, y_hi):
        py = sy(tick)
        parts.append(_el("line", x1=_MARGIN_L - 5, y1=py, x2=_MARGIN_L, y2=py, stroke=axis))
        parts.append(_el("line", x1=_MARGIN_L, y1=py, x2=_MARGIN_L + plot_w, y2=py,
                         stroke="#dddddd", stroke_width=0.5))
        parts.append(_text(_fmt(tick), _MARGIN_L - 9, py + 4, 11, "end"))
    parts.append(_text(x_label, mid_x, _HEIGHT - 14, 13, "middle"))
    parts.append(_text(y_label, 20, mid_y, 13, "middle", transform=f"rotate(-90 20 {mid_y:.1f})"))

    for s_idx, (label, means, stderrs) in enumerate(series):
        color = _PALETTE[s_idx % len(_PALETTE)]
        points = [
            (sx(x), sy(m), s or 0.0, m)
            for x, m, s in zip(xs, means, stderrs)
            if m is not None and math.isfinite(m)
        ]
        if points:
            poly = " ".join(f"{px:.1f},{py:.1f}" for px, py, _, _ in points)
            parts.append(_el("polyline", points=poly, fill="none", stroke=color, stroke_width=2))
            for px, py, err, m in points:
                if err > 0:
                    top, bot = sy(m + err), sy(m - err)
                    parts.append(_el("line", x1=px, y1=top, x2=px, y2=bot, stroke=color,
                                     stroke_width=1))
                    for wy in (top, bot):
                        parts.append(_el("line", x1=px - 4, y1=wy, x2=px + 4, y2=wy,
                                         stroke=color, stroke_width=1))
                parts.append(_el("circle", cx=px, cy=py, r=3, fill=color))
        legend_y = _MARGIN_T + 14 + 18 * s_idx
        legend_x = _MARGIN_L + plot_w - 130
        parts.append(_el("line", x1=legend_x, y1=legend_y - 4, x2=legend_x + 22, y2=legend_y - 4,
                         stroke=color, stroke_width=2))
        parts.append(_text(label, legend_x + 28, legend_y, 12))

    if not any(_finite(means) for _, means, _ in series):
        parts.append(_text("no data", mid_x, mid_y, 13, "middle", fill="#888888"))

    svg = _el("svg", "\n" + "\n".join(parts) + "\n", xmlns="http://www.w3.org/2000/svg",
              width=_WIDTH, height=_HEIGHT, viewBox=f"0 0 {_WIDTH} {_HEIGHT}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg + "\n")
