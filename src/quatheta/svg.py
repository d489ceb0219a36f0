"""Deterministic SVG figures for the plot subcommand.

Coordinates are computed exactly (ints and Fractions) and rounded only
when written, so identical arguments give byte-identical SVG text.
Fraction is imported where a figure is drawn, so that importing the
package does not load fractions.  The cases drawn together in a cone
figure, and their lambdas, come from the case table in aqmodules, the
one source of lambda shapes, chamber rho, wall weights and sibling sets.
"""

from __future__ import annotations

from .aqmodules import (
    AqCase, _siblings, abc_to_xy, aq_data, cone_extreme_rays,
)

_PAD = 30
_UX = 40
_UY = 70  # _UX * 7/4: hexagonal-lattice vertical scaling


def _px(x, xmin) -> str:
    return f"{float(_PAD + (x - xmin) * _UX):.2f}"


def _py(y, ymax) -> str:
    return f"{float(_PAD + (ymax - y) * _UY):.2f}"


_PALETTE = ("#c0392b", "#27ae60", "#2980b9", "#e67e22")


def _ray_end(apex, d, xmin, xmax, ymin, ymax):
    """Farthest point of apex + t*d inside the viewport box, exact."""
    from fractions import Fraction

    ts = []
    for a0, dv, lo, hi in (
        (apex[0], d[0], xmin, xmax), (apex[1], d[1], ymin, ymax)
    ):
        if dv > 0:
            ts.append(Fraction(hi - a0, dv))
        elif dv < 0:
            ts.append(Fraction(lo - a0, dv))
    t = min(ts)
    return (apex[0] + t * d[0], apex[1] + t * d[1])


def _svg_cones(group: str, lam) -> str:
    """The K-type cones of the cases sharing lam's infinitesimal character
    in G2 or PU21, over the lattice; the bare lattice when lam is None."""
    overlays = []
    if lam is not None:
        for (cid, sub_lam), color in zip(_siblings(group, lam), _PALETTE):
            case = AqCase(group, cid, sub_lam)
            data = aq_data(case)
            overlays.append((
                cid, color, data.minimal_type_xy, cone_extreme_rays(case),
                abc_to_xy(sub_lam),
            ))
    if overlays:
        xs = [p[0] for _, _, apex, _, lxy in overlays for p in (apex, lxy)]
        ys = [p[1] for _, _, apex, _, lxy in overlays for p in (apex, lxy)]
        xmin = 0 if group == "G2" else min(0, min(xs) - 1)
        xmax = max(xs) + 1
        ymin = 0 if group == "G2" else min(0, min(ys))
        ymax = max(ys) + 1
    else:
        xmin, xmax, ymin, ymax = 0, 14, 0, 8
    width = 2 * _PAD + (xmax - xmin) * _UX
    height = 2 * _PAD + (ymax - ymin) * _UY
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for y in range(ymin, ymax + 1):
        for x in range(xmin, xmax + 1):
            if group == "G2" and (x < 0 or y < 0):
                continue
            if group == "PU21" and x < -3 * y:
                continue
            out.append(
                f'<circle cx="{_px(x, xmin)}" cy="{_py(y, ymax)}" r="2" '
                f'fill="#bbbbbb"/>'
            )
    for cid, color, apex, rays, lxy in overlays:
        for d in dict.fromkeys(rays):
            ex, ey = _ray_end(apex, d, xmin, xmax, ymin, ymax)
            out.append(
                f'<line x1="{_px(apex[0], xmin)}" y1="{_py(apex[1], ymax)}" '
                f'x2="{_px(ex, xmin)}" y2="{_py(ey, ymax)}" '
                f'stroke="{color}" stroke-width="2.5"/>'
            )
        out.append(
            f'<circle cx="{_px(apex[0], xmin)}" cy="{_py(apex[1], ymax)}" '
            f'r="5" fill="{color}"/>'
        )
        out.append(
            f'<circle cx="{_px(lxy[0], xmin)}" cy="{_py(lxy[1], ymax)}" '
            f'r="5" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        tx = float(_px(apex[0], xmin)) + 8
        ty = float(_py(apex[1], ymax)) - 8
        out.append(
            f'<text x="{tx:.2f}" y="{ty:.2f}" fill="{color}" '
            f'font-family="sans-serif" font-size="14">{cid}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _svg_ledger(led) -> str:
    """Histogram of a KTypeLedger's level dimensions by outer label."""
    from fractions import Fraction

    dims = [led.level_dimension(k) for k in range(led.kmax + 1)]
    labels = [su0 for su0, _ in led.levels]
    n = len(dims)
    bar_w, gap, plot_h = 40, 20, 300
    width = 2 * _PAD + n * (bar_w + gap)
    height = 2 * _PAD + plot_h + 20
    top = _PAD
    base = _PAD + plot_h
    peak = max(dims) if dims else 1
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{_PAD}" y1="{base}" x2="{width - _PAD}" y2="{base}" '
        f'stroke="#333333" stroke-width="1"/>',
    ]
    for i, (su0, dim) in enumerate(zip(labels, dims)):
        h = Fraction(dim * plot_h, peak)
        x = _PAD + i * (bar_w + gap) + gap // 2
        y = base - h
        out.append(
            f'<rect x="{x}" y="{float(y):.2f}" width="{bar_w}" '
            f'height="{float(h):.2f}" fill="#2980b9"/>'
        )
        out.append(
            f'<text x="{x + bar_w // 2}" y="{base + 16}" fill="#333333" '
            f'font-family="sans-serif" font-size="12" '
            f'text-anchor="middle">{su0}</text>'
        )
        out.append(
            f'<text x="{x + bar_w // 2}" y="{float(y) - 4:.2f}" '
            f'fill="#333333" font-family="sans-serif" font-size="10" '
            f'text-anchor="middle">{dim}</text>'
        )
    out.append(
        f'<text x="{width // 2}" y="{base + 36}" fill="#333333" '
        f'font-family="sans-serif" font-size="12" '
        f'text-anchor="middle">outer SU(2) label</text>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"
