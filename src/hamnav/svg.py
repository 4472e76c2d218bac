"""Minimal deterministic SVG emission for episode artifacts.

World coordinates map to pixels through the documented affine transform

    px = pad + (x - x_min) * scale
    py = pad + (y_max - y) * scale      (y axis flips)

Elements render in insertion order, so output bytes are reproducible.
"""

from __future__ import annotations

import numpy as np


class SvgCanvas:
    def __init__(self, x_min, y_min, x_max, y_max, width=640, pad=20):
        self.x_min, self.y_min = float(x_min), float(y_min)
        self.y_max = float(y_max)
        span_x = max(x_max - x_min, 1e-9)
        span_y = max(y_max - y_min, 1e-9)
        self.scale = (width - 2 * pad) / span_x
        self.pad = pad
        self.width = width
        self.height = int(2 * pad + span_y * self.scale)
        self._elems = []

    def to_px(self, x, y):
        return (self.pad + (x - self.x_min) * self.scale,
                self.pad + (self.y_max - y) * self.scale)

    def rect(self, x, y, w, h, stroke="#888", fill="none", opacity=1.0, stroke_width=1.0):
        px, py = self.to_px(x, y + h)
        self._elems.append(
            f'<rect x="{px:.2f}" y="{py:.2f}" width="{w * self.scale:.2f}" '
            f'height="{h * self.scale:.2f}" stroke="{stroke}" fill="{fill}" '
            f'opacity="{opacity:g}" stroke-width="{stroke_width:g}"/>')

    def circle(self, cx, cy, r, stroke="#333", fill="#bbb", opacity=1.0):
        px, py = self.to_px(cx, cy)
        self._elems.append(
            f'<circle cx="{px:.2f}" cy="{py:.2f}" r="{r * self.scale:.2f}" '
            f'stroke="{stroke}" fill="{fill}" opacity="{opacity:g}"/>')

    def polyline(self, points, stroke="#d22", stroke_width=1.5, opacity=1.0, fill="none"):
        if len(points) == 0:
            return
        txt = " ".join(f"{x:.2f},{y:.2f}" for x, y in (self.to_px(*p) for p in points))
        self._elems.append(
            f'<polyline points="{txt}" stroke="{stroke}" fill="{fill}" '
            f'stroke-width="{stroke_width:g}" opacity="{opacity:g}"/>')

    def marker(self, x, y, kind="star", color="#0a0"):
        px, py = self.to_px(x, y)
        if kind == "star":
            self._elems.append(
                f'<text x="{px:.2f}" y="{py:.2f}" font-size="16" fill="{color}" '
                f'text-anchor="middle">*</text>')
        else:
            self._elems.append(
                f'<rect x="{px - 5:.2f}" y="{py - 5:.2f}" width="10" height="10" '
                f'stroke="{color}" fill="none"/>')

    def text(self, x, y, s, size=11, color="#000"):
        px, py = self.to_px(x, y)
        self._elems.append(
            f'<text x="{px:.2f}" y="{py:.2f}" font-size="{size}" fill="{color}">{s}</text>')

    def to_string(self) -> str:
        body = "\n".join(self._elems)
        return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
                f'height="{self.height}">\n{body}\n</svg>\n')

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_string())


def plot_workspace(canvas: SvgCanvas, ws):
    canvas.rect(0, 0, ws.side, ws.side, stroke="#000")
    if ws.grid is not None:
        occ = ws.grid.occupied
        cs = ws.grid.cell_size
        for r in range(occ.shape[0]):
            row = occ[r]
            c = 0
            while c < len(row):  # merge runs of wall cells into single rects
                if row[c]:
                    c0 = c
                    while c < len(row) and row[c]:
                        c += 1
                    canvas.rect(c0 * cs, r * cs, (c - c0) * cs, cs,
                                stroke="none", fill="#555")
                else:
                    c += 1
    for ob in ws.obstacles:
        canvas.circle(ob.center[0], ob.center[1], ob.radius, fill="#c9c9c9")
    canvas.marker(ws.start[0], ws.start[1], "star", "#0a0")
    canvas.marker(ws.goal[0], ws.goal[1], "square", "#d00")


def plot_episode(ws, positions, windows=(), outlines=(), extra_note=""):
    """Trajectory overlay: workspace, visited windows, path, and each of the
    ring ``outlines`` (EpisodeResult.outlines, or ring_snapshots.json)."""
    canvas = SvgCanvas(0, 0, ws.side, ws.side)
    plot_workspace(canvas, ws)
    for center, half in windows:
        canvas.rect(center[0] - half, center[1] - half, 2 * half, 2 * half,
                    stroke="#2ab7ca", opacity=0.35, stroke_width=0.8)
    positions = np.asarray(positions, float)
    if positions.size:
        canvas.polyline(positions, stroke="#d22", stroke_width=2.0)
    for outline in outlines:
        closed = np.vstack([outline, outline[:1]])
        canvas.polyline(closed, stroke="#46a", stroke_width=0.8, opacity=0.7)
    if extra_note:
        canvas.text(0.2, ws.side - 0.2, extra_note)
    return canvas


def plot_timeseries(times, series: dict, width=640, height=240, pad=34):
    """One polyline per named series over a shared time axis."""
    times = np.asarray(times, float)
    canvas = SvgCanvas(0, 0, 1, 1, width=width, pad=0)
    canvas.height = height
    palette = ["#d22", "#27a", "#2a2", "#a2a", "#aa2", "#777", "#c60", "#066"]
    vals = [np.asarray(v, float) for v in series.values()]
    finite = np.concatenate([v[np.isfinite(v)] for v in vals]) if vals else np.zeros(1)
    lo, hi = (float(finite.min()), float(finite.max())) if finite.size else (0, 1)
    if hi - lo < 1e-12:
        hi = lo + 1.0
    t0, t1 = (float(times.min()), float(times.max())) if times.size else (0.0, 1.0)
    if t1 - t0 < 1e-12:
        t1 = t0 + 1.0

    def to_px(t, v):
        return (pad + (t - t0) / (t1 - t0) * (width - 2 * pad),
                height - pad - (v - lo) / (hi - lo) * (height - 2 * pad))

    elems = [f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" '
             f'height="{height - 2 * pad}" stroke="#000" fill="none"/>']
    for k, (name, v) in enumerate(series.items()):
        v = np.asarray(v, float)
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in
                       (to_px(t, val) for t, val in zip(times, v) if np.isfinite(val)))
        color = palette[k % len(palette)]
        elems.append(f'<polyline points="{pts}" stroke="{color}" fill="none" '
                     f'stroke-width="1.2"/>')
        elems.append(f'<text x="{pad + 4}" y="{pad + 14 + 13 * k}" font-size="11" '
                     f'fill="{color}">{name}</text>')
    elems.append(f'<text x="{pad}" y="{height - 8}" font-size="10" fill="#000">'
                 f't in [{t0:g}, {t1:g}], values in [{lo:.3g}, {hi:.3g}]</text>')
    body = "\n".join(elems)
    svg = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}">\n{body}\n</svg>\n')
    return svg
