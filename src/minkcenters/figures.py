"""Static SVG figures for planar instances.

Conventions: the relevant part of the Euler line [M, P_M] is drawn bold,
sphere radii as dotted segments, circles as sampled outlines of the norm's
unit sphere (scaled and translated), and every reported center gets a marker
with its label.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

import numpy as np

from .centers import full_report, monge_lines
from .polygon import parallelepiped_lift, subpolygon_family

__all__ = ["render_figure", "SHOW_MODES"]

SHOW_MODES = ("euler", "feuerbach", "monge", "clifford-lift")


def _sphere_outline(norm, center, radius, n=256):
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    U = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return center + radius * U / norm(U)[:, None]


class _Canvas:
    def __init__(self, points, width):
        pts = np.asarray(points, dtype=float)
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        span = max((hi - lo).max(), 1e-9)
        margin = 0.08 * span
        lo -= margin
        hi += margin
        self.lo, self.scale = lo, (width - 1) / (hi - lo).max()
        self.width = width
        self.height = int(np.ceil((hi - lo)[1] * self.scale)) + 1
        self.svg = ET.Element("svg", xmlns="http://www.w3.org/2000/svg",
                              version="1.1", width=f"{width}px",
                              height=f"{self.height}px",
                              viewBox=f"0 0 {width} {self.height}")

    def px(self, p):
        q = (np.asarray(p, dtype=float) - self.lo) * self.scale
        return q[0], self.height - q[1]

    def path(self, pts, close=False, **style):
        coords = [self.px(p) for p in pts]
        d = "M" + " L".join(f"{x:.2f} {y:.2f}" for x, y in coords)
        if close:
            d += " Z"
        ET.SubElement(self.svg, "path", d=d, fill="none", **style)

    def segment(self, a, b, **style):
        self.path([a, b], **style)

    def marker(self, p, label):
        x, y = self.px(p)
        ET.SubElement(self.svg, "circle", {"class": "marker", "cx": f"{x:.2f}",
                                           "cy": f"{y:.2f}", "r": "3",
                                           "fill": "black"})
        t = ET.SubElement(self.svg, "text", x=f"{x + 5:.2f}", y=f"{y - 5:.2f}")
        t.set("font-size", "12")
        t.text = label


def render_figure(instance, show="euler", width=600):
    """SVG (string) for a 2D instance; raises ValueError for d >= 3 or a
    width below 2 pixels."""
    if show not in SHOW_MODES:
        raise ValueError(f"unknown figure mode: {show!r}")
    if width < 2:
        raise ValueError("figure width must be at least 2 pixels")
    norm = instance.norm
    if instance.kind == "simplex":
        T = instance.simplex
        if T.dim != 2:
            raise ValueError("figures are planar only")
        rep = full_report(norm, T, tol=instance.tolerances)
        vertices = T.vertices
        M, R = rep.M, rep.R
        centers = {"M": rep.M, "G": rep.G, "F_M": rep.F_M, "N_M": rep.N_M, "P_M": rep.P_M}
        circles = {"circum": (M, R), "feuerbach": (rep.F_M, rep.feuerbach_radius)}
        incidences = np.concatenate([rep.facet_centroids, rep.division_points])
        lift = None
    else:
        P = instance.polygon
        rep = subpolygon_family(P)
        vertices = P.vertices
        M, R = P.M, P.R
        centers = {"M": M, "G": rep.G, "F_M": rep.F_M, "N_M": rep.N_M,
                   "P_M": rep.P_M, "C_M": rep.C_M}
        circles = {"circum": (M, R), "feuerbach": (rep.F_M, R / P.d),
                   "half_radius": (rep.C_M, R / 2)}
        incidences = np.concatenate([rep.sub_centroids, rep.midpoints])
        lift = parallelepiped_lift(P) if show == "clifford-lift" else None

    bounds = list(vertices) + list(centers.values())
    bounds += list(_sphere_outline(norm, *circles["circum"], n=64))
    if lift is not None:
        bounds += [p for _, p in lift]
    cv = _Canvas(bounds, width)

    cv.path(vertices, close=True, stroke="#333333", attrib={"stroke-width": "1.5"})
    cv.path(_sphere_outline(norm, *circles["circum"]), close=True,
            stroke="#888888", attrib={"stroke-width": "1"})
    # bold Euler segment [M, P_M]
    cv.segment(centers["M"], centers["P_M"], stroke="black",
               attrib={"stroke-width": "3"})

    if show == "feuerbach":
        for name in ("feuerbach", "half_radius"):
            if name not in circles:
                continue
            c, r = circles[name]
            cv.path(_sphere_outline(norm, c, r), close=True, stroke="#3366cc",
                    attrib={"stroke-width": "1"})
            # dotted radius segment
            cv.segment(c, _sphere_outline(norm, c, r, n=8)[1], stroke="#3366cc",
                       attrib={"stroke-width": "1", "stroke-dasharray": "3,3"})
        for q in incidences:
            x, y = cv.px(q)
            ET.SubElement(cv.svg, "circle", cx=f"{x:.2f}", cy=f"{y:.2f}", r="2",
                          fill="#3366cc")
    elif show == "monge":
        if instance.kind == "simplex":
            span = np.ptp(vertices, axis=0).max()
            for line in monge_lines(instance.simplex, centers["M"]):
                u = line.direction / np.linalg.norm(line.direction)
                cv.segment(line.base - 2 * span * u, line.base + 2 * span * u,
                           stroke="#cc6633", attrib={"stroke-width": "1"})
        else:
            for a, q in zip(vertices, rep.sub_monge):
                cv.segment(a, q, stroke="#cc6633", attrib={"stroke-width": "1"})
    elif show == "clifford-lift" and lift is not None:
        for _, p in lift:
            x, y = cv.px(p)
            ET.SubElement(cv.svg, "circle", cx=f"{x:.2f}", cy=f"{y:.2f}", r="2",
                          fill="#559955")

    # dotted circumradius segment, per the figure conventions
    cv.segment(centers["M"], vertices[0], stroke="#888888",
               attrib={"stroke-width": "1", "stroke-dasharray": "3,3"})
    for label, p in centers.items():
        cv.marker(p, label)
    return ET.tostring(cv.svg, encoding="unicode")
