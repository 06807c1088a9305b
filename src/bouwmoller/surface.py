"""Semi-regular polygon presentations of Bouw-Moller surfaces M(m,n)."""

import json
import math

from .tracer import _candidates, _exit


class NonPositiveShape(ValueError):
    """Raised when side lengths give no semi-regular polygon with a positive side."""


def polygon_params(m, n, k):
    """Side lengths (even class, odd class) of polygon k of M(m,n)."""
    # snap the end polygons' vanishing sides to exact zero so degenerate
    # edges stay degenerate in floating point (sin(pi) != 0.0)
    s_back = math.sin(k * math.pi / m) if k > 0 else 0.0
    s_fwd = math.sin((k + 1) * math.pi / m) if k + 1 < m else 0.0
    if n % 2 == 1 or k % 2 == 0:
        return s_back, s_fwd
    return s_fwd, s_back


def forward_class(m, n, k):
    """Edge-index parity (0 or 1) of the sides polygon k shares with polygon k+1."""
    return 1 if (n % 2 == 1 or k % 2 == 0) else 0


def side_length_scale(m, n):
    """Similarity factor normalizing the presentation against its dual.

    Scaling the trigonometric side lengths by this factor gives M(m,n) the
    same area as the dual presentation M(n,m) normalized to unit shortest
    side; for (4,3) it is sqrt(2*sqrt(6)/3).
    """
    return 1.0 / math.sqrt(math.sin(math.pi / m) * math.sin(math.pi / n))


class Polygon:
    """One semi-regular 2n-gon with vertices in counterclockwise order.

    Edge i runs from vertex i to vertex i+1 in direction i*pi/n and has
    length a (i even) or b (i odd).  Zero-length edges are kept as markers
    so edge indices always run over 0..2n-1.
    """

    def __init__(self, n, a, b):
        if not (math.isfinite(a) and math.isfinite(b)) or a < 0 or b < 0 \
                or (a == 0 and b == 0):
            raise NonPositiveShape(f"invalid side lengths a={a}, b={b}")
        self.n = n
        self.a = a
        self.b = b
        pts = [(0.0, 0.0)]
        for i in range(2 * n):
            vx, vy = self.edge_vector(i)
            px, py = pts[-1]
            pts.append((px + vx, py + vy))
        if math.hypot(pts[-1][0], pts[-1][1]) >= 1e-9 * (1 + a + b):
            raise NonPositiveShape(f"side lengths a={a}, b={b} do not close "
                                   f"a {2 * n}-gon")
        self.vertices = pts[:-1]

    def edge_length(self, i):
        return self.a if i % 2 == 0 else self.b

    def edge_vector(self, i):
        r = self.edge_length(i)
        ang = i * math.pi / self.n
        return r * math.cos(ang), r * math.sin(ang)

    def edge(self, i):
        return self.vertices[i], self.vertices[(i + 1) % (2 * self.n)]

    def edge_midpoint(self, i):
        p, q = self.edge(i)
        return (p[0] + q[0]) / 2, (p[1] + q[1]) / 2

    def is_degenerate(self, i):
        return self.edge_length(i) == 0

    def edge_rows(self):
        """(i, ax, ay, ex, ey, bx, by) per non-degenerate edge i from a to b.

        e = b - a, so ex and ey are computed from the vertices.
        """
        rows = []
        for i in range(2 * self.n):
            if not self.is_degenerate(i):
                (ax, ay), (bx, by) = self.edge(i)
                rows.append((i, ax, ay, bx - ax, by - ay, bx, by))
        return rows

    def translate(self, dx, dy):
        self.vertices = [(x + dx, y + dy) for x, y in self.vertices]

    def bounds(self):
        xs = [p[0] for p in self.vertices]
        ys = [p[1] for p in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)

    def contains(self, p, tol=0.0):
        """True if p lies in the (closed, convex) polygon with slack tol."""
        x, y = p
        for _, ax, ay, ex, ey, _, _ in self.edge_rows():
            if ex * (y - ay) - ey * (x - ax) < -tol:
                return False
        return True


class Side:
    """A glued side of the surface: one label, two polygon edge slots."""

    def __init__(self, label, row, seats, length, direction):
        self.label = label
        self.row = row
        self.seats = seats  # [(polygon, edge), (polygon, edge)], forward seat first
        self.length = length
        self.direction = direction  # angle mod pi in [0, pi)


class Surface:
    """M(m,n): a horizontal chain of m semi-regular 2n-gons glued edge to edge.

    Defined for m >= 2 and n >= 3; other parameters raise NonPositiveShape.

    Sides are labeled 1..n(m-1); the sides between polygons r-1 and r form
    row r and are numbered in the zigzag order induced by rays alternating
    between directions pi and pi/n from side midpoints.

    The tracing geometry is built once: edge_table[k] holds
    polygon k's edge_rows(), and glue_table[k][e] is (label, k2, e2, sx, sy)
    for the seat (k, e), glued to seat (k2, e2) by the translation (sx, sy).
    """

    def __init__(self, m, n):
        if m < 2 or n < 3:
            raise NonPositiveShape(f"need m >= 2 and n >= 3, got ({m}, {n})")
        self.m = m
        self.n = n
        self.polygons = [Polygon(n, *polygon_params(m, n, k)) for k in range(m)]
        x = 0.0
        for poly in self.polygons:
            x0, y0, x1, _ = poly.bounds()
            poly.translate(x - x0, -y0)
            x += x1 - x0
        self.edge_table = [poly.edge_rows() for poly in self.polygons]
        self.sides = self._label_edges()
        self.seat_label = {}
        self.glue_table = [[None] * (2 * n) for _ in range(m)]
        for side in self.sides.values():
            s1, s2 = side.seats
            for (k, e), (k2, e2) in ((s1, s2), (s2, s1)):
                self.seat_label[(k, e)] = side.label
                b = self.polygons[k].edge(e)[1]
                a2 = self.polygons[k2].edge(e2)[0]
                self.glue_table[k][e] = (side.label, k2, e2,
                                         a2[0] - b[0], a2[1] - b[1])

    def _zigzag(self, k):
        """Edge indices of polygon k's forward sides in zigzag label order."""
        poly = self.polygons[k]
        cls = forward_class(self.m, self.n, k)
        order = [1 if cls == 1 else 0]
        rays = [math.pi, math.pi / self.n] if cls == 1 else [math.pi / self.n, math.pi]
        for j in range(self.n - 1):
            ang = rays[j % 2]
            d = (math.cos(ang), math.sin(ang))
            p = poly.edge_midpoint(order[-1])
            hit = _exit(_candidates(self.edge_table[k], d), p, d,
                        skip=order[-1])[0]
            if hit % 2 != cls:
                raise RuntimeError(f"zigzag ray of polygon {k} left the "
                                   f"forward class at edge {hit}")
            order.append(hit)
        return order

    def _label_edges(self):
        sides = {}
        for r in range(1, self.m):
            k = r - 1
            order = self._zigzag(k)
            for j, e in enumerate(order):
                label = (r - 1) * self.n + j + 1
                partner = (e + self.n) % (2 * self.n)
                if self.polygons[k + 1].is_degenerate(partner):
                    raise RuntimeError(f"side {label} is glued to degenerate "
                                       f"edge {partner} of polygon {k + 1}")
                ang = (e * math.pi / self.n) % math.pi
                sides[label] = Side(label, r, [(k, e), (k + 1, partner)],
                                    self.polygons[k].edge_length(e), ang)
        return sides

    @property
    def labels(self):
        return range(1, self.n * (self.m - 1) + 1)

    def row(self, label):
        return (label - 1) // self.n + 1

    def seats(self, label):
        return self.sides[label].seats

    def glue(self, k, e):
        """Image seat and translation for crossing edge e of polygon k."""
        if (k, e) not in self.seat_label:
            raise KeyError((k, e))
        _, k2, e2, sx, sy = self.glue_table[k][e]
        return (k2, e2), (sx, sy)

    def to_json(self, indent=None):
        data = {
            "m": self.m,
            "n": self.n,
            "polygons": [
                {"a": _num(p.a), "b": _num(p.b),
                 "vertices": [[_num(x), _num(y)] for x, y in p.vertices]}
                for p in self.polygons
            ],
            "sides": [
                {"label": s.label, "row": s.row, "seats": [list(t) for t in s.seats],
                 "length": _num(s.length), "direction": _num(s.direction)}
                for s in (self.sides[l] for l in self.labels)
            ],
        }
        return json.dumps(data, sort_keys=True, indent=indent)

    def to_svg(self, segments=(), width=640):
        """SVG picture of the polygon chain, with optional overlay segments."""
        xs0 = min(p.bounds()[0] for p in self.polygons)
        ys0 = min(p.bounds()[1] for p in self.polygons)
        xs1 = max(p.bounds()[2] for p in self.polygons)
        ys1 = max(p.bounds()[3] for p in self.polygons)
        pad = 0.1 * max(xs1 - xs0, ys1 - ys0, 1e-9)
        sc = width / (xs1 - xs0 + 2 * pad)
        heightpx = (ys1 - ys0 + 2 * pad) * sc

        def pt(x, y):
            return f"{(x - xs0 + pad) * sc:.2f},{(ys1 + pad - y) * sc:.2f}"

        out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
               f'height="{heightpx:.0f}" viewBox="0 0 {width:.0f} {heightpx:.0f}">']
        for poly in self.polygons:
            pts = " ".join(pt(x, y) for x, y in poly.vertices)
            out.append(f'<polygon points="{pts}" fill="none" stroke="black"/>')
        for label in self.labels:
            for k, e in self.seats(label):
                mx, my = self.polygons[k].edge_midpoint(e)
                out.append(f'<text x="{(mx - xs0 + pad) * sc:.2f}" '
                           f'y="{(ys1 + pad - my) * sc:.2f}" font-size="10">{label}</text>')
        for (x0, y0), (x1, y1) in segments:
            out.append(f'<polyline points="{pt(x0, y0)} {pt(x1, y1)}" '
                       f'fill="none" stroke="red"/>')
        out.append("</svg>")
        return "\n".join(out)


def _num(x):
    """Round to 12 significant digits for canonical output."""
    return float(f"{x:.12g}")


def build_surface(m, n):
    return Surface(m, n)
