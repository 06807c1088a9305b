"""Semi-regular polygon presentations of Bouw-Moller surfaces M(m,n)."""

import json
import math
from functools import lru_cache


class NonPositiveShape(ValueError):
    """Raised when side lengths give no semi-regular polygon with a positive side."""


def _check_pair(m, n):
    """Raise NonPositiveShape, naming the pair, unless m and n are ints of
    at least 2: every record of the package is built for such a pair."""
    if not (isinstance(m, int) and isinstance(n, int)) or m < 2 or n < 2:
        raise NonPositiveShape(f"m and n must be ints of at least 2, "
                               f"got ({m!r}, {n!r})")


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


def side_seats(m, n, label):
    """Seats [(k, e), (k+1, e + n mod 2n)] of side label of M(m,n).

    Row r = k+1 holds labels (r-1)n+1..rn, numbered in the zigzag order of
    polygon k's forward sides: entry j is the edge the ray from entry j-1
    reaches, 2*ceil(j/2) edge indices from entry 0, on alternate sides of
    it.  Raises KeyError for a label outside 1..n(m-1).
    """
    if label not in range(1, n * (m - 1) + 1):
        raise KeyError(label)
    k, j = divmod(label - 1, n)
    c = forward_class(m, n, k)
    e = (c + (-1) ** (j + c + 1) * 2 * ((j + 1) // 2)) % (2 * n)
    return [(k, e), (k + 1, (e + n) % (2 * n))]


class Polygon:
    """One semi-regular 2n-gon with vertices in counterclockwise order.

    Edge i runs from vertex i to vertex i+1 in direction i*pi/n and has
    length a (i even) or b (i odd).  Zero-length edges are kept as markers
    so edge indices always run over 0..2n-1.  contains reads the edge rows
    stored whenever the vertices are placed, here and by translate.
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
            r, ang = self.edge_length(i), i * math.pi / n
            px, py = pts[-1]
            pts.append((px + r * math.cos(ang), py + r * math.sin(ang)))
        if math.hypot(pts[-1][0], pts[-1][1]) >= 1e-9 * (1 + a + b):
            raise NonPositiveShape(f"side lengths a={a}, b={b} do not close "
                                   f"a {2 * n}-gon")
        self.vertices = pts[:-1]
        self._rows = self.edge_rows()

    def edge_length(self, i):
        return self.a if i % 2 == 0 else self.b

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
        self._rows = self.edge_rows()

    def bounds(self):
        xs = [p[0] for p in self.vertices]
        ys = [p[1] for p in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)

    def contains(self, p, tol=0.0):
        """True if p lies in the (closed, convex) polygon with slack tol."""
        x, y = p
        if not (math.isfinite(x) and math.isfinite(y)):
            return False
        for _, ax, ay, ex, ey, _, _ in self._rows:
            if ex * (y - ay) - ey * (x - ax) < -tol:
                return False
        return True


class Surface:
    """M(m,n): a horizontal chain of m semi-regular 2n-gons glued edge to edge.

    Defined for ints m >= 2 and n >= 3; other parameters raise
    NonPositiveShape.

    Sides are labeled 1..n(m-1); the sides between polygons r-1 and r form
    row r and are numbered in the zigzag order induced by rays alternating
    between directions pi and pi/n from side midpoints (side_seats).

    The tracing geometry is built once: glue_table[k][e] is (label, k2, e2,
    sx, sy) for the seat (k, e), glued to seat (k2, e2) by the translation
    (sx, sy), and edge_table[k] holds polygon k's edge_rows(), each followed
    by |e|, label, k2, sx and sy.  build_surface shares one surface per
    (m, n), so treat it as read-only; Surface(m, n) builds a private copy.
    """

    def __init__(self, m, n):
        _check_pair(m, n)
        if n < 3:
            raise NonPositiveShape(f"need m >= 2 and n >= 3, got ({m}, {n})")
        self.m = m
        self.n = n
        self.polygons = [Polygon(n, *polygon_params(m, n, k)) for k in range(m)]
        x = 0.0
        for poly in self.polygons:
            x0, y0, x1, _ = poly.bounds()
            poly.translate(x - x0, -y0)
            x += x1 - x0
        self.glue_table = [[None] * (2 * n) for _ in range(m)]
        for label in self.labels:
            s1, s2 = side_seats(m, n, label)
            if self.polygons[s2[0]].is_degenerate(s2[1]):
                raise RuntimeError(f"side {label} is glued to degenerate "
                                   f"edge {s2[1]} of polygon {s2[0]}")
            for (k, e), (k2, e2) in ((s1, s2), (s2, s1)):
                b = self.polygons[k].edge(e)[1]
                a2 = self.polygons[k2].edge(e2)[0]
                self.glue_table[k][e] = (label, k2, e2,
                                         a2[0] - b[0], a2[1] - b[1])
        self.edge_table = [
            [row + (math.hypot(row[3], row[4]), label, k2, sx, sy)
             for row in poly._rows
             for label, k2, _, sx, sy in (glue[row[0]],)]
            for poly, glue in zip(self.polygons, self.glue_table)]

    @property
    def labels(self):
        return range(1, self.n * (self.m - 1) + 1)

    def row(self, label):
        return side_seats(self.m, self.n, label)[0][0] + 1

    def seats(self, label):
        return side_seats(self.m, self.n, label)

    def to_json(self, indent=None):
        data = {
            "m": self.m,
            "n": self.n,
            "polygons": [{"a": p.a, "b": p.b, "vertices": p.vertices}
                         for p in self.polygons],
            "sides": [],
        }
        for label in self.labels:
            (k, e), _ = seats = self.seats(label)
            data["sides"].append({
                "label": label, "row": self.row(label), "seats": seats,
                "length": self.polygons[k].edge_length(e),
                "direction": (e * math.pi / self.n) % math.pi})
        return _dumps(data, indent)

    def to_svg(self, segments=()):
        """SVG picture of the polygon chain, with optional overlay segments."""
        width = 640  # pixels
        x0s, y0s, x1s, y1s = zip(*(p.bounds() for p in self.polygons))
        xs0, ys0, xs1, ys1 = min(x0s), min(y0s), max(x1s), max(y1s)
        pad = 0.1 * max(xs1 - xs0, ys1 - ys0, 1e-9)
        sc = width / (xs1 - xs0 + 2 * pad)

        def pt(x, y):
            return f"{(x - xs0 + pad) * sc:.2f},{(ys1 + pad - y) * sc:.2f}"

        out = [f'<polygon points="{" ".join(pt(*v) for v in p.vertices)}" '
               'fill="none" stroke="black"/>' for p in self.polygons]
        for label in self.labels:
            for k, e in self.seats(label):
                x, y = pt(*self.polygons[k].edge_midpoint(e)).split(",")
                out.append(f'<text x="{x}" y="{y}" font-size="10">{label}</text>')
        for (x0, y0), (x1, y1) in segments:
            out.append(f'<polyline points="{pt(x0, y0)} {pt(x1, y1)}" '
                       f'fill="none" stroke="red"/>')
        return _svg(width, (ys1 - ys0 + 2 * pad) * sc, out)


def _canon(obj):
    """obj with tuples as lists and floats rounded to 12 significant digits."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    return obj


def _dumps(obj, indent=None):
    """The one canonical JSON writer: sorted keys, floats through _canon."""
    return json.dumps(_canon(obj), sort_keys=True, indent=indent,
                      ensure_ascii=False)


def _svg(width, height, elements):
    """The one SVG writer: elements in an envelope of whole pixels."""
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
            f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">')
    return "\n".join([head, *elements, "</svg>"])


def _dot(kind, name, statements):
    """The one DOT writer: a kind ("graph" or "digraph") block named name."""
    return "\n".join([f"{kind} {name} {{", *("  " + s for s in statements), "}"])


@lru_cache(maxsize=None, typed=True)
def build_surface(m, n):
    """M(m,n), built once and shared: read-only; Surface(m, n) is a copy."""
    return Surface(m, n)
