"""Hooper diagrams: the graph behind the cylinder decomposition of M(m,n).

Interior nodes (i,j), 1 <= i <= m-1, 1 <= j <= n-1, are white when i+j is
even (horizontal cylinders) and black otherwise.  Edges are H(i,J) between
nodes (i,J-1)-(i,J) and V(I,j) between (I-1,j)-(I,j) over the augmented
grid 0..m x 0..n; each edge not joining two boundary nodes carries one of
the basic rectangles of the orthogonal presentation, whose diagonals realize
one side of M(m,n) (H edges) or of the dual M(n,m) (V edges).
"""

import math
from functools import lru_cache


class MalformedDiagram(Exception):
    """Structural inconsistency in a Hooper diagram traversal."""


def is_white(node):
    return (node[0] + node[1]) % 2 == 0


class HooperDiagram:
    """Augmented Hooper diagram with edge labels and orbit permutations."""

    def __init__(self, m, n):
        self.m = m
        self.n = n
        self.h_edges = [("H", i, j) for i in range(m + 1) for j in range(1, n + 1)]
        self.v_edges = [("V", i, j) for i in range(1, m + 1) for j in range(n + 1)]

    def edges(self):
        return self.h_edges + self.v_edges

    def endpoints(self, e):
        kind, i, j = e
        if kind == "H":
            return (i, j - 1), (i, j)
        return (i - 1, j), (i, j)

    def is_interior(self, node):
        i, j = node
        return 1 <= i <= self.m - 1 and 1 <= j <= self.n - 1

    def white_end(self, e):
        a, b = self.endpoints(e)
        return a if is_white(a) else b

    def black_end(self, e):
        a, b = self.endpoints(e)
        return b if is_white(a) else a

    def label(self, e):
        """Side label carried by the edge, or None."""
        kind, i, j = e
        if kind == "H":
            if not 1 <= i <= self.m - 1:
                return None
            return (i - 1) * self.n + j if i % 2 == 1 else i * self.n + 1 - j
        if not 1 <= j <= self.n - 1:
            return None
        return (j - 1) * self.m + i if j % 2 == 1 else j * self.m + 1 - i

    def is_completely_degenerate(self, e):
        a, b = self.endpoints(e)
        return not self.is_interior(a) and not self.is_interior(b)

    def star(self, node):
        """Incident edges in the cyclic order down, right, up, left."""
        i, j = node
        cand = [("V", i + 1, j), ("H", i, j + 1), ("V", i, j), ("H", i, j)]

        def exists(e):
            kind, a, b = e
            if kind == "H":
                return 0 <= a <= self.m and 1 <= b <= self.n
            return 1 <= a <= self.m and 0 <= b <= self.n

        return [e for e in cand if exists(e)]

    def _step(self, e, node, forward):
        ring = self.star(node)
        k = ring.index(e)
        return ring[(k + (1 if forward else -1)) % len(ring)]

    def east(self, e):
        """Next edge east of e within its horizontal cylinder."""
        w = self.white_end(e)
        return self._step(e, w, forward=w[0] % 2 == 1)

    def north(self, e):
        """Next edge north of e within its transverse cylinder."""
        b = self.black_end(e)
        return self._step(e, b, forward=b[1] % 2 == 1)

    def to_dot(self):
        out = ["graph hooper {"]
        for i in range(self.m + 1):
            for j in range(self.n + 1):
                fill = "white" if is_white((i, j)) else "black"
                shape = "circle" if self.is_interior((i, j)) else "point"
                out.append(f'  "{i},{j}" [shape={shape}, style=filled, fillcolor={fill}];')
        for e in self.edges():
            if self.is_completely_degenerate(e):
                continue
            (a, b) = self.endpoints(e)
            lab = self.label(e)
            tag = f' [label="{e[0]}{lab}"]' if lab is not None else ""
            out.append(f'  "{a[0]},{a[1]}" -- "{b[0]},{b[1]}"{tag};')
        out.append("}")
        return "\n".join(out)


@lru_cache(maxsize=None)
def build_hooper(m, n):
    return HooperDiagram(m, n)


def widths(m, n):
    """Critical eigenfunction w(i,j) = sin(i pi/m) sin(j pi/n) per node."""
    return {(i, j): math.sin(i * math.pi / m) * math.sin(j * math.pi / n)
            for i in range(m + 1) for j in range(n + 1)}


def heights(m, n):
    """Cylinder circumferences: sum of the neighbor widths at each node."""
    w = widths(m, n)
    out = {}
    for i in range(1, m):
        for j in range(1, n):
            out[(i, j)] = sum(w[u] for u in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)))
    return out


def moduli(m, n):
    """Cylinder moduli height/(width sin(pi/n)); constant across the surface."""
    w, h = widths(m, n), heights(m, n)
    return {v: h[v] / (w[v] * math.sin(math.pi / n)) for v in h}


class OrthogonalPresentation:
    """Straight-line tracing across the basic rectangles.

    A state is (edge, x, y) with (x, y) in the box rect[edge].  Positive-slope
    motion exits east into east(edge) or north into north(edge); degenerate
    boxes are crossed instantaneously.  Each traversal of a box crosses its
    side diagonal once; a traversal of a V box also crosses the dual side
    diagonal when the corner-to-corner test changes sign.
    The dual labels recorded between the first and last side records are
    the derivative of the side word, so this presentation checks
    `renorm.derive` without the polygon tracer or `diagrams.build_D0`.
    """

    def __init__(self, m, n):
        self.m = m
        self.n = n
        self.g = build_hooper(m, n)
        w = widths(m, n)
        self.rect = {e: (w[self.g.black_end(e)], w[self.g.white_end(e)])
                     for e in self.g.edges() if not self.g.is_completely_degenerate(e)}
        self.east_north = {e: (self.g.east(e), self.g.north(e)) for e in self.rect}

    def trace(self, edge, x, y, slope, steps):
        """Crossing records ('side'|'dual', label) for `steps` rectangles."""
        out = []
        for _ in range(steps):
            w, h = self.rect[edge]
            if w == 0:
                exit_east, x1, y1 = True, 0.0, y
            elif h == 0:
                exit_east, x1, y1 = False, x, 0.0
            else:
                y_east = y + slope * (w - x)
                if y_east <= h:
                    exit_east, x1, y1 = True, w, y_east
                else:
                    exit_east, x1, y1 = False, x + (h - y) / slope, h
            self._record(edge, x, y, x1, y1, out)
            east, north = self.east_north[edge]
            if exit_east:
                edge, x, y = east, 0.0, y1
            else:
                edge, x, y = north, x1, 0.0
            if edge not in self.rect:
                raise MalformedDiagram(f"trace left the rectangles at {edge}")
        return out

    def _record(self, edge, x0, y0, x1, y1, out):
        lab = self.g.label(edge)
        if lab is None:
            return
        if edge[0] == "H":
            out.append(("side", lab))
            return
        w, h = self.rect[edge]
        if w == 0 or h == 0:
            out.append(("dual", lab))
            return
        g0 = y0 * w - x0 * h
        g1 = y1 * w - x1 * h
        if g0 >= 0 >= g1 or g0 <= 0 <= g1:
            out.append(("dual", lab))
