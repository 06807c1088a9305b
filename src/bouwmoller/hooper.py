"""Hooper diagrams: the graph behind the cylinder decomposition of M(m,n).

Interior nodes (i,j), 1 <= i <= m-1, 1 <= j <= n-1, are white when i+j is
even (horizontal cylinders) and black otherwise.  Edges are H(i,J) between
nodes (i,J-1)-(i,J) and V(I,j) between (I-1,j)-(I,j) over the augmented
grid 0..m x 0..n; each edge not joining two boundary nodes carries one of
the basic rectangles of the orthogonal presentation, whose diagonals realize
one side of M(m,n) (H edges) or of the dual M(n,m) (V edges).  The
presentation itself, traced as an oracle for derivation, is built in
tests/test_hooper.py.
"""

import math

from .diagrams import _check_pair, t0_grid


def is_white(node):
    return (node[0] + node[1]) % 2 == 0


class HooperDiagram:
    """Augmented Hooper diagram with its edge labels."""

    def __init__(self, m, n):
        self.m = m
        self.n = n
        self.h_grid, self.v_grid = t0_grid(m, n), t0_grid(n, m)
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

    def label(self, e):
        """Side label carried by the edge, or None: H(i,j) carries slot (i,j)
        of T_0's grid, V(i,j) slot (j,i) of the dual T_0's grid."""
        kind, i, j = e
        if kind == "H":
            return self.h_grid[i - 1][j - 1] if 1 <= i <= self.m - 1 else None
        return self.v_grid[j - 1][i - 1] if 1 <= j <= self.n - 1 else None

    def is_completely_degenerate(self, e):
        a, b = self.endpoints(e)
        return not self.is_interior(a) and not self.is_interior(b)

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


def build_hooper(m, n):
    return HooperDiagram(m, n)


def widths(m, n):
    """Critical eigenfunction w(i,j) = sin(i pi/m) sin(j pi/n) per node.
    Raises NonPositiveShape for an m or n that is no int or below 2."""
    _check_pair(m, n)
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
