"""Linear trajectories and their cutting sequences on the polygon chain."""

import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import cached_property
from operator import itemgetter

from .surface import build_surface

EPS_GEO = 1e-9
# An edge e is an exit along d if d x e > EXIT_TOL.  Over 2 <= m <= 11,
# 3 <= n <= 11 and the directions j*pi/(2n), parallel edges give |d x e| at
# most 6.4e-15 and transverse ones at least 0.040.
EXIT_TOL = 1e-12
# How far behind its side, along the direction, a start point is placed.
BACK = 1e-7
# trace takes eight crossings per bisection from BLOCK_MIN on.  Against one,
# windows of 1 000, 2 000, 4 000 and 10 000 crossings took 1.48, 0.97, 0.65
# and 0.45 times as long (nine surfaces, 2-vCPU VM, Python 3.11.7).
BLOCK_MIN = 2000
# _square shrinks pulled-back cuts by BLOCK_ULPS ulps of the largest guard; at
# 1, 2 and 4 ulps its end check rejects 1 611, 29 and 0 pieces of the tests.
BLOCK_ULPS = 8


class VertexHit(Exception):
    """Trajectory passed within EPS_GEO of a polygon vertex."""


class NotCoAdjacent(ValueError):
    """No cylinder has the two sides as its alternating cutting sequence."""


class Crossing(namedtuple("Crossing", "label polygon point t entry")):
    """One side crossing: label, polygon left behind, hit point, ray parameter.

    entry is where the chord through that polygon ending at point starts.
    """

    __slots__ = ()


class CuttingWord:
    """Cutting sequence of one traced window; crossings are built when read."""

    def __init__(self, labels, by_label, h0, start, d):
        self.labels = labels
        self._path = labels.copy(), by_label, h0, start, d

    def __iter__(self):
        return iter(self.labels)

    def __len__(self):
        return len(self.labels)

    @cached_property
    def crossings(self):
        """Hit point q from each exit row and h; t sums d . (q - entry)."""
        labels, by_label, h, (px, py), (dx, dy) = self._path
        out, t = [], 0.0
        for label in labels:
            row = by_label[label]
            qx, qy = q = _point(row, h)
            t += dx * (qx - px) + dy * (qy - py)
            out.append(Crossing(label, row[6][0], q, t, (px, py)))
            px, py = qx + row[6][9], qy + row[6][10]
            h += row[5]
        return out


def _check_direction(direction):
    if not math.isfinite(direction):
        raise ValueError(f"direction {direction} is not finite")


def sector_of(direction, n, tol=1e-12):
    """Sector index in 0..2n-1 for a direction angle, and a boundary flag.

    Directions within tol of a sector boundary are assigned the smaller of
    the two adjacent indices.  Raises ValueError for an n that is no int or
    is below 1.
    """
    _check_direction(direction)
    if not isinstance(n, int):
        raise ValueError(f"n must be an int, got {n!r}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    step = math.pi / n
    t = direction % (2 * math.pi)
    q = t / step
    r = round(q)
    if abs(t - r * step) < tol:
        return (0 if r % (2 * n) == 0 else r - 1), True
    return int(math.floor(q)) % (2 * n), False


def _exit_rows(surf, d):
    """Exit rows of each polygon along d, in edge order, and by label, from
    the surface's edge_table.  The flow keeps h(p) = d x p and a gluing
    (sx, sy) shifts h by d x (sx, sy), so from side to side it is an
    interval exchange on h (Keane 1975, Veech 1982).  A row is (h(a), h(b),
    |e|/den, label, polygon entered, shift of h, (k, i, ax, ay, ex, ey, bx,
    by, den, sx, sy))."""
    dx, dy = d
    polygons, by_label = [[] for _ in surf.edge_table], {}
    for k, edges in enumerate(surf.edge_table):
        for i, ax, ay, ex, ey, bx, by, length, label, k2, sx, sy in edges:
            if (den := dx * ey - dy * ex) > EXIT_TOL:
                by_label[label] = row = (
                    dx * ay - dy * ax, dx * by - dy * bx,
                    length / den, label, k2, dx * sy - dy * sx,
                    (k, i, ax, ay, ex, ey, bx, by, den, sx, sy))
                polygons[k].append(row)
    return polygons, by_label


def _exit_tables(surf, d):
    """Per polygon (guards, steps, rows), and the rows by label.  rows, the
    polygon's _exit_rows sorted by h(a), tile its h-range, and
    steps[bisect_right(guards, h)] is a row's (label, polygon entered, shift)
    if h is 2 EPS_GEO or more along its edge from both ends, else None."""
    polygons, by_label = _exit_rows(surf, d)
    tables = []
    for rows in polygons:
        rows.sort(key=itemgetter(0))
        guards, steps = [], [None]
        for ha, hb, scale, label, k2, shift, _ in rows:
            margin = 2 * EPS_GEO / scale
            lo = math.nextafter(ha + margin, math.inf)
            hi = math.nextafter(hb - margin, -math.inf)
            guards += lo, (hi if hi > lo else lo)
            steps += (label, k2, shift), None
        tables.append((guards, steps, rows))
    return tables, by_label


def _point(row, h):
    """The point at transverse coordinate h on a row's edge."""
    ha, *_, (_, _, ax, ay, ex, ey, _, _, den, _, _) = row
    s = (h - ha) / den
    return ax + s * ex, ay + s * ey


def _square(blocks):
    """Per polygon (guards, steps) of twice as many crossings, read as in
    _exit_tables, a step being (labels, polygon entered, shifts), and how
    many pieces the end check rejected.  A block interval [lo, hi) meets the
    intervals [g0, g1) of the polygon entered, pulled back by the sum of its
    shifts and shrunk by BLOCK_ULPS ulps, in pieces [a, b).  fl(h + s) is
    monotone in h, so the piece is sure if the forward sums a + s1 + s2 +
    ... >= g0 and b + s1 + s2 + ... < g1; else single steps take it."""
    spans = [list(zip(g[::2], g[1::2], steps[1::2])) for g, steps in blocks]
    u = BLOCK_ULPS * math.ulp(max(max(map(abs, guards), default=0.0)
                                  for guards, _ in blocks))
    squared, rejected = [], 0
    for row_spans in spans:
        new_guards, new_steps = [], [None]
        for lo, hi, (run, k2, shifts) in row_spans:
            s = sum(shifts)
            guards2 = blocks[k2][0]  # those [lo + s, hi + s) meets
            for g0, g1, (run2, k3, shifts2) in spans[k2][
                    bisect_right(guards2, lo + s) // 2:
                    (bisect_left(guards2, hi + s) + 1) // 2]:
                a = g0 - s + u
                if a < lo:
                    a = lo
                b = g1 - s - u
                if b > hi:
                    b = hi
                if a < b:
                    fa, fb = a, b
                    for shift in shifts:
                        fa += shift
                        fb += shift
                    if g0 <= fa and fb < g1:
                        new_guards += a, b
                        new_steps += (run + run2, k3, shifts + shifts2), None
                    else:
                        rejected += 1
        squared.append((new_guards, new_steps))
    return squared, rejected


def _walk(tables, k, h, count, labels):
    """count single steps from h in polygon k, labels appended, to (k, h).
    Off the guards, the exact test of vertex distances (h - h(a)) |e|/den
    and (h(b) - h) |e|/den."""
    for _ in range(count):
        guards, steps, rows = tables[k]
        step = steps[bisect_right(guards, h)]
        if step is None:
            j = max(bisect_right(rows, h, key=itemgetter(0)) - 1, 0)
            ha, hb, scale, *_ = row = rows[j]
            if (h - ha) * scale < EPS_GEO or (hb - h) * scale < EPS_GEO:
                raise VertexHit(f"hit vertex of edge {row[6][1]} at "
                                f"{_point(row, h)}")
            step = steps[2 * j + 1]
        label, k, shift = step
        labels.append(label)
        h += shift
    return k, h


def trace(surf, start, direction, max_crossings):
    """Cutting sequence of the trajectory from start in the given direction.

    start is a pair (polygon index, point).  Raises ValueError for a
    direction or start point that is not finite, a polygon index that is no
    int in 0..m-1 or a max_crossings that is no int >= 0, and VertexHit if
    the start lies more than EPS_GEO outside its polygon or within rounding
    of a side nearly parallel to d (a ray parameter t <= 0 to its exit
    edge, solved in 2D), or if the trajectory passes within EPS_GEO of a
    vertex; the caller may perturb the start and retry.  Each crossing is
    one step of the interval exchange of _exit_tables, one bisection of its
    guards; they pass no h that the exact test, run within 2 EPS_GEO of a
    vertex, rejects.  From BLOCK_MIN crossings on, one bisection of
    _square's blocks takes eight sure steps, adding their shifts one by
    one, so labels, VertexHit decisions and every h stay those of _walk.
    """
    k, (px, py) = start
    _check_direction(direction)
    if not isinstance(max_crossings, int) or max_crossings < 0:
        raise ValueError(f"max_crossings {max_crossings!r} is no int >= 0")
    if not isinstance(k, int) or not 0 <= k < len(surf.polygons):
        raise ValueError(f"start polygon {k!r} is no int in "
                         f"0..{len(surf.polygons) - 1}")
    if not (math.isfinite(px) and math.isfinite(py)):
        raise ValueError(f"start point {start[1]} is not finite")
    if not surf.polygons[k].contains((px, py), tol=EPS_GEO):
        raise VertexHit(f"start {start[1]} lies outside polygon {k}")
    dx, dy = d = (math.cos(direction), math.sin(direction))
    tables, by_label = _exit_tables(surf, d)
    h0 = h = dx * py - dy * px
    rows = tables[k][2]
    j = max(bisect_right(rows, h, key=itemgetter(0)) - 1, 0)
    *_, ax, ay, ex, ey, _, _, den, _, _ = rows[j][6]
    if ((ax - px) * ey - (ay - py) * ex) / den <= 0:
        raise VertexHit("no exit edge (degenerate or boundary-parallel ray)")
    labels = []
    if max_crossings >= BLOCK_MIN:
        blocks = [(guards, [s and ((s[0],), s[1], (s[2],)) for s in steps])
                  for guards, steps, _ in tables]
        for _ in range(3):
            blocks, _ = _square(blocks)
        for _ in range(max_crossings // 8):
            guards, steps = blocks[k]
            step = steps[bisect_right(guards, h)]
            if step is None:
                k, h = _walk(tables, k, h, 8, labels)
            else:
                run, k, (s1, s2, s3, s4, s5, s6, s7, s8) = step
                labels += run
                h = h + s1 + s2 + s3 + s4 + s5 + s6 + s7 + s8
        max_crossings %= 8
    _walk(tables, k, h, max_crossings, labels)
    return CuttingWord(labels, by_label, h0, start[1], d)


def _cylinder(surf, word, direction):
    """Start just behind word[0] whose trajectory crosses exactly word.

    No label occurs twice in one polygon, so the points of the side word[0]
    whose trajectory crosses word in order form one interval of the h of
    _exit_rows, clipped in each polygon to the h-range of the letter's
    exit row there.  Returns None when it is empty, so that no trajectory
    has this cutting word; otherwise (start, width), the start behind the
    interval's midpoint and its width as a fraction of the last side.
    """
    _check_direction(direction)
    dx, dy = d = (math.cos(direction), math.sin(direction))
    _, rows = _exit_rows(surf, d)
    if word[0] not in rows:
        return None
    ha0, hb0, *_, (k0, _, ax0, ay0, ex0, ey0, *_) = rows[word[0]]
    k = k0
    lo, hi = -math.inf, math.inf
    offset = 0.0  # h in the current polygon minus h in polygon k0
    for label in word:
        row = rows.get(label)
        if row is None or row[6][0] != k:
            return None
        ha, hb, _, _, k, shift, _ = row
        # max and min by compares: the same bits, at a third of the cost
        if (x := ha - offset) > lo:
            lo = x
        if (x := hb - offset) < hi:
            hi = x
        if hi <= lo:
            return None
        offset += shift
    width = (hi - lo) / (hb - ha)
    s = ((lo + hi) / 2 - ha0) / (hb0 - ha0)
    start = (ax0 + s * ex0 - BACK * dx, ay0 + s * ey0 - BACK * dy)
    return (k0, start), width


def start_through(surf, label, direction):
    """Start (polygon, point) just behind the side so the first crossing is it."""
    _check_direction(direction)
    d = (math.cos(direction), math.sin(direction))
    if label not in surf.labels:
        raise KeyError(label)
    row = _exit_rows(surf, d)[1].get(label)
    if row is None:
        raise VertexHit(f"direction {direction} is parallel to side {label}")
    k, _, ax, ay, _, _, bx, by, *_ = row[6]
    return k, ((ax + bx) / 2 - BACK * d[0], (ay + by) / 2 - BACK * d[1])


def realize_periodic(m, n, n1, n2):
    """Periodic direction and start whose cutting sequence is (n1 n2)-repeating.

    On M(m,n) the cylinder directions are the multiples of pi/n (Veech
    1989, Hooper 2013).  The direction is the first j*pi/n, 0 <= j <= n,
    in which some trajectory crosses n1, n2, n1, ... 40 times; the start
    is the midpoint of that cylinder interval, on the cylinder's core.
    Raises NotCoAdjacent if the sides lie in different rows or no such
    direction exists.
    """
    surf = build_surface(m, n)
    if surf.row(n1) != surf.row(n2):
        raise NotCoAdjacent(f"sides {n1}, {n2} lie in different rows")
    period = 40
    for j in range(n + 1):
        theta = j * math.pi / n
        core = _cylinder(surf, [n1, n2] * (period // 2), theta)
        if core is not None:
            return theta, core[0], trace(surf, core[0], theta, period)
    raise NotCoAdjacent(f"sides {n1}, {n2} share no cylinder")
