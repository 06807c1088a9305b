"""Linear trajectories and their cutting sequences on the polygon chain."""

import math
from bisect import bisect_right

from .diagrams import sector_permutation, t0_grid
from .surface import build_surface

EPS_GEO = 1e-9
# A direction d leaves a polygon by the edges e with d x e > EXIT_TOL, for
# trace, start_through and _cylinder alike.  Over 2 <= m <= 11, 3 <= n <= 11
# and the directions j*pi/(2n), parallel edges give |d x e| at most 6.4e-15
# and transverse ones at least 0.040.
EXIT_TOL = 1e-12
# How far behind its side, along the direction, a start point is placed.
BACK = 1e-7


class VertexHit(Exception):
    """Trajectory passed within EPS_GEO of a polygon vertex."""


class NotCoAdjacent(ValueError):
    """The two sides are not adjacent in the same row of any transition diagram."""


class Crossing:
    """One side crossing: label, polygon left behind, hit point, ray parameter."""

    __slots__ = ("label", "polygon", "point", "t")

    def __init__(self, label, polygon, point, t):
        self.label = label
        self.polygon = polygon
        self.point = point
        self.t = t

    def as_dict(self):
        return {"label": self.label, "polygon": self.polygon,
                "point": [self.point[0], self.point[1]], "t": self.t}


class CuttingWord:
    """Cutting sequence of one traced trajectory window."""

    def __init__(self, labels, crossings):
        self.labels = labels
        self.crossings = crossings

    def __iter__(self):
        return iter(self.labels)

    def __len__(self):
        return len(self.labels)


def sector_of(direction, n, tol=1e-12):
    """Sector index in 0..2n-1 for a direction angle, and a boundary flag.

    Directions within tol of a sector boundary are assigned the smaller of
    the two adjacent indices.
    """
    step = math.pi / n
    t = direction % (2 * math.pi)
    q = t / step
    r = round(q)
    if abs(t - r * step) < tol:
        return (0 if r % (2 * n) == 0 else r - 1), True
    return int(math.floor(q)) % (2 * n), False


def _exits(edges, d):
    """Exit table of one polygon along d: the h(a) of its rows, and the rows.

    The rows (i, ax, ay, ex, ey, bx, by, den) are the edges with
    den = d x e > EXIT_TOL, sorted by h(a), where h(p) = d x p.  Along each
    of them h grows from h(a) to h(b), so they tile the polygon's h-range.
    """
    dx, dy = d
    rows = sorted((dx * ay - dy * ax, i, ax, ay, ex, ey, bx, by, den)
                  for i, ax, ay, ex, ey, bx, by in edges
                  if (den := dx * ey - dy * ex) > EXIT_TOL)
    return [r[0] for r in rows], [r[1:] for r in rows]


def trace(surf, start, direction, max_crossings):
    """Cutting sequence of the trajectory from start in the given direction.

    start is a pair (polygon index, point).  Raises VertexHit if the start
    lies more than EPS_GEO outside its polygon, or if the trajectory passes
    within EPS_GEO of a vertex; the caller may perturb the start and retry.

    In each polygon the exit edge is the row of its exit table whose
    h-range holds h(p).  A t <= 0 there puts p within rounding of a side
    nearly parallel to d, which the ray grazes into the neighbouring exit
    edge (the next row if d . e > 0, else the one before): a VertexHit.
    """
    k, p = start
    if not surf.polygons[k].contains(p, tol=EPS_GEO):
        raise VertexHit(f"start {p} lies outside polygon {k}")
    dx, dy = d = (math.cos(direction), math.sin(direction))
    tables = [_exits(edges, d) for edges in surf.edge_table]
    glue = surf.glue_table
    labels, crossings = [], []
    t_acc = 0.0
    for _ in range(max_crossings):
        hs, rows = tables[k]
        px, py = p
        j = max(bisect_right(hs, dx * py - dy * px) - 1, 0)
        e, ax, ay, ex, ey, bx, by, den = rows[j]
        t = ((ax - px) * ey - (ay - py) * ex) / den
        along = t <= 0
        if along:
            j += 1 if dx * ex + dy * ey > 0 else -1
            if not 0 <= j < len(rows):
                raise VertexHit("no exit edge (degenerate or boundary-parallel ray)")
            e, ax, ay, ex, ey, bx, by, den = rows[j]
            t = ((ax - px) * ey - (ay - py) * ex) / den
        q = (px + t * dx, py + t * dy)
        if (math.hypot(q[0] - ax, q[1] - ay) < EPS_GEO
                or math.hypot(q[0] - bx, q[1] - by) < EPS_GEO):
            raise VertexHit(f"hit vertex of edge {e} at {q}")
        if along:
            raise VertexHit("no exit edge (degenerate or boundary-parallel ray)")
        t_acc += t
        label, k2, _, sx, sy = glue[k][e]
        labels.append(label)
        crossings.append(Crossing(label, k, q, t_acc))
        k, p = k2, (q[0] + sx, q[1] + sy)
    return CuttingWord(labels, crossings)


def _exit_rows(surf, d):
    """(polygon, exit row) along d of every side not parallel to d, by label.

    Of a side's two seats only one can be in its polygon's exit table.
    """
    return {surf.seat_label[k, row[0]]: (k, row)
            for k, edges in enumerate(surf.edge_table)
            for row in _exits(edges, d)[1]}


def _cylinder(surf, word, direction):
    """Start just behind word[0] whose trajectory crosses exactly word.

    No label occurs twice in one polygon, so the points of the side word[0]
    whose trajectory in the given direction crosses word[0], word[1], ...
    in order form one interval.  It is carried through the word in the
    transverse coordinate h(p) = d x p, which the flow along d keeps and a
    gluing translation shifts: in each polygon the interval is clipped to
    the h-range of the seat the trajectory leaves by, which must be the
    exit seat of the letter in that polygon.  Returns None when the
    interval is empty, so that no trajectory has this cutting word;
    otherwise (start, width), the start behind the interval's midpoint and
    the final interval's width as a fraction of the last side's length.
    """
    dx, dy = d = (math.cos(direction), math.sin(direction))
    rows = _exit_rows(surf, d)
    if word[0] not in rows:
        return None
    k0, (_, ax0, ay0, ex0, ey0, bx0, by0, _) = rows[word[0]]
    k = k0
    lo, hi = -math.inf, math.inf
    offset = 0.0  # h in the current polygon minus h in polygon k0
    for label in word:
        found = rows.get(label)
        if found is None or found[0] != k:
            return None
        _, (e, ax, ay, _, _, bx, by, _) = found
        ha, hb = dx * ay - dy * ax, dx * by - dy * bx
        lo, hi = max(lo, ha - offset), min(hi, hb - offset)
        if hi <= lo:
            return None
        _, k, _, sx, sy = surf.glue_table[k][e]
        offset += dx * sy - dy * sx
    width = (hi - lo) / (hb - ha)
    ha0 = dx * ay0 - dy * ax0
    s = ((lo + hi) / 2 - ha0) / (dx * by0 - dy * bx0 - ha0)
    start = (ax0 + s * ex0 - BACK * dx, ay0 + s * ey0 - BACK * dy)
    return (k0, start), width


def start_through(surf, label, direction):
    """Start (polygon, point) just behind the side so the first crossing is it."""
    d = (math.cos(direction), math.sin(direction))
    if label not in surf.sides:
        raise KeyError(label)
    found = _exit_rows(surf, d).get(label)
    if found is None:
        raise VertexHit(f"direction {direction} is parallel to side {label}")
    k, (_, ax, ay, _, _, bx, by, _) = found
    return k, ((ax + bx) / 2 - BACK * d[0], (ay + by) / 2 - BACK * d[1])


def realize_periodic(m, n, n1, n2):
    """Periodic direction and start whose cutting sequence is (n1 n2)-repeating.

    The pair must sit in adjacent same-row slots of some transition diagram
    T_i that has a reflecting normalization; the trajectory follows the
    core of the cylinder through their shared Hooper node.  Raises
    NotCoAdjacent otherwise, and VertexHit if no trajectory in that
    direction crosses n1, n2, n1, ... .
    """
    surf = build_surface(m, n)
    if surf.row(n1) != surf.row(n2):
        raise NotCoAdjacent(f"sides {n1}, {n2} lie in different rows")
    found = None
    for i in range(n):
        try:
            perm = sector_permutation(m, n, i)
        except ValueError:
            continue
        u1, u2 = perm[n1], perm[n2]
        r = surf.row(u1)
        grid_row = t0_grid(m, n)[r - 1]
        if abs(grid_row.index(u1) - grid_row.index(u2)) == 1:
            found = (i, u1, u2, r, grid_row)
            break
    if found is None:
        raise NotCoAdjacent(f"sides {n1}, {n2} are nowhere adjacent in a row")
    i, u1, u2, r, grid_row = found
    col = max(grid_row.index(u1), grid_row.index(u2))  # shared node (r, col)
    white = (r + col) % 2 == 0
    # white nodes carry horizontal cylinders, black ones pi/n ones; for
    # i > 0 the reflection bringing sector i to the standard one swaps the
    # two boundary directions.
    base = 0.0 if white else math.pi / n
    theta = base if i == 0 else (i + 1) * math.pi / n - base
    # start at the midpoint of the cylinder interval of n1 n2 n1 n2 ...,
    # on the core of the cylinder through the shared node
    period = 40
    core = _cylinder(surf, [n1, n2] * (period // 2), theta)
    if core is None:
        raise VertexHit(f"no trajectory in direction {theta} crosses "
                        f"{n1}, {n2} in turn")
    start = core[0]
    return theta, start, trace(surf, start, theta, period)
