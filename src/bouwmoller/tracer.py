"""Linear trajectories and their cutting sequences on the polygon chain."""

import math

EPS_GEO = 1e-9
# A side is parallel to a direction d when |d x v| <= EXIT_TOL for its edge
# vector v.  Over 2 <= m <= 11, 3 <= n <= 11 and the directions j*pi/(2n),
# parallel seats give at most 1.03e-15 and transverse ones at least 0.040.
EXIT_TOL = 1e-12
# How far behind its side, along the direction, a start point is placed.
BACK = 1e-7


class VertexHit(Exception):
    """Trajectory passed within EPS_GEO of a polygon vertex."""


class NotCoAdjacent(ValueError):
    """The two sides are not adjacent in the same row of any transition diagram."""


class Crossing:
    """One side crossing: label, polygon left behind, hit point, ray parameter."""

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

    def __init__(self, labels, crossings, direction, start):
        self.labels = labels
        self.crossings = crossings
        self.direction = direction
        self.start = start

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


def _exit(poly, p, d, skip=-1):
    """Exit edge, ray parameter and hit point leaving poly from p along d."""
    best = None
    for i in range(2 * poly.n):
        if i == skip or poly.is_degenerate(i):
            continue
        (ax, ay), (bx, by) = poly.edge(i)
        ex, ey = bx - ax, by - ay
        den = d[0] * ey - d[1] * ex
        if abs(den) < 1e-15:
            continue
        t = ((ax - p[0]) * ey - (ay - p[1]) * ex) / den
        s = ((ax - p[0]) * d[1] - (ay - p[1]) * d[0]) / den
        if t > EPS_GEO * 1e-3 and -1e-9 <= s <= 1 + 1e-9 and (best is None or t < best[1]):
            best = (i, t, s)
    if best is None:
        raise VertexHit("no exit edge (degenerate or boundary-parallel ray)")
    i, t, s = best
    a, b = poly.edge(i)
    q = (p[0] + t * d[0], p[1] + t * d[1])
    if (math.hypot(q[0] - a[0], q[1] - a[1]) < EPS_GEO
            or math.hypot(q[0] - b[0], q[1] - b[1]) < EPS_GEO):
        raise VertexHit(f"hit vertex of edge {i} at {q}")
    return i, t, q


def trace(surf, start, direction, max_crossings):
    """Cutting sequence of the trajectory from start in the given direction.

    start is a pair (polygon index, point).  Raises VertexHit if the
    trajectory passes within EPS_GEO of a vertex; the caller may perturb
    the start and retry.
    """
    k, p = start
    d = (math.cos(direction), math.sin(direction))
    labels, crossings = [], []
    t_acc = 0.0
    entry = -1
    for _ in range(max_crossings):
        e, t, q = _exit(surf.polygons[k], p, d, skip=entry)
        t_acc += t
        label = surf.seat_label[(k, e)]
        labels.append(label)
        crossings.append(Crossing(label, k, q, t_acc))
        (k, entry), shift = surf.glue(k, e)
        p = (q[0] + shift[0], q[1] + shift[1])
    return CuttingWord(labels, crossings, direction, start)


def _exit_seat(surf, label, d):
    """Seat (polygon, edge) of side label that direction d leaves through.

    Edges run counterclockwise, so that is the seat whose edge vector v has
    d x v > EXIT_TOL; None when d is parallel to the side.
    """
    for k, e in surf.seats(label):
        vx, vy = surf.polygons[k].edge_vector(e)
        if d[0] * vy - d[1] * vx > EXIT_TOL:
            return k, e
    return None


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
    d = (math.cos(direction), math.sin(direction))

    def h(p):
        return d[0] * p[1] - d[1] * p[0]

    seat = _exit_seat(surf, word[0], d)
    if seat is None:
        return None
    k0 = k = seat[0]
    a0, b0 = surf.polygons[k0].edge(seat[1])
    lo, hi = -math.inf, math.inf
    offset = 0.0  # h in the current polygon minus h in polygon k0
    for label in word:
        seat = _exit_seat(surf, label, d)
        if seat is None or seat[0] != k:
            return None
        a, b = surf.polygons[k].edge(seat[1])
        lo, hi = max(lo, h(a) - offset), min(hi, h(b) - offset)
        if hi <= lo:
            return None
        (k, _), shift = surf.glue(*seat)
        offset += h(shift)
    width = (hi - lo) / (h(b) - h(a))
    s = ((lo + hi) / 2 - h(a0)) / (h(b0) - h(a0))
    start = (a0[0] + s * (b0[0] - a0[0]) - BACK * d[0],
             a0[1] + s * (b0[1] - a0[1]) - BACK * d[1])
    return (k0, start), width


def start_through(surf, label, direction):
    """Start (polygon, point) just behind the side so the first crossing is it."""
    d = (math.cos(direction), math.sin(direction))
    seat = _exit_seat(surf, label, d)
    if seat is None:
        raise VertexHit(f"direction {direction} is parallel to side {label}")
    k, e = seat
    mx, my = surf.polygons[k].edge_midpoint(e)
    return k, (mx - BACK * d[0], my - BACK * d[1])


def realize_periodic(m, n, n1, n2):
    """Periodic direction and start whose cutting sequence is (n1 n2)-repeating.

    The pair must sit in adjacent same-row slots of some transition diagram
    T_i that has a reflecting normalization; the trajectory follows the
    core of the cylinder through their shared Hooper node.  Raises
    NotCoAdjacent otherwise, and VertexHit if no trajectory in that
    direction crosses n1, n2, n1, ... .
    """
    from . import diagrams
    from .surface import build_surface

    surf = build_surface(m, n)
    if surf.row(n1) != surf.row(n2):
        raise NotCoAdjacent(f"sides {n1}, {n2} lie in different rows")
    found = None
    for i in range(n):
        try:
            perm = diagrams.sector_permutation(m, n, i)
        except ValueError:
            continue
        u1, u2 = perm[n1], perm[n2]
        r = surf.row(u1)
        grid_row = diagrams.t0_grid(m, n)[r - 1]
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
