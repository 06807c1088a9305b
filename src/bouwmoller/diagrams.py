"""Transition and derivation diagrams, sector permutations, admissibility."""

import json
import math
from functools import lru_cache

from .surface import build_surface
from .tracer import VertexHit, start_through, trace


class NotAdmissible(ValueError):
    """Word is not a path in the required transition diagram."""


class NotChained(ValueError):
    """Vertex word whose consecutive pairs are not all arrows."""


def t0_grid(m, n):
    """Snake numbering of the n(m-1) side labels, row by row."""
    rows = []
    for r in range(1, m):
        row = tuple(range((r - 1) * n + 1, r * n + 1))
        rows.append(row if r % 2 == 1 else tuple(reversed(row)))
    return tuple(rows)


def _universal_arrows(grid):
    """Arrow set shared by all transition diagrams, on a given labeling."""
    rows, cols = len(grid), len(grid[0])
    arrows = set()
    for r in range(rows):
        for c in range(cols - 1):
            arrows.add((grid[r][c], grid[r][c + 1]))
            arrows.add((grid[r][c + 1], grid[r][c]))
    for c in range(cols):
        for r in range(rows - 1):
            if c % 2 == 0:  # display column c+1 odd: downward
                arrows.add((grid[r][c], grid[r + 1][c]))
            else:
                arrows.add((grid[r + 1][c], grid[r][c]))
    return frozenset(arrows)


class TransitionDiagram:
    """Grid of side labels plus the universal arrow pattern."""

    def __init__(self, m, n, sector, grid):
        self.m = m
        self.n = n
        self.sector = sector
        self.grid = tuple(tuple(row) for row in grid)
        self.arrows = _universal_arrows(self.grid)

    def admits(self, word):
        word = list(word)
        return all((a, b) in self.arrows for a, b in zip(word, word[1:]))

    def to_json(self, indent=None):
        data = {"m": self.m, "n": self.n, "sector": self.sector,
                "grid": [list(r) for r in self.grid],
                "arrows": sorted(list(a) for a in self.arrows)}
        return json.dumps(data, sort_keys=True, indent=indent)

    def to_dot(self):
        out = ["digraph transitions {"]
        for row in self.grid:
            out.append("  { rank=same; " + "; ".join(str(v) for v in row) + " }")
        for a, b in sorted(self.arrows):
            out.append(f"  {a} -> {b};")
        out.append("}")
        return "\n".join(out)


class DerivationDiagram(TransitionDiagram):
    """T_0 with its labeled horizontal arrows (labels in the dual alphabet)."""

    def __init__(self, m, n, grid, arrow_labels):
        super().__init__(m, n, 0, grid)
        self.arrow_labels = dict(arrow_labels)

    def to_json(self, indent=None):
        data = json.loads(super().to_json())
        data["arrow_labels"] = sorted([a, b, l] for (a, b), l in self.arrow_labels.items())
        return json.dumps(data, sort_keys=True, indent=indent)

    def to_dot(self):
        out = ["digraph derivation {"]
        for row in self.grid:
            out.append("  { rank=same; " + "; ".join(str(v) for v in row) + " }")
        for a, b in sorted(self.arrows):
            lab = self.arrow_labels.get((a, b))
            attr = f' [label="{lab}"]' if lab is not None else ""
            out.append(f"  {a} -> {b}{attr};")
        out.append("}")
        return "\n".join(out)


def build_T0(m, n):
    return TransitionDiagram(m, n, 0, t0_grid(m, n))


def build_Ti(m, n, i):
    """Transition diagram for sector i, 0 <= i <= n-1."""
    if not 0 <= i <= n - 1:
        raise ValueError(f"sector {i} out of range 0..{n - 1}")
    perm = sector_permutation(m, n, i)
    grid = tuple(tuple(perm[x] for x in row) for row in t0_grid(m, n))
    return TransitionDiagram(m, n, i, grid)


def build_D0(m, n):
    """Derivation diagram: T_0 with horizontal arrows labeled by dual sides."""
    grid = t0_grid(m, n)
    labels = {}
    for c in range(1, n):
        base = (c - 1) * m
        left = {r: (grid[r - 1][c], grid[r - 1][c - 1]) for r in range(1, m)}
        right = {r: (grid[r - 1][c - 1], grid[r - 1][c]) for r in range(1, m)}
        if c % 2 == 1:
            labels[left[1]] = base + 1
            for r in range(1, m - 1):
                labels[right[r]] = labels[left[r + 1]] = base + r + 1
            labels[right[m - 1]] = base + m
        else:
            labels[left[m - 1]] = base + 1
            for r in range(m - 1, 1, -1):
                labels[right[r]] = labels[left[r - 1]] = base + (m - r + 1)
            labels[right[1]] = base + m
    return DerivationDiagram(m, n, grid, labels)


def _two_sided(surf, label, theta, k):
    """Symbol window of length 2k+1 centered on the crossing of a side."""
    fwd = trace(surf, start_through(surf, label, theta), theta, k + 1)
    bwd = trace(surf, start_through(surf, label, theta + math.pi), theta + math.pi, k + 1)
    assert fwd.labels[0] == label and bwd.labels[0] == label
    return list(reversed(bwd.labels[1:])) + fwd.labels


def _match_signatures(labels, sig_src, sig_dst, pairs_ok):
    """All bijections P with sig_dst[P[s]] = P(sig_src[s]) letterwise."""
    cands = {s: {t for t in labels if pairs_ok(s, t) and _compatible(s, t, sig_src, sig_dst)}
             for s in labels}

    def close(cand):
        queue = [s for s in labels if len(cand[s]) == 1]
        seen = set()
        while queue:
            s = queue.pop()
            if s in seen:
                continue
            seen.add(s)
            t = next(iter(cand[s]))
            for u, v in zip(sig_src[s], sig_dst[t]):
                if v not in cand[u]:
                    return None
                if len(cand[u]) > 1:
                    cand[u] = {v}
                    queue.append(u)
        return cand

    def search(cand):
        cand = close({s: set(c) for s, c in cand.items()})
        if cand is None:
            return []
        if all(len(c) == 1 for c in cand.values()):
            sol = {s: next(iter(c)) for s, c in cand.items()}
            return [sol] if len(set(sol.values())) == len(sol) else []
        s = min((s for s in labels if len(cand[s]) != 1), key=lambda s: len(cand[s]))
        found = []
        for t in sorted(cand[s]):
            trial = {u: set(c) for u, c in cand.items()}
            trial[s] = {t}
            found.extend(search(trial))
        return found

    return search(cands)


def _compatible(s, t, sig_src, sig_dst):
    """Quick filter: s can map to t only if the window patterns agree."""
    pat = {}
    for u, v in zip(sig_src[s], sig_dst[t]):
        if pat.setdefault(u, v) != v:
            return False
    return True


@lru_cache(maxsize=None)
def sector_permutation(m, n, i):
    """Side permutation normalizing sector-i trajectories to sector 0.

    Computed geometrically: the normalizing affine map carries side midpoints
    to side midpoints and reflects directions across (i+1)pi/(2n), so the
    permutation is the unique row-respecting bijection conjugating the
    two-sided cutting sequence windows around each side onto those of the
    reflected direction.  Requiring rows to map to rows up front matters:
    when m and n are both even the surface has a central symmetry, and
    window conjugation alone admits a second, row-reversing bijection.
    For m = 2 that symmetry fixes the single row, no cutting sequence can
    see it, and both conjugations normalize; we keep the lexicographically
    smallest.  Raises ValueError when the reflection does not carry the
    side direction and length classes to themselves, which happens in the
    even nonzero sectors whenever m and n are both even.
    """
    if not 0 <= i <= 2 * n - 1:
        raise ValueError(f"sector {i} out of range 0..{2 * n - 1}")
    labels = list(range(1, n * (m - 1) + 1))
    if i == 0:
        return {s: s for s in labels}
    surf = build_surface(m, n)
    window = 40
    phi = (i + 1) * math.pi / n
    flip = (i - n) % 2 == 0

    def pairs_ok(s, t):
        a, b = surf.sides[s], surf.sides[t]
        if surf.row(t) != (surf.m - surf.row(s) if flip else surf.row(s)):
            return False
        if abs(a.length - b.length) > 1e-9:
            return False
        want = (phi - a.direction) % math.pi
        diff = abs(b.direction - want) % math.pi
        return min(diff, math.pi - diff) < 1e-9

    for s in labels:
        if not any(pairs_ok(s, t) for t in labels):
            # happens in the even sectors when m and n are both even: no
            # side matches the reflected direction and length of side s
            raise ValueError(
                f"sector {i} of M({m},{n}) has no reflecting normalization")

    for attempt in range(10):
        lam = 0.3819660112501051 + 0.0137 * attempt
        theta_src = (i + lam) * math.pi / n
        theta_dst = phi - theta_src
        try:
            sig_src = {s: _two_sided(surf, s, theta_src, window) for s in labels}
            sig_dst = {s: _two_sided(surf, s, theta_dst, window) for s in labels}
        except VertexHit:
            continue
        sols = _match_signatures(labels, sig_src, sig_dst, pairs_ok)
        if m == 2 and n % 2 == 0 and len(sols) == 2:
            sols = [min(sols, key=lambda p: tuple(p[s] for s in labels))]
        assert len(sols) == 1, f"signature matching found {len(sols)} bijections"
        perm = sols[0]
        assert all(perm[perm[s]] == s for s in labels), "not an involution"
        return perm
    raise VertexHit(f"no generic direction found for sector permutation {(m, n, i)}")


def admissible_in(m, n, word):
    """Set of sectors in 0..2n-1 whose transition diagram admits the word.

    Sectors with no reflecting normalization (see sector_permutation) are
    omitted.
    """
    word = list(word)
    result = set()
    for i in range(n):
        try:
            d = build_Ti(m, n, i)
        except ValueError:
            continue
        if d.admits(word):
            result.add(i)
        if d.admits(list(reversed(word))):
            result.add(i + n)
    return result


class ArrowAlphabet:
    """Names for the universal diagram's arrows: r/l horizontals, v verticals.

    r_k run left to right in row-major order, l_k right to left in row-major
    order, v_k along the flow of each display column in column order.  Keys
    are vertex pairs of T_0.
    """

    def __init__(self, m, n):
        self.m = m
        self.n = n
        grid = t0_grid(m, n)
        self.arrow_of_name = {}
        k = 1
        for r in range(m - 1):
            for c in range(n - 1):
                self.arrow_of_name[f"r{k}"] = (grid[r][c], grid[r][c + 1])
                k += 1
        k = 1
        for r in range(m - 1):
            for c in range(n - 1, 0, -1):
                self.arrow_of_name[f"l{k}"] = (grid[r][c], grid[r][c - 1])
                k += 1
        k = 1
        for c in range(n):
            if c % 2 == 0:
                rows = range(m - 2)
            else:
                rows = range(m - 3, -1, -1)
            for r in rows:
                if c % 2 == 0:
                    self.arrow_of_name[f"v{k}"] = (grid[r][c], grid[r + 1][c])
                else:
                    self.arrow_of_name[f"v{k}"] = (grid[r + 1][c], grid[r][c])
                k += 1
        self.name_of_arrow = {a: s for s, a in self.arrow_of_name.items()}
        assert len(self.name_of_arrow) == len(self.arrow_of_name)
        assert len(self.arrow_of_name) == 3 * m * n - 2 * m - 4 * n + 2

    @property
    def names(self):
        return list(self.arrow_of_name)

    def to_vertices(self, arrow_names):
        """Vertex word traversed by a chained arrow word."""
        path = []
        for name in arrow_names:
            a, b = self.arrow_of_name[name]
            if path and path[-1] != a:
                raise NotChained(f"{name} does not start at {path[-1]}")
            if not path:
                path.append(a)
            path.append(b)
        return path

    def to_arrows(self, vertices):
        """Arrow-name word of a vertex path in the universal diagram."""
        vertices = list(vertices)
        names = []
        for a, b in zip(vertices, vertices[1:]):
            name = self.name_of_arrow.get((a, b))
            if name is None:
                raise NotChained(f"({a}, {b}) is not an arrow")
            names.append(name)
        return names


@lru_cache(maxsize=None)
def arrow_alphabet(m, n):
    return ArrowAlphabet(m, n)
