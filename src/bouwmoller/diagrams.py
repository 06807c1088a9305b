"""Transition and derivation diagrams, sector permutations, admissibility."""

from collections import namedtuple
from functools import lru_cache
from operator import getitem

from .surface import _check_pair, _dot, _dumps, side_seats


class NotAdmissible(ValueError):
    """Word is not a path in the required transition diagram."""


class NotChained(ValueError):
    """Vertex word whose consecutive pairs are not all arrows."""


def t0_grid(m, n):
    """Snake numbering of the n(m-1) side labels, row by row.  Raises
    NonPositiveShape for an m or n that is no int or below 2."""
    _check_pair(m, n)
    rows = []
    for r in range(1, m):
        row = tuple(range((r - 1) * n + 1, r * n + 1))
        rows.append(row if r % 2 == 1 else tuple(reversed(row)))
    return tuple(rows)


class TransitionDiagram:
    """Grid of side labels plus the universal arrow pattern.

    grid relabels the slots of T_0's grid; each arrow of T_0 (the arrows
    ArrowAlphabet names) becomes the arrow between the same two slots.
    arrow_labels labels arrows by dual sides; only the derivation diagram
    D_0 has them, and it is written as "derivation" with its labels.
    """

    def __init__(self, m, n, sector, grid, arrow_labels=()):
        self.m = m
        self.n = n
        self.sector = sector
        self.grid = tuple(tuple(row) for row in grid)
        relabel = {x: y for row0, row in zip(t0_grid(m, n), self.grid)
                   for x, y in zip(row0, row)}
        self.arrows = frozenset((relabel[a], relabel[b])
                                for a, b in arrow_alphabet(m, n).name_of_arrow)
        self.arrow_labels = dict(arrow_labels)

    def to_json(self, indent=None):
        data = {"m": self.m, "n": self.n, "sector": self.sector,
                "grid": [list(r) for r in self.grid],
                "arrows": sorted(list(a) for a in self.arrows)}
        if self.arrow_labels:
            data["arrow_labels"] = sorted([a, b, l] for (a, b), l
                                          in self.arrow_labels.items())
        return _dumps(data, indent)

    def to_dot(self):
        out = ["{ rank=same; " + "; ".join(map(str, row)) + " }"
               for row in self.grid]
        for a, b in sorted(self.arrows):
            lab = self.arrow_labels.get((a, b))
            attr = f' [label="{lab}"]' if lab is not None else ""
            out.append(f"{a} -> {b}{attr};")
        return _dot("digraph", "derivation" if self.arrow_labels
                    else "transitions", out)


def build_T0(m, n):
    return TransitionDiagram(m, n, 0, t0_grid(m, n))


def build_Ti(m, n, i):
    """Transition diagram for sector i, 0 <= i <= n-1."""
    perm = sector_permutation(m, n, i)
    grid = tuple(tuple(perm[x] for x in row) for row in t0_grid(m, n))
    return TransitionDiagram(m, n, i, grid)


def build_D0(m, n):
    """Derivation diagram: T_0 with horizontal arrows labeled by dual sides.

    Between columns c-1 and c, row r's two arrows, left then right (right
    then left when c is even), take sides r and r+1 of the dual grid's row c.
    """
    grid, dual = t0_grid(m, n), t0_grid(n, m)
    labels = {}
    for c in range(1, n):
        for r, row in enumerate(grid):
            left, right = (row[c], row[c - 1]), (row[c - 1], row[c])
            first, second = (left, right) if c % 2 == 1 else (right, left)
            labels[first], labels[second] = dual[c - 1][r], dual[c - 1][r + 1]
    return TransitionDiagram(m, n, 0, grid, labels)


@lru_cache(maxsize=None, typed=True)
def sector_permutation(m, n, i):
    """Side permutation normalizing sector-i trajectories to sector 0.

    The normalizing affine map reflects directions across the line at angle
    (i+1)pi/(2n).  It reflects each polygon k about its own centre across
    that line and translates the image onto polygon k, or onto polygon
    m-1-k when n - i is even: a side of row r sits in polygons r-1 and r,
    so row r goes to row r, or to row m - r.  The reflection turns edge e,
    of direction e*pi/n, into edge i+1+n-e (mod 2n) of the image polygon,
    and side s goes to side t when each seat of s lands on a seat of t.
    On M(2, n) both polygon maps fix the single row, and for n even both
    give a bijection in every sector that has a normalization: no cutting
    sequence can tell the two apart, and the lexicographically smallest is
    kept.  Raises ValueError when no map gives a bijection, which happens
    in the even nonzero sectors whenever m and n are both even.  Sectors
    are 0..n-1: a sector n <= i < 2n is sector i - n read backwards, as
    normalize applies it.  Raises NonPositiveShape for an m or n that is
    no int or below 2.
    """
    _check_pair(m, n)
    if not 0 <= i <= n - 1:
        raise ValueError(f"sector {i} out of range 0..{n - 1}")
    labels = range(1, n * (m - 1) + 1)
    if i == 0:
        return {s: s for s in labels}
    seat_label = {seat: s for s in labels for seat in side_seats(m, n, s)}

    def side_map(flip):
        # the side bijection induced by sending polygon k to m-1-k when
        # flip, else to k, or None
        perm = {}
        for (k, e), s in seat_label.items():
            seat = (m - 1 - k if flip else k, (i + 1 + n - e) % (2 * n))
            t = seat_label.get(seat)
            if t is None or perm.setdefault(s, t) != t:
                return None
        if sorted(perm.values()) != list(labels):
            return None
        return {s: perm[s] for s in labels}

    flips = (False, True) if m == 2 else ((n - i) % 2 == 0,)
    candidates = [p for p in map(side_map, flips) if p]
    if not candidates:
        raise ValueError(f"sector {i} of M({m},{n}) has no reflecting normalization")
    return min(candidates, key=lambda p: [p[s] for s in labels])


_Table = namedtuple("_Table", "code masks full arrows sides perms steps translates")


@lru_cache(maxsize=None, typed=True)
def _table(m, n):
    """Transition table of M(m,n), the one record per surface that
    admissibility, normalization and derivation read.  code[a][b] is the
    code (a-1)*r + b-1, r = max(16, n(m-1)), of each transition (a, b)
    that some T_i has, either way round: one byte on at most 16 sides.
    perms[i] is the permutation of sector i, or None: T_i's arrows are the
    images of T_0's under it, and it maps them back too.
    Bit i of masks[code[a][b]] is set when T_i has the arrow (a, b), and
    bit i + n when it has (b, a), so that T_i admits the reversed word; the
    masks of the other codes are 0.  full is the mask of every sector with
    a reflecting normalization, and steps[i] maps the code of each arrow of
    sector i, coded reversed for i >= n, to the D_0 label of the T_0 arrow
    it normalizes to, or to 0.  On at most 16 sides arrows holds the codes
    whose mask is not 0 and sides the sides, both as bytes, to delete, and
    translates[i] the bytes.translate arguments of steps[i]: the label of
    each code, 0 for no arrow, and the unlabeled arrows, to delete; on
    more, arrows, sides and translates are None."""
    d0, r = build_D0(m, n), max(16, n * (m - 1))
    code, masks, full = {}, [0] * (r * r), 0
    perms, steps = [None] * n, [None] * (2 * n)
    for i in range(n):
        try:
            perms[i] = p = sector_permutation(m, n, i)
        except ValueError:
            continue
        full |= 1 << i | 1 << (i + n)
        steps[i], steps[i + n] = {}, {}
        for a, b in d0.arrows:
            for x, y, j in ((p[a], p[b], i), (p[b], p[a], i + n)):
                code.setdefault(x, {})[y] = c = (x - 1) * r + y - 1
                masks[c] |= 1 << j
                steps[j][c] = d0.arrow_labels.get((a, b), 0)
    perms = tuple(perms)
    if r > 16:
        return _Table(code, masks, full, None, None, perms, steps, None)
    arrows = bytes(c for c, mask in enumerate(masks) if mask)
    translates = [s and (bytes(s.get(c, 0) for c in range(256)),
                         bytes(c for c, label in s.items() if not label))
                  for s in steps]
    return _Table(code, masks, full, arrows, _BYTES[1:n * (m - 1) + 1],
                  perms, steps, translates)


# on at most 16 sides a side x translated by _LO is the nibble x - 1
_LO = bytes((x - 1) % 16 for x in range(256))
_BYTES = bytes(range(256))


def _word_codes(t, word):
    """Codes of the word's transitions in table t, or None if a letter is
    no side or, in a list, a transition is in no T_i.

    This is the one choice of coding.  On a surface of at most 16 sides a
    word that bytes() takes is coded in bytes, by C-level translates in
    place of a lookup per letter; letters 0 and n(m-1)+1..255 are no
    side.  Any other word is coded in a list by the dicts of the table,
    which, unlike a list or bytes, do not wrap a letter -1.
    """
    if t.sides is not None:
        try:
            w = bytes(word)
        except (TypeError, ValueError):
            pass
        else:
            if w.translate(None, t.sides):
                return None
            # in the integer of the word's nibbles, each byte ORed with the
            # next one's shifted four bits up is the code (a-1)*16 + b-1 of
            # a transition (a, b); the first byte is no transition
            x = int.from_bytes(w.translate(_LO), "big")
            return (x >> 4 | x).to_bytes(len(w), "big")[1:]
    code = t.code
    if len(word) == 1 and word[0] not in code:
        return None
    try:
        return list(map(getitem, map(code.__getitem__, word[:-1]), word[1:]))
    except KeyError:
        return None


def _word_mask(t, codes):
    """AND of the sector masks in table t of the codes of _word_codes; 0
    for None.  Bytes with more codes than t has arrows are read per arrow:
    they must hold nothing but arrows, and each arrow is looked for with
    `in`, a C-level scan."""
    if codes is None:
        return 0
    if isinstance(codes, bytes) and len(codes) > len(t.arrows):
        if codes.translate(None, t.arrows):
            return 0
        codes = [c for c in t.arrows if c in codes]
    mask, masks = t.full, t.masks
    for c in codes:
        mask &= masks[c]
    return mask


def _derivative(t, codes, i):
    """Dual labels of the transitions of _word_codes's codes, in order,
    normalized from sector i of table t, or None if one is no arrow of
    T_i: one translate of bytes, which leaves a 0 for each code that is
    no arrow, else one lookup each."""
    if isinstance(codes, bytes):
        labels = codes.translate(*t.translates[i])
        return None if 0 in labels else labels
    labels = list(map(t.steps[i].get, codes))
    return None if None in labels else list(filter(None, labels))


def admissible_in(m, n, word):
    """Set of sectors in 0..2n-1 whose transition diagram admits the word.

    Sectors i and i + n are omitted when sector i < n has no reflecting
    normalization (see sector_permutation).  The answer is the AND of the
    sector masks of the word's transitions in the one table per surface
    (_table), built from D_0 and the sector permutations on first use.
    """
    t = _table(m, n)
    mask = _word_mask(t, _word_codes(t, list(word)))
    return {i for i in range(2 * n) if mask >> i & 1}


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
        # the display columns flow down and up in turn
        columns = [col if c % 2 == 0 else col[::-1]
                   for c, col in enumerate(zip(*grid))]
        runs = {"r": grid, "l": [row[::-1] for row in grid], "v": columns}
        self.arrow_of_name = {}
        for kind, paths in runs.items():
            steps = [step for path in paths for step in zip(path, path[1:])]
            self.arrow_of_name.update(
                (f"{kind}{k}", step) for k, step in enumerate(steps, 1))
        self.name_of_arrow = {a: s for s, a in self.arrow_of_name.items()}
        if len(self.name_of_arrow) != len(self.arrow_of_name):
            raise RuntimeError(f"two arrow names share an arrow in M({m},{n})")
        if len(self.arrow_of_name) != 3 * m * n - 2 * m - 4 * n + 2:
            raise RuntimeError(f"wrong arrow count {len(self.arrow_of_name)} "
                               f"for M({m},{n})")

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


@lru_cache(maxsize=None, typed=True)
def arrow_alphabet(m, n):
    return ArrowAlphabet(m, n)
