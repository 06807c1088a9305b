"""Transition and derivation diagrams, sector permutations, admissibility."""

from collections import namedtuple
from functools import lru_cache
from operator import getitem

from .surface import _dumps, side_seats


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


class TransitionDiagram:
    """Grid of side labels plus the universal arrow pattern.

    grid relabels the slots of T_0's grid; each arrow of T_0 (the arrows
    ArrowAlphabet names) becomes the arrow between the same two slots.
    """

    dot_name = "transitions"

    def __init__(self, m, n, sector, grid):
        self.m = m
        self.n = n
        self.sector = sector
        self.grid = tuple(tuple(row) for row in grid)
        relabel = {x: y for row0, row in zip(t0_grid(m, n), self.grid)
                   for x, y in zip(row0, row)}
        self.arrows = frozenset((relabel[a], relabel[b])
                                for a, b in arrow_alphabet(m, n).name_of_arrow)
        self.arrow_labels = {}

    def _data(self):
        return {"m": self.m, "n": self.n, "sector": self.sector,
                "grid": [list(r) for r in self.grid],
                "arrows": sorted(list(a) for a in self.arrows)}

    def to_json(self, indent=None):
        return _dumps(self._data(), indent)

    def to_dot(self):
        out = [f"digraph {self.dot_name} {{"]
        for row in self.grid:
            out.append("  { rank=same; " + "; ".join(str(v) for v in row) + " }")
        for a, b in sorted(self.arrows):
            lab = self.arrow_labels.get((a, b))
            attr = f' [label="{lab}"]' if lab is not None else ""
            out.append(f"  {a} -> {b}{attr};")
        out.append("}")
        return "\n".join(out)


class DerivationDiagram(TransitionDiagram):
    """T_0 with its labeled horizontal arrows (labels in the dual alphabet)."""

    dot_name = "derivation"

    def __init__(self, m, n, grid, arrow_labels):
        super().__init__(m, n, 0, grid)
        self.arrow_labels = dict(arrow_labels)

    def _data(self):
        data = super()._data()
        data["arrow_labels"] = sorted([a, b, l] for (a, b), l in self.arrow_labels.items())
        return data


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
    return DerivationDiagram(m, n, grid, labels)


@lru_cache(maxsize=None)
def sector_permutation(m, n, i):
    """Side permutation normalizing sector-i trajectories to sector 0.

    The normalizing affine map reflects directions across the line at angle
    (i+1)pi/(2n).  It reflects each polygon k about its own centre across
    that line and then translates the image onto polygon k, or onto polygon
    m-1-k when it reverses the chain.  The reflection turns edge e, of
    direction e*pi/n, into edge i+1+n-e (mod 2n) of the image polygon.
    Side s goes to side t when each seat of s lands on a seat of t, and the
    result must send row r to row r (to row m - r when i - n is even).  Each
    of the two polygon maps that gives such a bijection is a candidate.
    For m = 2 and n even both do in every sector that has a normalization:
    the central symmetry of the surface fixes the single row, no cutting
    sequence can tell the two apart, and the lexicographically smallest is
    kept.  Raises ValueError when neither map works, which happens in the
    even nonzero sectors whenever m and n are both even.
    """
    if not 0 <= i <= 2 * n - 1:
        raise ValueError(f"sector {i} out of range 0..{2 * n - 1}")
    labels = range(1, n * (m - 1) + 1)
    if i == 0:
        return {s: s for s in labels}
    seat_label = {seat: s for s in labels for seat in side_seats(m, n, s)}
    row = {s: (s - 1) // n + 1 for s in labels}
    want_row = {s: m - r if (i - n) % 2 == 0 else r for s, r in row.items()}

    def side_map(image):
        # the side bijection induced by sending polygon k to image(k), or None
        perm = {}
        for (k, e), s in seat_label.items():
            t = seat_label.get((image(k), (i + 1 + n - e) % (2 * n)))
            if t is None or perm.setdefault(s, t) != t:
                return None
        if (sorted(perm.values()) != list(labels)
                or any(row[perm[s]] != want_row[s] for s in labels)):
            return None
        return {s: perm[s] for s in labels}

    candidates = [p for p in map(side_map, (lambda k: k, lambda k: m - 1 - k)) if p]
    if not candidates:
        raise ValueError(f"sector {i} of M({m},{n}) has no reflecting normalization")
    return min(candidates, key=lambda p: [p[s] for s in labels])


_Table = namedtuple("_Table", "code masks full arrows sides perms")


@lru_cache(maxsize=None)
def _table(m, n):
    """Transition table of M(m,n), the one record per surface that
    admissibility, derivation and normalization read.  code[a][b] is the
    code (a-1)*r + b-1, r = max(16, n(m-1)), of each transition (a, b)
    that some T_i has, either way round: one byte on at most 16 sides.
    Bit i of masks[code[a][b]] is set when T_i has the arrow (a, b), and
    bit i + n when it has (b, a), so that T_i admits the reversed word; the
    masks of the other codes are 0.  full is the mask of every sector with
    a reflecting normalization, arrows the codes whose mask is not 0, and
    perms[i] the permutation of sector i % n, for 0 <= i < 2n.  On at most
    16 sides arrows is bytes and sides holds the sides as bytes, to
    delete; on more, sides is None."""
    pairs, full, perms = {}, 0, [None] * n
    for i in range(n):
        try:
            arrows = build_Ti(m, n, i).arrows
        except ValueError:
            continue
        perms[i] = sector_permutation(m, n, i)
        full |= 1 << i | 1 << (i + n)
        for a, b in arrows:
            pairs[(a, b)] = pairs.get((a, b), 0) | 1 << i
            pairs[(b, a)] = pairs.get((b, a), 0) | 1 << (i + n)
    r = max(16, n * (m - 1))
    code, masks = {}, [0] * (r * r)
    for (a, b), mask in pairs.items():
        code.setdefault(a, {})[b] = c = (a - 1) * r + b - 1
        masks[c] = mask
    arrows = sorted(code[a][b] for a, b in pairs)
    if r == 16:
        return _Table(code, masks, full, bytes(arrows), _BYTES[1:n * (m - 1) + 1],
                      tuple(perms * 2))
    return _Table(code, masks, full, tuple(arrows), None, tuple(perms * 2))


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
    for None.  A word with more codes than t has arrows is read per arrow:
    bytes must hold nothing but arrows, and each arrow is looked for with
    `in`, a C-level scan; a list is cut to its distinct codes."""
    if codes is None:
        return 0
    if len(codes) > len(t.arrows):
        if not isinstance(codes, bytes):
            codes = set(codes)
        elif codes.translate(None, t.arrows):
            return 0
        else:
            codes = [c for c in t.arrows if c in codes]
    mask, masks = t.full, t.masks
    for c in codes:
        mask &= masks[c]
    return mask


def admissible_in(m, n, word):
    """Set of sectors in 0..2n-1 whose transition diagram admits the word.

    Sectors with no reflecting normalization (see sector_permutation) are
    omitted.  The answer is the AND of the sector masks of the word's
    distinct transitions in one table per surface (_table), built
    from the n diagrams T_i on first use.
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


@lru_cache(maxsize=None)
def arrow_alphabet(m, n):
    return ArrowAlphabet(m, n)
