"""Derivation, generation, substitutions, and the operators tying them together."""

from functools import lru_cache

from .diagrams import (NotAdmissible, _derivative, _table, _word_codes,
                       _word_mask, admissible_in, arrow_alphabet, build_D0,
                       build_Ti, sector_permutation)


def derive(m, n, word, cyclic=False):
    """Dual labels of the labeled transitions of a T_0-admissible word.

    With cyclic=True the wrap-around transition is included, as for the
    window of a periodic sequence.
    """
    word = list(word)
    if len(word) < 2:
        raise ValueError("derivation needs at least two letters")
    path = word + word[:1] if cyclic else word
    t = _table(m, n)
    codes = _word_codes(t, path)
    labels = None if codes is None else _derivative(t, codes, 0)
    if labels is None:
        a, b = next((a, b) for a, b in zip(path, path[1:])
                    if 0 not in admissible_in(m, n, [a, b]))
        raise NotAdmissible(f"transition ({a}, {b}) not in T_0 of M({m},{n})")
    return list(labels)


def normalize(m, n, word):
    """Smallest admissible sector and the word mapped into T_0."""
    word = list(word)
    t = _table(m, n)
    mask = _word_mask(t, _word_codes(t, word))
    if not mask:
        raise NotAdmissible(f"word admissible in no sector of M({m},{n})")
    i = (mask & -mask).bit_length() - 1  # the lowest sector in the mask
    return i, list(map(t.perms[i % n].__getitem__, word[::-1] if i >= n else word))


def derivative_sequence(m, n, word, k):
    """k-fold alternating derivation: words, their sectors, ambiguity flags.

    Returns (words, sectors, ambiguous): words[0] is the input and words[t]
    its t-th derivative (over the alphabet of M(m,n) for t even, of M(n,m)
    for t odd); sectors[t] is the smallest admissible sector of words[t]
    before normalizing, so sectors reads (b_0, a_1, b_1, ...); ambiguous[t]
    marks stages whose admissible sector was not unique: among all 2n
    sectors for the input word, whose direction may point anywhere, and
    among the upward sectors for its derivatives.  A word of fewer than
    two letters has no derivative, so the sequence stops there, with fewer
    than k+1 stages.  Each stage derives in its smallest sector, which
    after an ambiguous stage may be the wrong one, so a later stage that no
    sector admits ends the sequence there, with sector None; with no
    ambiguous stage before it, such a stage raises NotAdmissible.  Raises
    ValueError for a k that is no int or below 0.
    """
    if not isinstance(k, int):
        raise ValueError(f"need an int k >= 0, got {k!r}")
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    cur = list(word)
    mm, nn = m, n
    words, sectors, ambiguous = [cur], [], []
    for t in range(k + 1):
        table = _table(mm, nn)
        codes = _word_codes(table, cur)
        mask = _word_mask(table, codes)
        among = mask if t == 0 else mask & ((1 << nn) - 1)  # upward after t = 0
        ambiguous.append(among.bit_count() != 1)
        sectors.append(i := (mask & -mask).bit_length() - 1 if mask else None)
        if t == k or len(cur) < 2 or (i is None and any(ambiguous[:-1])):
            break
        if i is None:
            raise NotAdmissible(f"word admissible in no sector of M({mm},{nn})")
        labels = _derivative(table, codes, i)
        cur = labels[::-1] if i >= nn else labels
        words.append(list(cur))
        mm, nn = nn, mm
    return words, sectors, ambiguous


@lru_cache(maxsize=None, typed=True)
def generation_diagram(m, n, i):
    """Interpolation data for the arrows of T_i of M(m,n), 1 <= i <= n-1.

    Each arrow (x, y) of T_i is matched with the unique path in the dual
    derivation diagram D_0 of M(n,m) from an arrow labeled x to an arrow
    labeled y crossing no other labeled arrow.  The value is (A, B, vertices)
    with A, B the two labeled arrows and vertices the dual vertex string
    from head(A) to tail(B) inclusive.
    """
    if not 1 <= i <= n - 1:
        raise ValueError(f"sector {i} out of range 1..{n - 1}")
    ti = build_Ti(m, n, i)
    dual = build_D0(n, m)
    verticals = {a: b for (a, b) in dual.arrows if (a, b) not in dual.arrow_labels}
    instances = {}
    for arrow, lab in dual.arrow_labels.items():
        instances.setdefault(lab, []).append(arrow)
    out = {}
    for (x, y) in ti.arrows:
        sols = []
        for a_arr in instances[x]:
            path = [a_arr[1]]
            while True:
                v = path[-1]
                for b_arr in instances[y]:
                    if b_arr[0] == v:
                        sols.append((a_arr, b_arr, list(path)))
                if v not in verticals:
                    break
                path.append(verticals[v])
        if not sols:
            raise RuntimeError(f"no interpolating path for arrow ({x}, {y})")
        if len(sols) > 1:
            raise RuntimeError(f"{len(sols)} interpolating paths for ({x}, {y})")
        out[(x, y)] = sols[0]
    return out


@lru_cache(maxsize=None, typed=True)
def _generation_steps(m, n, i):
    """generate in sector i as one nested table: steps[x][y] of a T_0
    transition (x, y) of M(n,m) is (tail of A, vertices, head of B) for the
    value (A, B, vertices) of its image in generation_diagram(n, m, i).
    The paths must chain: at each letter, the B of every arrow in and the
    A of every arrow out agree."""
    gd = generation_diagram(n, m, i)
    perm = sector_permutation(n, m, i)  # its own inverse
    seam = {}
    for (x, y), (a_arr, b_arr, _) in gd.items():
        if seam.setdefault(y, b_arr) != b_arr or seam.setdefault(x, a_arr) != a_arr:
            raise RuntimeError("interpolating paths do not chain")
    steps = {}
    for (x, y), (a_arr, b_arr, path) in gd.items():
        steps.setdefault(perm[x], {})[perm[y]] = (a_arr[0], tuple(path), b_arr[1])
    return steps


def generate(m, n, i, word):
    """Preimage of derivation in sector i: dual-admissible word to primal.

    word must be admissible in T_0 of M(n,m); the result is admissible in
    T_0 of M(m,n), derives back to the sector-i representative of word,
    and normalizes back to (i, word).
    """
    word = list(word)
    if len(word) < 2:
        raise ValueError("generation needs at least two letters")
    # a sector out of range is reported below, after letters that are no side
    steps = _generation_steps(m, n, i) if isinstance(i, int) and 1 <= i < m else {}
    try:
        out = [steps[word[0]][word[1]][0]]
        for a, b in zip(word, word[1:]):
            _, path, head = steps[a][b]
            out += path
    except KeyError:
        out = None
    if out is None:
        sides = sector_permutation(n, m, 0)
        for x in word:
            if x not in sides:
                raise NotAdmissible(f"{x} is not a side of M({n},{m})")
        if not isinstance(i, int):
            raise ValueError(f"sector {i!r} is no int")
        generation_diagram(n, m, i)  # raises for a sector out of 1..m-1
        perm = sector_permutation(n, m, i)
        a, b = next((a, b) for a, b in zip(word, word[1:])
                    if b not in steps.get(a, ()))
        raise NotAdmissible(f"transition ({perm[a]}, {perm[b]}) "
                            f"not in T_{i} of M({n},{m})")
    out.append(head)
    return out


@lru_cache(maxsize=None, typed=True)
def pseudo_substitution(m, n, i):
    """Arrow-level generation: names of U of M(m,n) to words over U of M(n,m).

    An arrow of T_i annotated w_1..w_N maps to a_0..a_{N-1}, where a_0 is
    the dual arrow labeled by the tail and a_t the arrow w_t -> w_{t+1}.
    """
    steps = _generation_steps(n, m, i)
    dst = arrow_alphabet(n, m).name_of_arrow
    out = {}
    for name, (x, y) in arrow_alphabet(m, n).arrow_of_name.items():
        tail, path, _ = steps[x][y]
        out[name] = [dst[uv] for uv in zip((tail, *path), path)]
    return out


def substitution(m, n, i, j):
    """Composed substitution on the arrows of M(m,n): psub_j of M(n,m) after psub_i."""
    ps1 = pseudo_substitution(m, n, i)
    ps2 = pseudo_substitution(n, m, j)
    return {s: [u for t in ps1[s] for u in ps2[t]] for s in ps1}


def tr_operator(m, n, i, arrow_names):
    """Vertex word traversed by a chained arrow word, in sector i labels."""
    perm = sector_permutation(m, n, i)
    path = arrow_alphabet(m, n).to_vertices(arrow_names)
    return [perm[x] for x in path]


def tr_operator_inverse(m, n, i, word):
    """Arrow word of a sector-i vertex word; raises NotChained if broken."""
    perm = sector_permutation(m, n, i)
    return arrow_alphabet(m, n).to_arrows([perm[x] for x in word])


def fixed_point_form(word):
    """(n1, n2) if the word is a window of the periodic word n1 n2 n1 n2 ..."""
    word = list(word)
    if len(word) < 2 or word[0] == word[1] or word[2:] != word[:-2]:
        return None
    return (word[0], word[1])
