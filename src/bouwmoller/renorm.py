"""Derivation, generation, substitutions, and the operators tying them together."""

from functools import lru_cache

from .diagrams import (NotAdmissible, admissible_in, arrow_alphabet, build_D0,
                       build_Ti, sector_permutation)


@lru_cache(maxsize=None)
def _d0_steps(m, n):
    """D_0 of M(m,n) as one table: arrow -> its dual label, or 0 if unlabeled."""
    d0 = build_D0(m, n)
    return {arrow: d0.arrow_labels.get(arrow, 0) for arrow in d0.arrows}


def derive(m, n, word, cyclic=False):
    """Dual labels of the labeled transitions of a T_0-admissible word.

    With cyclic=True the wrap-around transition is included, as for the
    window of a periodic sequence.
    """
    word = list(word)
    if len(word) < 2:
        raise ValueError("derivation needs at least two letters")
    nxt = word[1:] + (word[:1] if cyclic else [])
    labels = list(map(_d0_steps(m, n).get, zip(word, nxt)))
    if None in labels:
        k = labels.index(None)
        raise NotAdmissible(f"transition ({word[k]}, {nxt[k]}) "
                            f"not in T_0 of M({m},{n})")
    return list(filter(None, labels))


def normalize(m, n, word):
    """Smallest admissible sector and the word mapped into T_0."""
    word = list(word)
    return _normalized(m, n, word, admissible_in(m, n, word))


def _normalized(m, n, word, sectors):
    """normalize, given the list word and its admissible sectors."""
    if not sectors:
        raise NotAdmissible(f"word admissible in no sector of M({m},{n})")
    i = min(sectors)
    perm = sector_permutation(m, n, i % n)
    return i, [perm[x] for x in (word[::-1] if i >= n else word)]


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
    than k+1 stages.
    """
    cur = list(word)
    mm, nn = m, n
    words, sectors, ambiguous = [cur], [], []
    for t in range(k + 1):
        adm = admissible_in(mm, nn, cur)
        ambiguous.append(len([s for s in adm if t == 0 or s < nn]) != 1)
        if t == k or len(cur) < 2:
            sectors.append(min(adm) if adm else None)
            break
        i, u = _normalized(mm, nn, cur, adm)
        sectors.append(i)
        cur = derive(mm, nn, u)
        words.append(cur)
        mm, nn = nn, mm
    return words, sectors, ambiguous


@lru_cache(maxsize=None)
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


def generate(m, n, i, word):
    """Preimage of derivation in sector i: dual-admissible word to primal.

    word must be admissible in T_0 of M(n,m); the result is admissible in
    T_0 of M(m,n), derives back to the sector-i representative of word,
    and normalizes back to (i, word).
    """
    word = list(word)
    if len(word) < 2:
        raise ValueError("generation needs at least two letters")
    perm = sector_permutation(n, m, i)
    try:
        w = [perm[x] for x in word]
    except KeyError as exc:
        raise NotAdmissible(f"{exc.args[0]} is not a side of M({n},{m})") from None
    gd = generation_diagram(n, m, i)
    arrows = []
    for a, b in zip(w, w[1:]):
        if (a, b) not in gd:
            raise NotAdmissible(f"transition ({a}, {b}) not in T_{i} of M({n},{m})")
        arrows.append(gd[(a, b)])
    for (_, b1, _), (a2, _, _) in zip(arrows, arrows[1:]):
        if b1 != a2:
            raise RuntimeError("interpolating paths do not chain")
    out = [arrows[0][0][0]]
    for _, _, path in arrows:
        out.extend(path)
    out.append(arrows[-1][1][1])
    return out


@lru_cache(maxsize=None)
def pseudo_substitution(m, n, i):
    """Arrow-level generation: names of U of M(m,n) to words over U of M(n,m).

    An arrow of T_i annotated w_1..w_N maps to a_0..a_{N-1}, where a_0 is
    the dual arrow labeled by the tail and a_t the arrow w_t -> w_{t+1}.
    """
    gd = generation_diagram(m, n, i)
    perm = sector_permutation(m, n, i)
    src = arrow_alphabet(m, n)
    dst = arrow_alphabet(n, m)
    out = {}
    for name, (p, q) in src.arrow_of_name.items():
        a_arr, _, path = gd[(perm[p], perm[q])]
        names = [dst.name_of_arrow[a_arr]]
        for u, v in zip(path, path[1:]):
            names.append(dst.name_of_arrow[(u, v)])
        out[name] = names
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
    if len(word) < 2 or word[0] == word[1]:
        return None
    n1, n2 = word[0], word[1]
    for t, x in enumerate(word):
        if x != (n1 if t % 2 == 0 else n2):
            return None
    return (n1, n2)
