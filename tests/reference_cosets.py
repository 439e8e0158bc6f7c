"""A reference coset enumerator for the tests, written apart from the package.

It is the HLT strategy of Holt, Eick and O'Brien, "Handbook of Computational
Group Theory" (section 5.1), for presentations in which every generator is an
involution: each relator is scanned and filled at each live coset in turn,
and then the coset's undefined entries are defined.  A coincidence is
processed as in the Handbook's COINCIDENCE routine, which removes every
entry pointing at the coset that dies, so a live row only ever names live
cosets.  Nothing here comes from cluster_presents: a presentation is any
object with a generator count `n` and `relations` of `word` and `exponent`.

On the trivial subgroup the completed table is the regular permutation
representation, in which the tests evaluate words and generator maps.
"""

from collections import deque


def enumerate_cosets(presentation, subgroup=(), limit=1_000_000):
    """The coset table of the subgroup generated by the given words.

    rows[c][g] is the coset c s_g, the cosets numbered 0..index-1 in the
    order they were defined, 0 the subgroup itself.  Raises RuntimeError
    once more than `limit` cosets have been defined."""
    ngen = presentation.n
    relators = [tuple(rel.word) * rel.exponent for rel in presentation.relations]
    table = [[None] * ngen]
    merged_into = [0]  # merged_into[c] == c while c is live

    def find(c):
        while merged_into[c] != c:
            c = merged_into[c]
        return c

    def define(c, g):
        if len(table) >= limit:
            raise RuntimeError(f"more than {limit} cosets defined")
        d = len(table)
        table.append([None] * ngen)
        merged_into.append(d)
        table[c][g] = d
        table[d][g] = c

    def coincidence(x, y):
        pending = deque([(x, y)])
        while pending:
            x, y = pending.popleft()
            a, b = sorted((find(x), find(y)))
            if a == b:
                continue
            merged_into[b] = a
            for g, d in enumerate(table[b]):
                if d is None:
                    continue
                # d s_g was b, which dies; the Handbook's other case, d s_g
                # defined after this, cannot arise when s_g is an involution
                table[d][g] = None
                d = find(d)
                if table[a][g] is not None:
                    pending.append((d, table[a][g]))
                else:
                    table[a][g] = d
                    table[d][g] = a

    def scan_and_fill(c, word):
        f, i = c, 0
        b, j = c, len(word) - 1
        while True:
            while i <= j and table[f][word[i]] is not None:
                f = table[f][word[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][word[j]] is not None:
                b = table[b][word[j]]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:  # a deduction: f s = b, and s is its own inverse
                table[f][word[i]] = b
                table[b][word[i]] = f
                return
            define(f, word[i])

    for word in subgroup:
        scan_and_fill(0, word)
    c = 0
    while c < len(table):
        for word in relators:
            if merged_into[c] != c:
                break
            scan_and_fill(c, word)
        if merged_into[c] == c:
            for g in range(ngen):
                if table[c][g] is None:
                    define(c, g)
        c += 1
    live = [c for c in range(len(table)) if merged_into[c] == c]
    number = {c: i for i, c in enumerate(live)}
    return [[number[d] for d in table[c]] for c in live]


def regular_images(presentation):
    """Per generator, its permutation of the group's elements: images[g][p] = p s_g."""
    rows = enumerate_cosets(presentation)
    return tuple(tuple(row[g] for row in rows) for g in range(presentation.n))


def act(images, word):
    """The permutation by which the word acts, its letters applied left to right."""
    points = tuple(range(len(images[0])))
    for letter in word:
        points = tuple(images[letter][p] for p in points)
    return points


def first_failing(images, generator_images, relations):
    """The first relation not killed by sending generator i to the word
    generator_images[i], or None when the map is a homomorphism."""
    identity = tuple(range(len(images[0])))
    for rel in relations:
        word = tuple(x for letter in rel.word for x in generator_images[letter])
        if act(images, word * rel.exponent) != identity:
            return rel
    return None
