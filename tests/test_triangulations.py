"""Class completeness from triangulation models.

A type-A_n class is the set of quivers of the triangulations of an
(n + 3)-gon (Caldero-Chapoton-Schiffler, arXiv:math/0401316), and a B/C_n
class the folds of the centrally symmetric triangulations of a (2n + 2)-gon
(Fomin-Zelevinsky, arXiv:hep-th/0111053; Dupont, arXiv:math/0512043).  The
models generate the classes without mutating, so they share no code with
the class search; only the canonical labeling, which deduplicates them, is
shared, and it is checked against brute force in test_diagram.
"""

from math import comb

import pytest

from cluster_presents import dynkin
from cluster_presents.diagram import Diagram, _canonical_labeling, mutation_class


def _catalan(n):
    return comb(2 * n, n) // (n + 1)


def _triangulations(vertices):
    """Every triangulation of the convex polygon whose vertices, listed
    counterclockwise, are `vertices`: lists of triangles, each listed
    counterclockwise."""
    if len(vertices) < 3:
        return [[]]
    first, last = vertices[0], vertices[-1]
    out = []
    for k in range(1, len(vertices) - 1):
        lefts, rights = _triangulations(vertices[:k + 1]), _triangulations(vertices[k:])
        out += [[(first, vertices[k], last), *left, *right] for left in lefts for right in rights]
    return out


def _exchange(m, triangles):
    """The signed adjacency of a triangulation of the m-gon on 0..m-1, on its
    diagonals: b[d, e] = 1 and b[e, d] = -1 when e follows d
    counterclockwise in a triangle."""
    def side(a, b):
        return frozenset((a, b)) if (b - a) % m not in (1, m - 1) else None

    b = {}
    for x, y, z in triangles:
        sides = [side(x, y), side(y, z), side(z, x)]
        for d, e in zip(sides, sides[1:] + sides[:1]):
            if d and e:
                b[d, e], b[e, d] = 1, -1
    return b


def _diagram(orbits, b):
    """The diagram of the folded matrix B[D][E] = sum of b[d, e] over d in
    orbit D, for one e in orbit E."""
    def folded(D, E):
        return sum(b.get((d, E[0]), 0) for d in D)

    edges = [(i, j, folded(D, E) * -folded(E, D))
             for i, D in enumerate(orbits) for j, E in enumerate(orbits) if i != j and folded(D, E) > 0]
    return Diagram(len(orbits), edges)


def _type_a_keys(n):
    m = n + 3
    triangulations = _triangulations(list(range(m)))
    assert len(triangulations) == _catalan(n + 1)
    keys = set()
    for triangles in triangulations:
        b = _exchange(m, triangles)
        orbits = sorted({(d,) for d, _ in b}, key=lambda orbit: sorted(orbit[0]))
        assert len(orbits) == n  # from n = 2 on, every diagonal meets another
        diagram = _diagram(orbits, b)
        keys.add(_canonical_labeling(diagram.n, diagram.edges)[0])
    return keys


def _type_bc_keys(n):
    # a centrally symmetric triangulation holds exactly one diameter (v, v + h):
    # one half triangulated, and its half-turn
    m, h = 2 * n + 2, n + 1

    def turn(points):
        return tuple((x + h) % m for x in points)

    triangulations = []
    for v in range(h):
        for half in _triangulations([(v + t) % m for t in range(h + 1)]):
            triangulations.append(half + [turn(tri) for tri in half])
    assert len({frozenset(t) for t in triangulations}) == len(triangulations) == h * _catalan(n)
    keys = set()
    for triangles in triangulations:
        b = _exchange(m, triangles)
        orbits = sorted({tuple(sorted({d, frozenset(turn(d))}, key=sorted)) for d, _ in b},
                        key=lambda orbit: sorted(orbit[0]))
        assert len(orbits) == n  # the diameter alone, and n - 1 pairs
        diagram = _diagram(orbits, b)
        keys.add(_canonical_labeling(diagram.n, diagram.edges)[0])
    return keys


@pytest.mark.parametrize("n, size", [(2, 1), (3, 4), (4, 6), (5, 19), (6, 49), (7, 150)])
def test_type_a_class_is_the_triangulation_quivers(n, size):
    keys = _type_a_keys(n)
    assert len(keys) == size
    assert keys == set(mutation_class(dynkin.standard_diagram(f"A{n}")).keys)


@pytest.mark.parametrize("n, size", [(2, 1), (3, 5), (4, 14), (5, 42), (6, 132), (7, 429)])
def test_type_bc_class_is_the_folded_symmetric_triangulations(n, size):
    keys = _type_bc_keys(n)
    assert len(keys) == size
    assert keys == set(mutation_class(dynkin.standard_diagram(f"B/C{n}")).keys)
