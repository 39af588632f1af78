"""The seeded random base graphs the roll, rounding and solver tests draw."""

from fractions import Fraction

from rollclust.core import SignedGraph


def random_graph(rng, n, density=0.8):
    """Each pair gets an edge with probability density, weighted p/q with
    q in 1..5 and p in -q..q; a zero draw leaves the pair without an edge."""
    weights = {}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                q = rng.randint(1, 5)
                p = rng.randint(-q, q)
                if p:
                    weights[(u, v)] = Fraction(p, q)
    return SignedGraph(n, weights)
