from itertools import combinations

import pytest

from rainbowcw import (
    Monomial,
    PureComplex,
    alexander_dual_complex,
    diagonal_order,
    face_poset,
    free_vertices,
    induced_subcomplex,
    weight_order,
)


@pytest.fixture(scope="session")
def order35():
    return diagonal_order(3, 5)


@pytest.fixture(scope="session")
def dual35():
    """The worked 3x5 example: dual complex {(1,2,3), (3,4,5)}."""
    return PureComplex(3, 5, [(1, 2, 3), (3, 4, 5)])


@pytest.fixture(scope="session")
def delta35(dual35):
    return alexander_dual_complex(dual35)


# Two reference 2x4 weight orders realizing the textbook cell pictures: the
# first selects the antidiagonal term on column pairs {1,2}, {1,3}, {1,4},
# {3,4} and the diagonal term on {2,3}, {2,4}; the second is antidiagonal
# exactly on {1,3} and {2,3}.
@pytest.fixture(scope="session")
def order24_left():
    return weight_order(2, 4, [(0, 3, 1, 2), (0, 0, 0, 0)])


@pytest.fixture(scope="session")
def order24_right():
    return weight_order(2, 4, [(2, 1, 3, 0), (0, 0, 0, 0)])


LEFT_VERTEX_LABELS = {
    "x[1,2] * x[2,4]",
    "x[1,2] * x[2,3]",
    "x[1,4] * x[2,3]",
    "x[1,2] * x[2,1]",
    "x[1,4] * x[2,1]",
    "x[1,3] * x[2,1]",
}

RIGHT_VERTEX_LABELS = {
    "x[1,3] * x[2,1]",
    "x[1,3] * x[2,4]",
    "x[1,2] * x[2,4]",
    "x[1,3] * x[2,2]",
    "x[1,1] * x[2,4]",
    "x[1,1] * x[2,2]",
}


def random_overlap_dual(n, m, rng, max_facets=None):
    """Random set of facets with pairwise overlap < n-1, by greedy sampling;
    used as a dual complex in the linearity experiments."""
    pool = list(combinations(range(1, m + 1), n))
    rng.shuffle(pool)
    target = rng.randint(0, max_facets) if max_facets is not None else len(pool)
    chosen = []
    for f in pool:
        if len(chosen) >= target:
            break
        if all(len(set(f) & set(g)) < n - 1 for g in chosen):
            chosen.append(f)
    return PureComplex(n, m, chosen)


def in_ideal(ideal, m):
    """Whether the monomial m lies in the ideal: some generator divides it."""
    return any(g.divides(m) for g in ideal.gens)


def replay_free_sequence(cx, ordering):
    """Replay a prescribed deletion order, confirming each vertex lies in a
    unique facet at its turn."""
    current = cx
    for v in ordering:
        if v not in free_vertices(face_poset(current)):
            return False
        current = induced_subcomplex(current, set(current.labels(1)) - {v})
    return True


def boocher_sequence(n, m):
    """The column-wise variable differences x_{1j} - x_{ij}, i = 2..n."""
    return [
        (Monomial.variable((1, j)), Monomial.variable((i, j)))
        for j in range(1, m + 1)
        for i in range(2, n + 1)
    ]
