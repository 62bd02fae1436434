"""Exact orbits of a small tripartite state space over GF(2) or GF(3).

Over GF(q) the states of shape (d1, d2, d3) are finite: q^n of them,
n = d1 d2 d3.  A state is coded as the integer whose base-q digits are
its coefficients, row-major, the first coefficient the most significant.
On each factor three maps generate GL_d(GF(2)): the swap of e0 and e1,
the cycle e0 -> e1 -> ... -> e(d-1) -> e0, and the transvection
e0 -> e0 + e1.  The permutations conjugate that transvection into every
e_i -> e_i + e_j, which generate SL_d; over GF(3) the scaling e0 -> 2 e0
adds the missing determinant.  An orbit of the local group is then a
connected component of the graph that joins each state to its images
under these maps, found here by a flood fill from each state in turn.

Nothing here comes from the package, so it is an independent check of
the tables: no signature, no elimination, only coefficient lists.
"""

import itertools
from array import array
from functools import reduce
from math import prod
from operator import xor

CHUNK = 6  # bits per lookup table of a GF(2) map


def _factor_maps(d, q):
    """The generators on one factor, each as a map a -> [(b, c), ...]: e_a -> sum c e_b."""
    maps = [
        {a: [(1 - a if a < 2 else a, 1)] for a in range(d)},  # swap e0, e1
        {a: [((a + 1) % d, 1)] for a in range(d)},  # cycle
        {0: [(0, 1), (1, 1)], **{a: [(a, 1)] for a in range(1, d)}},  # e0 -> e0 + e1
    ]
    if q == 3:
        maps.append({0: [(0, 2)], **{a: [(a, 1)] for a in range(1, d)}})  # e0 -> 2 e0
    return maps


def _generators(dims, q):
    """Each generator as the images of the n basis states: a list of [(u, c), ...] per t."""
    indices = list(itertools.product(*map(range, dims)))
    flat = {index: t for t, index in enumerate(indices)}
    generators = []
    for f, d in enumerate(dims):
        for g in _factor_maps(d, q):
            generators.append([
                [(flat[index[:f] + (b,) + index[f + 1:]], c) for b, c in g[index[f]]]
                for index in indices
            ])
    return generators


def _gf2_maps(generators, n):
    """Each generator as a function on codes, XOR-ing one table entry per CHUNK bits."""
    shifts = range(0, n, CHUNK)
    maps = []
    for images in generators:
        # the image of the basis state e_t, the bit n - 1 - t
        bit_image = [sum(1 << (n - 1 - u) for u, _ in images[n - 1 - j]) for j in range(n)]
        tables = []
        for shift in shifts:
            table = [0] * (1 << min(CHUNK, n - shift))
            for m in range(1, len(table)):
                low = (m & -m).bit_length() - 1
                table[m] = table[m & (m - 1)] ^ bit_image[shift + low]
            tables.append(table)
        maps.append(tables)
    mask = (1 << CHUNK) - 1

    def images_of(s):
        chunks = [(s >> shift) & mask for shift in shifts]
        return [reduce(xor, map(list.__getitem__, tables, chunks)) for tables in maps]

    return images_of


def _digit_maps(generators, n, q):
    """Each generator as a function on codes, through the state's base-q digits."""
    weights = [q ** (n - 1 - u) for u in range(n)]

    def images_of(s):
        x = coefficients(s, n, q)
        found = []
        for images in generators:
            y = [0] * n
            for t, xt in enumerate(x):
                if xt:
                    for u, c in images[t]:
                        y[u] += xt * c
            found.append(sum(w * (yu % q) for w, yu in zip(weights, y)))
        return found

    return images_of


def coefficients(s, n, q):
    """The coefficients of the state coded `s`, first to last."""
    digits = []
    for _ in range(n):
        s, digit = divmod(s, q)
        digits.append(digit)
    return tuple(reversed(digits))


def orbits(dims, q):
    """The local orbits of the GF(q) states of shape `dims`, for q = 2 or 3.

    Returns (`orbit`, `found`): `orbit[s]` is the number of the orbit of
    the state coded `s`, and `found[k]` is orbit k's (size, smallest
    state), the state as its coefficients.  Orbits are numbered in the
    order of their smallest states.
    """
    if q not in (2, 3):
        raise ValueError(f"the generators are known to generate GL_d only over GF(2), GF(3): {q}")
    n = prod(dims)
    generators = _generators(dims, q)
    images_of = _gf2_maps(generators, n) if q == 2 else _digit_maps(generators, n, q)
    orbit = array("l", [-1]) * q ** n
    found = []
    for seed in range(q ** n):
        if orbit[seed] >= 0:
            continue
        k = len(found)
        orbit[seed] = k
        stack, size = [seed], 0
        while stack:
            size += 1
            for t in images_of(stack.pop()):
                if orbit[t] < 0:
                    orbit[t] = k
                    stack.append(t)
        found.append((size, coefficients(seed, n, q)))
    return orbit, found
