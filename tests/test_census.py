"""Orbit census of binary (2,b,d) states against the class tables.

A binary state is a multiset of d slice patterns: slice k of the last
factor, read as 2b bits (bit i*b + j is the coefficient at (i, j, k)).
Permuting the last factor's basis reorders the slices, and permuting the
bases of the first two factors (S2 x Sb) permutes the bits of every
pattern alike.  A multiset stands for its orbit when it is the
lexicographically smallest of its images.  Every orbit must classify
without a gap, and together they must hit every class of the table.
"""

from itertools import combinations_with_replacement, permutations

import pytest

from entinv.fields import QQ
from entinv.tables import classify, table_for
from entinv.tensors import Shape, Tensor

# orbit counts of binary states up to S2 x Sb x Sd
CENSUS = {(2, 2, 2): 46, (2, 2, 3): 237, (2, 2, 4): 1056, (2, 3, 3): 4236}


def _pattern_maps(b: int) -> list[list[int]]:
    """For each of the 2 * b! bit permutations, the image of every pattern."""
    maps = []
    for s in permutations(range(2)):
        for t in permutations(range(b)):
            target = [s[i] * b + t[j] for i in range(2) for j in range(b)]
            maps.append([
                sum(1 << target[c] for c in range(2 * b) if p >> c & 1)
                for p in range(1 << 2 * b)
            ])
    return maps


def orbit_representatives(b: int, d: int) -> list[tuple[int, ...]]:
    maps = _pattern_maps(b)
    return [
        ms
        for ms in combinations_with_replacement(range(1 << 2 * b), d)
        if all(tuple(sorted(m[p] for p in ms)) >= ms for m in maps)
    ]


def burnside_count(b: int, d: int) -> int:
    """Orbits of d-multisets of patterns, averaging fixed multisets over the group.

    A multiset is fixed by a pattern permutation exactly when it is a union
    of whole cycles, so the fixed count is the x^d coefficient of the
    product over cycles c of 1 / (1 - x^|c|).
    """
    maps = _pattern_maps(b)
    total = 0
    for m in maps:
        series = [1] + [0] * d
        seen = set()
        for p in range(len(m)):
            length = 0
            while p not in seen:
                seen.add(p)
                p = m[p]
                length += 1
            if length:
                for k in range(length, d + 1):
                    series[k] += series[k - length]
        total += series[d]
    return total // len(maps)


def _state(shape: Shape, ms: tuple[int, ...]) -> Tensor:
    _, b, d = shape.dims
    coeffs = [QQ.coerce(ms[k] >> c & 1) for c in range(2 * b) for k in range(d)]
    return Tensor(QQ, shape, coeffs)


@pytest.mark.parametrize("dims", sorted(CENSUS), ids=str)
def test_orbit_count_matches_burnside(dims):
    _, b, d = dims
    assert burnside_count(b, d) == CENSUS[dims]


@pytest.mark.parametrize("dims", sorted(CENSUS), ids=str)
def test_every_orbit_classifies_and_every_class_is_hit(dims):
    shape = Shape(dims)
    reps = orbit_representatives(dims[1], dims[2])
    assert len(reps) == CENSUS[dims]
    # classify raises ClassificationGapError on a signature outside the table
    hit = {classify(_state(shape, ms)) for ms in reps}
    assert hit == {e.label for e in table_for(shape).entries}
