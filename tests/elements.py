"""Field elements, matrices and documents written the way a test writes them down.

The package reads a scalar string straight into its integer image and
builds a matrix from flat values or from an image.  These helpers build
the same objects from the forms the tests use: a scalar string as its
element, a field's zero, and a matrix from a list of rows, and read a
matrix back as its rows.  `GAP_DOC` is the one state document, written
here once, that the tests feed the CLI as a classification gap.
"""

from entinv.linalg import ExactMatrix, cleared, from_image


def parse(field, text):
    """The element a scalar string denotes, read through `parse_image`."""
    return from_image(field, *cleared(field.parse_image(text)))[0]


def zero(field):
    return field.coerce(0)


def from_rows(field, rows) -> ExactMatrix:
    """The matrix with the given rows of values (ints or elements)."""
    cols = len(rows[0]) if rows else 0
    if any(len(row) != cols for row in rows):
        raise ValueError("ragged rows")
    return ExactMatrix(field, len(rows), cols, [x for row in rows for x in row])


def rows_of(m) -> list[list]:
    """The rows of a matrix as lists of values, sliced from `entries`."""
    entries, cols = m.entries, m.cols
    return [entries[cols * i : cols * (i + 1)] for i in range(m.rows)]


# a binary state with no class over gf(2), whose signature is GHZ's but for k123
GAP_DOC = {"field": "gf(2)", "dims": [2, 2, 2],
           "entries": ["0", "1", "1", "0", "1", "0", "0", "1"]}


def padded_gap(d: int) -> dict:
    """`GAP_DOC` padded with zero slices to (2, 2, d): the same gap at that shape."""
    entries = [GAP_DOC["entries"][2 * ij + k] if k < 2 else "0"
               for ij in range(4) for k in range(d)]
    return {**GAP_DOC, "dims": [2, 2, d], "entries": entries}
