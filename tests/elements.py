"""Field elements and matrices written the way a test writes them down.

The package reads a scalar string straight into its integer image and
builds a matrix from flat values or from an image.  These helpers build
the same objects from the forms the tests use: a scalar string as its
element, a field's zero, and a matrix from a list of rows.
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
