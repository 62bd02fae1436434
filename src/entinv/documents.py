"""Tensor documents: the JSON file format consumed and emitted by the CLI.

A document is a single JSON object with exactly three keys:

    field    "rational" | "gf(p)" | "gaussian-rational"
    dims     list of 2 or 3 positive integers
    entries  dense:  list of scalar strings, row-major, length prod(dims)
             sparse: list of {"index": [0-based ints], "value": "scalar"};
                     omitted positions are zero, so [] is the zero state

Scalars are exact strings ("a", "a/b", "a/b+c/di") in the one ASCII
grammar of :mod:`~entinv.fields`; anything that smells of floating point
is rejected.  Each scalar is read straight into integers
(`Field.parse_image`), which the tensor holds over one common
denominator, refused past `linalg.MAX_IMAGE_BITS` as the scalars are
read; no field element is built.  Unknown keys are rejected so that
typos fail loudly instead of being ignored.  `admit` bounds what a state
may cost before any of its coefficients is allocated.
"""

from __future__ import annotations

import json

from .fields import Field, field_from_descriptor
from .linalg import CHUNK, capped, over_den
from .tensors import Shape, ShapeError, Tensor


class DocumentError(ValueError):
    """A tensor document failed to parse or validate."""


MAX_COEFFICIENTS = 2**20
# the cap on rows * cols * min(rows, cols) of a matrix to eliminate: exact
# elimination grows at least that fast, and 2**23 admits a 203 x 203 matrix
MAX_ELIMINATION = 2**23

_TOP_KEYS = {"field", "dims", "entries"}
_SPARSE_KEYS = {"index", "value"}


def admit(shape: Shape, field: Field, bases: bool = False, where: str = "") -> None:
    """Refuse a costly state before anything is allocated; `where` prefixes the message.

    A state has at most MAX_COEFFICIENTS coefficients.  A bipartite state's
    flattening, and with `bases` each factor's d_i x d_i basis, is bounded
    by MAX_ELIMINATION.  Over Q(i) a matrix is eliminated over the Gaussian
    integers, two integers an entry and several integer products a
    Gaussian one, so the cap counts it as twice as tall and wide.  (2,2,d)
    and (2,3,d) states eliminate matrices at most 6 wide.
    """
    if shape.size > MAX_COEFFICIENTS:
        raise DocumentError(
            f"{where}dims {shape.dims} give {shape.size} coefficients, "
            f"more than the cap of {MAX_COEFFICIENTS}"
        )
    image = field.width
    squares = [(d, d) for d in shape.dims] if bases else []
    for rows, cols in ([shape.dims] if shape.n == 2 else []) + squares:
        rows, cols = image * rows, image * cols
        work = rows * cols * min(rows, cols)
        if work > MAX_ELIMINATION:
            raise DocumentError(
                f"{where}dims {shape.dims} over {field.descriptor} need eliminating a "
                f"{rows}x{cols} matrix: rows*cols*min(rows, cols) = {work}, "
                f"more than the cap of {MAX_ELIMINATION}"
            )


def parse_document(text: str, source: str = "<input>") -> Tensor:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{source}: not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DocumentError(f"{source}: JSON nested too deeply to parse") from exc

    if not isinstance(data, dict):
        raise DocumentError(f"{source}: document must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise DocumentError(f"{source}: unknown field(s) {sorted(unknown)}; allowed: field, dims, entries")
    missing = _TOP_KEYS - set(data)
    if missing:
        raise DocumentError(f"{source}: missing field(s) {sorted(missing)}")

    if not isinstance(data["field"], str):
        raise DocumentError(f"{source}: 'field' must be a string descriptor")
    try:
        field = field_from_descriptor(data["field"])
    except ValueError as exc:
        raise DocumentError(f"{source}: {exc}") from exc

    dims = data["dims"]
    if not isinstance(dims, list) or not all(isinstance(d, int) and not isinstance(d, bool) for d in dims):
        raise DocumentError(f"{source}: 'dims' must be a list of integers")
    try:
        shape = Shape(dims)
    except ShapeError as exc:
        raise DocumentError(f"{source}: {exc}") from exc
    admit(shape, field, where=f"{source}: ")

    entries = data["entries"]
    if not isinstance(entries, list):
        raise DocumentError(f"{source}: 'entries' must be a list")

    # an empty list is sparse: the zero state has no nonzero entry to list
    dense = bool(entries) and all(isinstance(e, str) for e in entries)
    if not dense and not all(isinstance(e, dict) for e in entries):
        raise DocumentError(
            f"{source}: entries must be all scalar strings (dense) or all index/value objects (sparse)"
        )
    if dense and len(entries) != shape.size:
        raise DocumentError(
            f"{source}: dense entries need {shape.size} scalars for dims {shape.dims}, "
            f"got {len(entries)}"
        )
    # the flat pairs n, d of each scalar's `parse_image`, at its offset; the
    # denominators are `capped` as each CHUNK of them is read, and at the last
    e, parse, seen, den, dens = 2 * field.width, field.parse_image, set(), 1, []
    pairs, last = [0, 1] * (field.width * shape.size), len(entries) - 1
    for pos, item in enumerate(entries):
        if dense:
            off, value = pos, item
        else:
            at = f"{source}: entries[{pos}]: "
            unknown = set(item) - _SPARSE_KEYS
            if unknown:
                raise DocumentError(f"{at}unknown field(s) {sorted(unknown)}")
            if set(item) != _SPARSE_KEYS:
                raise DocumentError(f"{at}need exactly 'index' and 'value'")
            index, value = item["index"], item["value"]
            if not isinstance(index, list):
                raise DocumentError(f"{at}'index' must be a list of {shape.n} integers (0-based)")
            try:
                off = shape.offset(index)
            except ShapeError as exc:
                raise DocumentError(f"{at}{exc}") from exc
            if off in seen:
                raise DocumentError(f"{at}duplicate index {index}")
            seen.add(off)
            if not isinstance(value, str):
                raise DocumentError(f"{at}'value' must be a scalar string")
        try:
            pairs[e * off : e * off + e] = got = parse(value)
        except ValueError as exc:
            raise DocumentError(f"{source}: entries[{pos}]: {exc}") from exc
        dens += got[1::2]
        if len(dens) == CHUNK or pos == last:
            try:
                den, dens = capped(len(pairs) // 2, den, dens), []
            except ValueError as exc:
                raise DocumentError(f"{source}: {exc}") from exc
    return Tensor.of_image(field, shape, over_den(pairs, den), den)


def document_dict(tensor: Tensor, sparse: bool = False) -> dict:
    if sparse:
        entries = [
            {"index": list(index), "value": tensor.field.format(c)}
            for index, c in zip(tensor.shape.indices(), tensor.coeffs)
            if c
        ]
    else:
        entries = [tensor.field.format(c) for c in tensor.coeffs]
    return {
        "field": tensor.field.descriptor,
        "dims": list(tensor.shape.dims),
        "entries": entries,
    }


def emit_document(tensor: Tensor, sparse: bool = False) -> str:
    return json.dumps(document_dict(tensor, sparse=sparse), indent=2) + "\n"
