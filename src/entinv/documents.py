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
denominator; it and the numerators are refused past `MAX_IMAGE_BITS` as
the scalars are read; no field element is built.  Unknown and repeated
keys are rejected so that typos fail loudly.  `admit` bounds what a
state may cost before any of its coefficients is allocated.

`MAX_DOCUMENT_BYTES` bounds a document's length before it is read whole:
an image of `MAX_IMAGE_BITS` bits takes fewer than bits * 0.30103 decimal
digits plus one per integer, and each of `MAX_COEFFICIENTS` dense entries
adds at most 16 characters of syntax (a four-space indent, quotes, comma,
newline, a Gaussian scalar's two signs, two slashes and i) and its four
integers' last digits: 101,778,645 ASCII characters in all, about 97 MiB.
"""

from __future__ import annotations

import json
from collections import Counter
from json.encoder import encode_basestring_ascii

from .fields import Field, field_from_descriptor
from .linalg import CHUNK, MAX_IMAGE_BITS, capped, over_den
from .tensors import Shape, ShapeError, Tensor


class DocumentError(ValueError):
    """A tensor document failed to parse or validate."""


MAX_COEFFICIENTS = 2**20
# the cap on rows * cols * min(rows, cols) of a matrix to eliminate: exact
# elimination grows at least that fast, and 2**23 admits a 203 x 203 matrix
MAX_ELIMINATION = 2**23
MAX_DOCUMENT_BYTES = MAX_IMAGE_BITS * 30103 // 100000 + 20 * MAX_COEFFICIENTS

_TOP_KEYS = {"field", "dims", "entries"}
_SPARSE_KEYS = {"index", "value"}


def admit(shape: Shape, field: Field, bases: bool = False, where: str = "") -> None:
    """Refuse a costly state before anything is allocated; `where` prefixes the message.

    A state has at most MAX_COEFFICIENTS coefficients.  A bipartite state's
    flattening, and with `bases` each factor's d_i x d_i basis, is bounded
    by MAX_ELIMINATION.  Over Q(i) a matrix is eliminated over the Gaussian
    integers, two integers an entry and several integer products a
    Gaussian one, so the cap counts it as twice as tall and wide.  At
    (2,2,d) and (2,3,d) the widest matrix, the d1 d2 x (d3 + d1 d2) slice
    elimination, has rows * cols * min(rows, cols) <= 36 (d3 + 6), within
    the coefficient cap; R of k123 is at most 11 x 9, k1's d1 x d2 r.
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


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict, refused by a ValueError if a name occurs twice."""
    if len(data := dict(pairs)) < len(pairs):
        [(name, _)] = Counter(k for k, _ in pairs).most_common(1)
        raise ValueError(f"duplicate key {name!r}")
    return data


def _sparse_offset(item: dict, shape: Shape, seen: set, at: str) -> int:
    """The offset of a sparse entry, added to `seen`, or a DocumentError after `at`."""
    if unknown := set(item) - _SPARSE_KEYS:
        raise DocumentError(f"{at}unknown field(s) {sorted(unknown)}")
    if set(item) != _SPARSE_KEYS:
        raise DocumentError(f"{at}need exactly 'index' and 'value'")
    if not isinstance(index := item["index"], list):
        raise DocumentError(f"{at}'index' must be a list of {shape.n} integers (0-based)")
    try:
        off = shape.offset(index)
    except ShapeError as exc:
        raise DocumentError(f"{at}{exc}") from exc
    if off in seen:
        raise DocumentError(f"{at}duplicate index {index}")
    seen.add(off)
    if not isinstance(item["value"], str):
        raise DocumentError(f"{at}'value' must be a scalar string")
    return off


def parse_document(text: str, source: str = "<input>") -> Tensor:
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # also a repeated name, or an integer past 4300 digits
        raise DocumentError(f"{source}: not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DocumentError(f"{source}: JSON nested too deeply to parse") from exc

    if not isinstance(data, dict):
        raise DocumentError(f"{source}: document must be a JSON object")
    if unknown := set(data) - _TOP_KEYS:
        raise DocumentError(f"{source}: unknown field(s) {sorted(unknown)}; allowed: field, dims, entries")
    if missing := _TOP_KEYS - set(data):
        raise DocumentError(f"{source}: missing field(s) {sorted(missing)}")

    if not isinstance(data["field"], str):
        raise DocumentError(f"{source}: 'field' must be a string descriptor")
    try:
        field = field_from_descriptor(data["field"])
    except ValueError as exc:
        raise DocumentError(f"{source}: {exc}") from exc

    if not isinstance(dims := data["dims"], list):
        raise DocumentError(f"{source}: 'dims' must be a list of integers")
    try:
        shape = Shape(dims)
    except ShapeError as exc:
        raise DocumentError(f"{source}: {exc}") from exc
    admit(shape, field, where=f"{source}: ")

    if not isinstance(entries := data["entries"], list):
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
    # the flat pairs n, d of each scalar's `parse_image`, at its offset, CHUNK
    # denominators at a time: parsed at once, `capped`, and numerator bits summed
    e, parse, step = 2 * field.width, field.parse_image, CHUNK // field.width
    count, den, bits, seen = field.width * shape.size, 1, 0, set()
    pairs = [] if dense else [0, 1] * count
    for start in range(0, len(entries), step):
        chunk, offs, fault = entries[start : start + step], [], None
        if not dense:  # the entries up to the first fault, raised after their scalars
            try:
                for pos, item in enumerate(chunk, start):
                    offs.append(_sparse_offset(item, shape, seen, f"{source}: entries[{pos}]: "))
            except DocumentError as exc:
                fault = exc
            chunk = [item["value"] for item in chunk[: len(offs)]]
        try:
            got = [t for x in chunk for t in parse(x)]
        except ValueError:
            for pos, x in enumerate(chunk, start):
                try:
                    parse(x)
                except ValueError as exc:
                    raise DocumentError(f"{source}: entries[{pos}]: {exc}") from exc
            raise
        if fault:
            raise fault
        if dense:
            pairs += got
        for k, off in enumerate(offs):
            pairs[e * off : e * off + e] = got[e * k : e * k + e]
        try:
            den = capped(count, den, got[1::2])
        except ValueError as exc:
            raise DocumentError(f"{source}: {exc}") from exc
        if (bits := bits + sum(map(int.bit_length, got[::2]))) > MAX_IMAGE_BITS:
            raise DocumentError(f"{source}: numerators of {bits}+ bits pass the cap of "
                                f"{MAX_IMAGE_BITS} bits on an image")
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
    return indented_json(document_dict(tensor, sparse=sparse)) + "\n"


def indented_json(value, indent: str = "\n") -> str:
    """The text of `json.dumps(value, indent=2)` in about 60% of its time, for
    dicts with str keys, lists, tuples, str, int, bool and None; anything
    else is a TypeError.  `indent` opens each line of the value's level."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        # a key that is not a str is a TypeError of the string encoder
        items = [encode_basestring_ascii(k) + ": " + indented_json(v, inner)
                 for k, v in value.items()]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        items = [indented_json(v, inner) for v in value]
        brackets = "[]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]
