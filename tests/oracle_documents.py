"""The entry loop of `parse_document` one scalar at a time, for the tests to trust.

`documents.parse_document` parses its scalars a chunk at a time and
checks sparse entries a chunk ahead of their scalars.  This module keeps
the plain route that replaced: each entry is checked, parsed and placed
in turn, and the common denominator is `capped` each time CHUNK
denominators have been read, and after the last.  Both must give an
equal `Tensor` or the same `DocumentError` text on every document.

The top-level checks, the scalar grammar and the cap are the package's
own, looked up at call time, so a test that patches `documents.CHUNK` or
`documents.capped` patches both routes.
"""

import json

from entinv import documents
from entinv.documents import _SPARSE_KEYS, _TOP_KEYS, DocumentError, _unique_keys, admit
from entinv.fields import field_from_descriptor
from entinv.linalg import over_den
from entinv.tensors import Shape, ShapeError, Tensor


def parse_document(text: str, source: str = "<input>") -> Tensor:
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:
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
    if not isinstance(dims, list):
        raise DocumentError(f"{source}: 'dims' must be a list of integers")
    try:
        shape = Shape(dims)
    except ShapeError as exc:
        raise DocumentError(f"{source}: {exc}") from exc
    admit(shape, field, where=f"{source}: ")

    entries = data["entries"]
    if not isinstance(entries, list):
        raise DocumentError(f"{source}: 'entries' must be a list")

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
        if len(dens) == documents.CHUNK or pos == last:
            try:
                den, dens = documents.capped(len(pairs) // 2, den, dens), []
            except ValueError as exc:
                raise DocumentError(f"{source}: {exc}") from exc
    return Tensor.of_image(field, shape, over_den(pairs, den), den)
