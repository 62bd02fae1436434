"""Command-line front end.

Subcommands: classify | table | representative | verify | explain3.
`main` hands argv straight to the named subcommand's parser, so argparse
reads each call once.  Machine output goes to stdout, diagnostics to
stderr.  Exit codes:
0 success, 1 usage or input error or an internal error (a failed
self-check, which means a bug), 2 classification gap.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .documents import (MAX_DOCUMENT_BYTES, DocumentError, admit, emit_document,
                        indented_json, parse_document)
from .explain import explain_three_qubit, render_explain_text
from .fields import QQ, FieldMismatchError, field_from_descriptor
from .linalg import InternalConsistencyError
from .suites import SUITES, SuiteFlagError, run_suite
from .tables import (
    TRIPARTITE_DIMS,
    ClassificationGapError,
    classify_full,
    representative,
    table_for,
    tripartite_shape,
)
from .tensors import Shape, random_invertible

try:  # hashlib loads OpenSSL, about 3 MB and 3 ms of start-up, for one digest
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; remap to the 0/1/2 contract
    def error(self, message):
        raise _UsageError(message)


# parsing leaves the parsers unchanged, so one tree serves every main() call
@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and each subcommand's parser by name."""
    parser = _Parser(
        prog="entinv",
        description="Exact kernel invariants and entanglement classes for "
        "two- and three-subsystem pure states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a tensor document")
    p.add_argument("path", help="tensor document path, or - for stdin")
    p.add_argument("--field", help="require the document to use this field")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("table", help="print a class table")
    p.add_argument("--family", choices=(*TRIPARTITE_DIMS, "bipartite"), required=True)
    p.add_argument("--d", type=int, help="third-factor dimension (tripartite families)")
    p.add_argument("--d1", type=int, help="first dimension (bipartite)")
    p.add_argument("--d2", type=int, help="second dimension (bipartite)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("representative", help="emit a class representative document")
    p.add_argument("--family", choices=(*TRIPARTITE_DIMS, "bipartite"), required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--d1", type=int)
    p.add_argument("--d2", type=int)
    p.add_argument("--label", required=True)
    p.add_argument("--generic-seed", type=int, default=None,
                   help="draw random invertible bases instead of the standard basis")
    p.add_argument("--field", default="rational")
    p.add_argument("--sparse", action="store_true", help="emit sparse entries")
    p.set_defaults(handler=_cmd_representative)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--d-max", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--field", default="rational")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("explain3", help="kernel walkthrough for a (2,2,2) document")
    p.add_argument("path", help="tensor document path, or - for stdin")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_explain3)

    return parser, sub.choices


_NOT_UTF8 = "document is not UTF-8 text"


def _read_input(path: str) -> tuple[str, str]:
    # in pieces: the character past the cap refuses the document as it is read
    source, pieces, left = "<stdin>" if path == "-" else path, [], MAX_DOCUMENT_BYTES + 1
    try:
        fh = sys.stdin if path == "-" else open(path, "r", encoding="utf-8")
        try:
            while left and (piece := fh.read(min(left, 2**16))):
                pieces.append(piece)
                left -= len(piece)
        finally:
            if path != "-":
                fh.close()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{source}: {_NOT_UTF8}") from exc
    if not left:
        raise DocumentError(f"{source}: document longer than the cap of "
                            f"{MAX_DOCUMENT_BYTES} characters")
    return "".join(pieces), source


def _shape_for(args) -> Shape:
    reads = ("d1", "d2") if args.family == "bipartite" else ("d",)
    for flag in ("d", "d1", "d2"):
        if flag not in reads and getattr(args, flag) is not None:
            raise _UsageError(f"family {args.family} does not take --{flag}")
    if args.family == "bipartite":
        if args.d1 is None or args.d2 is None:
            raise _UsageError("family bipartite needs --d1 and --d2")
        return Shape((args.d1, args.d2))
    if args.d is None:
        raise _UsageError(f"family {args.family} needs --d")
    if args.d < 2:
        raise _UsageError(f"family {args.family} needs --d >= 2, got {args.d}")
    return tripartite_shape(args.family, args.d)


def _cmd_classify(args) -> int:
    text, source = _read_input(args.path)
    try:
        digest = sha256(text.encode("utf-8")).hexdigest()
    except UnicodeEncodeError as exc:
        # stdin under a C or UTF-8 locale escapes a byte that is not UTF-8
        # as a lone surrogate, which only the encode finds
        raise DocumentError(f"{source}: {_NOT_UTF8}") from exc
    tensor = parse_document(text, source=source)
    if args.field is not None:
        wanted = field_from_descriptor(args.field)
        if wanted != tensor.field:
            raise DocumentError(
                f"{source}: document field {tensor.field.descriptor} does not match "
                f"--field {wanted.descriptor}"
            )
    report = {
        "command": "classify",
        "input": source,
        "input_sha256": digest,
        "field": tensor.field.descriptor,
        "dims": list(tensor.shape.dims),
    }
    try:
        label, sig = classify_full(tensor)
    except ClassificationGapError as exc:
        report["signature"] = exc.signature.as_dict()
        report["class"] = None
        report["gap"] = exc.payload()
        print(indented_json(report))
        print(f"classification gap: {exc}", file=sys.stderr)
        return 2
    report["signature"] = sig.as_dict()
    report["class"] = label
    if args.format == "json":
        print(indented_json(report))
    else:
        print(f"input: {source} (sha256 {digest[:12]})")
        print(f"field: {tensor.field.descriptor}")
        print(f"dims: {tensor.shape.dims}")
        print(f"signature: {sig}")
        print(f"class: {label}")
    return 0


def _cmd_table(args) -> int:
    shape = _shape_for(args)
    admit(shape, QQ)
    table = table_for(shape)
    rows = []
    for entry in table.entries:
        # a bipartite key is (k1,), so the zip stops after k1
        invariants = dict(zip(("k1", "k2", "k3", "k123"), entry.invariants_at(shape)))
        rows.append({"label": entry.label, "invariants": invariants,
                     "representative": entry.bracket()})
    if args.format == "json":
        print(indented_json({"family": table.family, "dims": list(shape.dims), "classes": rows}))
        return 0
    heads = ["label"] + list(rows[0]["invariants"]) + ["representative"]
    cells = [[r["label"], *map(str, r["invariants"].values()), r["representative"]] for r in rows]
    widths = [max(len(h), *(len(c[i]) for c in cells)) for i, h in enumerate(heads)]
    print(f"family {table.family}, dims {shape.dims}: {len(rows)} classes")
    print("  ".join(h.ljust(w) for h, w in zip(heads, widths)))
    for c in cells:
        print("  ".join(x.ljust(w) for x, w in zip(c, widths)))
    return 0


def _cmd_representative(args) -> int:
    shape = _shape_for(args)
    field = field_from_descriptor(args.field)
    admit(shape, field, bases=args.generic_seed is not None)
    bases = None
    if args.generic_seed is not None:
        bases = [
            random_invertible(d, 3, seed=args.generic_seed + 101 * axis, field=field)
            for axis, d in enumerate(shape.dims)
        ]
    tensor = representative(args.label, shape, bases=bases, field=field)
    sys.stdout.write(emit_document(tensor, sparse=args.sparse))
    return 0


def _cmd_verify(args) -> int:
    field = field_from_descriptor(args.field)
    report = run_suite(
        args.suite, d_max=args.d_max, samples=args.samples, seed=args.seed, field=field
    )
    if args.format == "json":
        print(indented_json(report.to_dict()))
    else:
        print(report.render_text())
    if report.passed:
        return 0
    return 2 if report.has_gap else 1


def _cmd_explain3(args) -> int:
    text, source = _read_input(args.path)
    tensor = parse_document(text, source=source)
    data = explain_three_qubit(tensor)
    if args.format == "json":
        print(indented_json(data))
    else:
        print(render_explain_text(data))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = build_parser()
    try:
        # the top-level parser reads only an empty, unknown or option-first
        # argv, for its usage error or help
        sub = commands.get(argv[0]) if argv else None
        args = sub.parse_args(argv[1:]) if sub else parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.handler(args)
    except (_UsageError, SuiteFlagError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, FieldMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def run():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull, so the flush at exit
        # finds nothing to write and prints no second traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout closed before the output was written", file=sys.stderr)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    run()
