import json
import sys
from fractions import Fraction

import pytest

from entinv import cli, invariants, linalg
from entinv.cli import build_parser, main
from entinv.documents import parse_document
from entinv.linalg import ExactMatrix
from entinv.suites import run_suite, suite_local_invariance
from entinv.tables import ClassTable, classify, table_for
from entinv.tensors import Shape, Tensor
from elements import GAP_DOC, padded_gap


GHZ_DOC = json.dumps(
    {"field": "rational", "dims": [2, 2, 2],
     "entries": ["1", "0", "0", "0", "0", "0", "0", "1"]}
)


def _main_peak(argv):
    """Exit code of main(argv) and the peak bytes traced while it ran."""
    import tracemalloc
    tracemalloc.start()
    try:
        return main(argv), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _drop_last_pivot(monkeypatch, where):
    """Drop the last pivot of every matrix of `rows` rows and `cols` columns
    for which `where(rows, cols)` holds, in the one elimination loop that
    every rank, over every field, calls: `eliminate` as `linalg` and
    `invariants` see it."""
    eliminate = linalg.eliminate

    def short(field, rows, cols, jordan=False):
        drop = where(len(rows), cols)
        pivots = eliminate(field, rows, cols, jordan)
        return pivots[:-1] if drop else pivots

    for module in (linalg, invariants):
        monkeypatch.setattr(module, "eliminate", short)


def _rank_short_on_tall(monkeypatch):
    """Make the rank of every tall matrix one short."""
    _drop_last_pivot(monkeypatch, lambda rows, cols: rows > cols)


def _k123_rank_short(monkeypatch):
    """Drop the last pivot of the k123 rank alone: the elimination of R,
    the one `invariants.eliminate` call that `triple_kernel_dim` makes."""
    eliminate = invariants.eliminate

    def short(field, rows, cols, jordan=False):
        pivots = eliminate(field, rows, cols, jordan)
        return pivots[:-1] if sys._getframe(1).f_code.co_name == "triple_kernel_dim" else pivots

    monkeypatch.setattr(invariants, "eliminate", short)


@pytest.fixture
def ghz_path(tmp_path):
    path = tmp_path / "ghz.json"
    path.write_text(GHZ_DOC)
    return str(path)


class TestClassify:
    def test_text_output(self, ghz_path, capsys):
        assert main(["classify", ghz_path]) == 0
        out = capsys.readouterr().out
        assert "class: C6" in out
        assert "signature: (0,0,0;2,2,2;0)" in out

    def test_json_output(self, ghz_path, capsys):
        assert main(["classify", ghz_path, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["class"] == "C6"
        assert data["signature"]["pairs"] == [2, 2, 2]
        assert len(data["input_sha256"]) == 64

    def test_zero_tensor(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(
            {"field": "rational", "dims": [2, 3, 4], "entries": ["0"] * 24}))
        assert main(["classify", str(path)]) == 0
        assert "class: C0" in capsys.readouterr().out

    def test_float_scalar_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"field": "rational", "dims": [2, 2], "entries": ["1", "0", "0", "1.5"]}))
        assert main(["classify", str(path)]) == 1
        assert "entries[3]" in capsys.readouterr().err

    def test_unsupported_shape(self, tmp_path, capsys):
        path = tmp_path / "n333.json"
        path.write_text(json.dumps(
            {"field": "rational", "dims": [3, 3, 3], "entries": ["0"] * 27}))
        assert main(["classify", str(path)]) == 1
        assert "(2,3,d)" in capsys.readouterr().err

    def test_field_mismatch_flag(self, ghz_path, capsys):
        assert main(["classify", ghz_path, "--field", "gf(7)"]) == 1
        assert "does not match" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["classify", "/nonexistent/state.json"]) == 1
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("stdin", [True, False], ids=["stdin", "path"])
    def test_document_not_utf8_names_its_source(self, stdin, tmp_path, monkeypatch, capsys):
        # byte 0xff fails to decode from a file; stdin escapes it as "\udcff",
        # which fails where the digest encodes the text
        import io
        path = tmp_path / "latin.json"
        path.write_bytes(b"\xff{}")
        monkeypatch.setattr("sys.stdin", io.StringIO("\udcff{}"))
        source = "<stdin>" if stdin else str(path)
        assert main(["classify", "-" if stdin else source]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {source}: document is not UTF-8 text\n")

    def test_stdin(self, monkeypatch, capsys):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(GHZ_DOC))
        assert main(["classify", "-"]) == 0
        assert "class: C6" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["classify", "explain3"])
    @pytest.mark.parametrize("stdin", [True, False], ids=["stdin", "path"])
    def test_document_past_the_length_cap_refused_unparsed(self, command, stdin, monkeypatch,
                                                           capsys):
        # GHZ_DOC padded with spaces to the cap reads as GHZ_DOC does; one
        # character more exits 1 with one line, before anything is parsed
        import io

        class Stream(io.StringIO):
            def close(self):  # keep how far the reader read
                self.read_to = self.tell()
                super().close()

        source = "<stdin>" if stdin else "ghz.json"
        monkeypatch.setattr(cli, "MAX_DOCUMENT_BYTES", len(GHZ_DOC) + 10)
        streams = []

        def run(text):
            streams.append(stream := Stream(text))
            monkeypatch.setattr("sys.stdin", stream)
            monkeypatch.setattr(cli, "open", lambda *args, **kwargs: stream, raising=False)
            code = main([command, "-" if stdin else source, "--format", "json"])
            return code, capsys.readouterr()

        code, at_cap = run(GHZ_DOC + " " * 10)
        assert code == 0 and at_cap.err == ""
        monkeypatch.setattr(cli, "MAX_DOCUMENT_BYTES", 10**9)
        assert run(GHZ_DOC + " " * 10) == (0, at_cap)
        monkeypatch.setattr(cli, "MAX_DOCUMENT_BYTES", len(GHZ_DOC) + 10)
        monkeypatch.setattr(cli, "parse_document", None)
        for pad in (11, 1000):
            code, past = run(GHZ_DOC + " " * pad)
            assert (code, past.out) == (1, "")
            assert past.err == (f"error: {source}: document longer than the cap of "
                                f"{len(GHZ_DOC) + 10} characters\n")
        # of a longer document, one character past the cap is read
        read_to = streams[-1].tell() if stdin else streams[-1].read_to
        assert read_to == len(GHZ_DOC) + 11

    def test_refusal_holds_the_text_read_once(self, tmp_path, monkeypatch, capsys):
        # a file four times the cap is refused as the character past the
        # cap is read, in pieces: what was read is held once, never joined
        cap = 2**20
        monkeypatch.setattr(cli, "MAX_DOCUMENT_BYTES", cap)
        path = tmp_path / "long.json"
        path.write_text(" " * (4 * cap))
        code, peak = _main_peak(["classify", str(path)])
        assert (code, capsys.readouterr().err) == (
            1, f"error: {path}: document longer than the cap of {cap} characters\n")
        assert peak < 1.5 * cap

    def test_gap_is_exit_2_with_the_state_in_the_report(self, monkeypatch, capsys):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(GAP_DOC)))
        assert main(["classify", "-"]) == 2
        captured = capsys.readouterr()
        data = json.loads(captured.out)
        signature = {"n": 3, "dims": [2, 2, 2], "singles": [0, 0, 0], "pairs": [2, 2, 2],
                     "triple": 2}
        assert data["class"] is None and data["signature"] == signature
        assert data["gap"] == {**GAP_DOC, "signature": signature}
        [line] = captured.err.splitlines()
        assert line.startswith("classification gap: signature (0,0,0;2,2,2;2) on shape (2, 2, 2)")

    def test_miss_check_ranks_the_concise_state(self, monkeypatch, capsys):
        # the gap padded with zero slices to (2,2,40): the miss check's k123
        # system has at most r^2 + d1^2 + d2^2 = 12 rows, not 40^2 + 8
        import io
        build, built = invariants.triple_constraint_matrix, []

        def recorded(v):
            built.append(build(v))
            return built[-1]

        monkeypatch.setattr(invariants, "triple_constraint_matrix", recorded)
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(padded_gap(40))))
        assert main(["classify", "-"]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("classification gap: signature (0,0,38;2,78,78;78) on shape")
        assert built and max(m.rows for m in built) <= 12

    def test_deeply_nested_json(self, monkeypatch, capsys):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("[" * 100_000))
        assert main(["classify", "-"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize("field,value,code", [
        ("rational", "1" + "0" * 4299, 0),
        ("rational", "1" + "0" * 4300, 1),
        ("gaussian-rational", "1/" + "3" * 4301 + "i", 1),
        ("gf(7)", "-" + "9" * 4301, 1),
    ])
    def test_scalar_integers_capped_at_4300_digits(self, field, value, code, monkeypatch,
                                                   capsys):
        import io
        doc = json.dumps({"field": field, "dims": [2, 2], "entries": [value, "0", "0", "1"]})
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        assert main(["classify", "-"]) == code
        if code:
            captured = capsys.readouterr()
            assert captured.out == ""
            err = captured.err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: <stdin>: entries[0]: ")

    # JSON that json.loads refuses with a ValueError other than a decode
    # error: an integer literal past 4300 digits in dims or a sparse index,
    # and a name given twice in the document or in a sparse entry
    @pytest.mark.parametrize("doc,message", [
        ('{"field": "rational", "dims": [2, 1%s], "entries": []}' % ("0" * 4999),
         "Exceeds the limit (4300 digits) for integer string conversion"),
        ('{"field": "rational", "dims": [2, 2], "entries": [{"index": [0, 1%s], "value": "1"}]}'
         % ("0" * 4999), "Exceeds the limit (4300 digits) for integer string conversion"),
        ('{"field": "rational", "dims": [2, 2], "entries": ["1", "0", "0", "1"], '
         '"field": "gf(7)"}', "duplicate key 'field'"),
        ('{"field": "rational", "dims": [2, 2], '
         '"entries": [{"index": [0, 0], "value": "1", "value": "2"}]}', "duplicate key 'value'"),
    ], ids=["dims-digits", "index-digits", "field-twice", "value-twice"])
    def test_json_refused_past_the_decoder_names_its_source(self, doc, message, monkeypatch,
                                                            capsys):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        assert main(["classify", "-"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: <stdin>: not valid JSON: {message}")

    def test_huge_dims_refused_before_allocation(self, monkeypatch, capsys):
        import io
        doc = json.dumps({"field": "rational", "dims": [2, 3, 10**9],
                          "entries": [{"index": [0, 0, 0], "value": "1"}]})
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, peak = _main_peak(["classify", "-"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: <stdin>: dims (2, 3, 1000000000) give 6000000000 coefficients, "
            "more than the cap of 1048576\n"
        )
        assert peak < 2**20

    def test_square_document_past_the_elimination_cap_refused(self, monkeypatch, capsys):
        import io
        doc = json.dumps({"field": "rational", "dims": [204, 204], "entries": []})
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, peak = _main_peak(["classify", "-"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: <stdin>: dims (204, 204) over rational need eliminating a 204x204 matrix: "
            "rows*cols*min(rows, cols) = 8489664, more than the cap of 8388608\n"
        )
        assert peak < 2**20

    # a rank fault is a bug in the program: one line, exit 1, no traceback.
    # [1,1,1]+[1,2,2] with tall ranks short, and GHZ with every rank short,
    # over each field, keep 1 of their 2 slices, and the other is left
    # nonzero below the slice pivot; [1,1,1] with tall ranks short loses
    # its one slice, where r = 0 would give C0's key, self-consistent
    @pytest.mark.parametrize("command,field,entries,fault,message", [
        ("classify", "rational", ["1", "0", "0", "1", "0", "0", "0", "0"], "tall",
         "slice elimination of rank 1 left a nonzero row"),
        ("classify", "rational", ["1", "0", "0", "0", "0", "0", "0", "1"], "all",
         "slice elimination of rank 1 left a nonzero row"),
        ("explain3", "rational", ["1", "0", "0", "0", "0", "0", "0", "1"], "all",
         "slice elimination of rank 1 left a nonzero row"),
        ("classify", "gf(101)", ["1", "0", "0", "0", "0", "0", "0", "1"], "all",
         "slice elimination of rank 1 left a nonzero row"),
        ("classify", "gaussian-rational", ["1", "0", "0", "0", "0", "0", "0", "1"], "all",
         "slice elimination of rank 1 left a nonzero row"),
        ("explain3", "rational", ["1", "0", "0", "1", "0", "0", "0", "0"], "tall",
         "slice elimination of rank 1 left a nonzero row"),
        ("classify", "rational", ["1", "0", "0", "0", "0", "0", "0", "0"], "tall",
         "slice elimination of rank 0 left a nonzero row"),
    ])
    def test_internal_error_is_one_line(self, command, field, entries, fault, message,
                                        monkeypatch, capsys):
        import io
        if fault == "tall":
            _rank_short_on_tall(monkeypatch)
        else:
            _drop_last_pivot(monkeypatch, lambda rows, cols: True)
        doc = json.dumps({"field": field, "dims": [2, 2, 2], "entries": entries})
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        assert main([command, "-"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"internal error: {message}\n")

    def test_k123_fault_alone_is_an_internal_error(self, monkeypatch, capsys):
        # the flattening ranks keep duality; the miss check recomputes k123
        import io
        _k123_rank_short(monkeypatch)
        doc = json.dumps({"field": "rational", "dims": [2, 2, 2], "entries": ["1"] + ["0"] * 7})
        for command in ("classify", "explain3"):
            monkeypatch.setattr("sys.stdin", io.StringIO(doc))
            assert main([command, "-"]) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (
                "", "internal error: signature gives k123 = 5, its recomputation 4\n")


class TestTable:
    def test_22d_at_2_has_seven_rows(self, capsys):
        assert main(["table", "--family", "22d", "--d", "2"]) == 0
        out = capsys.readouterr().out
        assert "7 classes" in out
        assert out.count("\nC") == 7
        assert "[1,1,1]+[2,2,2]" in out

    def test_23d_at_6_has_26_rows(self, capsys):
        assert main(["table", "--family", "23d", "--d", "6", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["classes"]) == 26

    def test_bipartite(self, capsys):
        assert main(["table", "--family", "bipartite", "--d1", "2", "--d2", "2"]) == 0
        out = capsys.readouterr().out
        for fragment in ("C0", "C1", "C2", "[1,1]+[2,2]"):
            assert fragment in out
        # a bipartite key is (k1,), so the json lists k1 only
        assert main(["table", "--family", "bipartite", "--d1", "2", "--d2", "3",
                     "--format", "json"]) == 0
        classes = json.loads(capsys.readouterr().out)["classes"]
        assert [c["invariants"] for c in classes] == [{"k1": 2}, {"k1": 1}, {"k1": 0}]

    # the document caps: a table of a shape no document may have is refused
    @pytest.mark.parametrize("flags,message", [
        (["--family", "bipartite", "--d1", "100000", "--d2", "100000"],
         "dims (100000, 100000) give 10000000000 coefficients, more than the cap of 1048576"),
        (["--family", "bipartite", "--d1", "204", "--d2", "204"],
         "dims (204, 204) over rational need eliminating a 204x204 matrix: "
         "rows*cols*min(rows, cols) = 8489664, more than the cap of 8388608"),
        (["--family", "23d", "--d", "174763"],
         "dims (2, 3, 174763) give 1048578 coefficients, more than the cap of 1048576"),
    ])
    def test_costly_shape_refused_before_allocation(self, flags, message, capsys):
        code, peak = _main_peak(["table", *flags])
        assert code == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
        assert peak < 2**20

    @pytest.mark.parametrize("flags,head", [
        (["--family", "bipartite", "--d1", "203", "--d2", "203"],
         "family bipartite, dims (203, 203): 204 classes\n"),
        (["--family", "23d", "--d", "174762"], "family 23d, dims (2, 3, 174762): 26 classes\n"),
    ])
    def test_largest_shapes_at_the_caps_printed(self, flags, head, capsys):
        assert main(["table", *flags]) == 0
        assert capsys.readouterr().out.startswith(head)

    def test_d_too_small(self, capsys):
        assert main(["table", "--family", "22d", "--d", "1"]) == 1
        assert "--d >= 2" in capsys.readouterr().err

    def test_missing_d(self, capsys):
        assert main(["table", "--family", "22d"]) == 1

    def test_bipartite_needs_both_dims(self, capsys):
        assert main(["table", "--family", "bipartite", "--d1", "2"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "usage error: family bipartite needs --d1 and --d2\n")

    @pytest.mark.parametrize("command", ["table", "representative"])
    @pytest.mark.parametrize("family,flags,unread", [
        ("22d", ["--d", "2", "--d1", "7"], "--d1"),
        ("23d", ["--d", "2", "--d2", "3"], "--d2"),
        ("bipartite", ["--d1", "2", "--d2", "2", "--d", "9"], "--d"),
    ])
    def test_flags_the_family_does_not_read_rejected(self, command, family, flags, unread,
                                                     capsys):
        args = [command, "--family", family, *flags]
        if command == "representative":
            args += ["--label", "C1"]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: family {family} does not take {unread}\n"


class TestRepresentative:
    def test_ghz_document(self, capsys):
        assert main(["representative", "--family", "22d", "--d", "2", "--label", "C6"]) == 0
        v = parse_document(capsys.readouterr().out)
        assert classify(v) == "C6"

    def test_discarded_label_exits_1(self, capsys):
        assert main(["representative", "--family", "22d", "--d", "3", "--label", "C9"]) == 1
        assert "discarded" in capsys.readouterr().err

    @pytest.mark.parametrize("dims,label,message", [
        (("1", "3"), "C2",
         "C2 is discarded at shape (1, 3): invariants (-1,) include negative value(s) [-1]"),
        (("3", "1"), "C2",
         "C2 is discarded at shape (3, 1): invariants (1, -1) include negative value(s) [-1]"),
        (("1", "3"), "C02", "unknown label 'C02' for family bipartite; labels run C0..C1"),
        (("1", "3"), "X1", "unknown label 'X1' for family bipartite; labels run C0..C1"),
    ])
    def test_bipartite_label_past_the_shape_is_discarded(self, dims, label, message, capsys):
        # every well-formed C<l> is a bipartite class; only a malformed label is unknown
        d1, d2 = dims
        args = ["representative", "--family", "bipartite", "--d1", d1, "--d2", d2,
                "--label", label]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_c16_on_233(self, capsys):
        assert main(["representative", "--family", "23d", "--d", "3", "--label", "C16"]) == 0
        v = parse_document(capsys.readouterr().out)
        assert sum(1 for c in v.coeffs if c) == 4
        assert classify(v) == "C16"

    def test_generic_seed_reclassifies(self, capsys):
        args = ["representative", "--family", "22d", "--d", "3", "--label", "C7",
                "--generic-seed", "5"]
        assert main(args) == 0
        v = parse_document(capsys.readouterr().out)
        assert classify(v) == "C7"

    def test_round_trip_every_label(self, capsys):
        # every emitted document classifies back to its own label, d <= 8
        for family, base in (("22d", 2), ("23d", 3)):
            for d in range(2, 9):
                for entry in table_for(Shape((2, base, d))).entries:
                    args = ["representative", "--family", family, "--d", str(d),
                            "--label", entry.label]
                    assert main(args) == 0
                    doc = capsys.readouterr().out
                    assert classify(parse_document(doc)) == entry.label

    @pytest.mark.parametrize("family,dims", [
        ("22d", ["--d", "2"]), ("23d", ["--d", "3"]), ("bipartite", ["--d1", "2", "--d2", "3"]),
    ])
    def test_sparse_zero_state_classifies(self, family, dims, monkeypatch, capsys):
        import io
        args = ["representative", "--family", family, *dims, "--label", "C0", "--sparse"]
        assert main(args) == 0
        doc = capsys.readouterr().out
        assert json.loads(doc)["entries"] == []
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        assert main(["classify", "-"]) == 0
        assert "class: C0" in capsys.readouterr().out

    @pytest.mark.parametrize("flags,message", [
        (["--family", "22d", "--d", "262145", "--sparse"],
         "dims (2, 2, 262145) give 1048580 coefficients, more than the cap of 1048576"),
        (["--family", "bipartite", "--d1", "64", "--d2", "2049", "--sparse"],
         "dims (64, 2049) over rational need eliminating a 64x2049 matrix: "
         "rows*cols*min(rows, cols) = 8392704, more than the cap of 8388608"),
        (["--family", "22d", "--d", "204", "--generic-seed", "1"],
         "dims (2, 2, 204) over rational need eliminating a 204x204 matrix: "
         "rows*cols*min(rows, cols) = 8489664, more than the cap of 8388608"),
        (["--family", "22d", "--d", "102", "--generic-seed", "1", "--field", "gaussian-rational"],
         "dims (2, 2, 102) over gaussian-rational need eliminating a 204x204 matrix: "
         "rows*cols*min(rows, cols) = 8489664, more than the cap of 8388608"),
    ])
    def test_costly_state_refused_before_allocation(self, flags, message, capsys):
        code, peak = _main_peak(["representative", *flags, "--label", "C1"])
        assert code == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
        assert peak < 2**20

    def test_long_thin_state_at_the_elimination_cap(self, monkeypatch, capsys):
        import io
        # 64 * 2048 * 64 is the cap itself; the short side keeps the work low
        args = ["representative", "--family", "bipartite", "--d1", "64", "--d2", "2048",
                "--label", "C3", "--sparse"]
        assert main(args) == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
        assert main(["classify", "-"]) == 0
        assert "class: C3" in capsys.readouterr().out

    def test_gf_field_emission(self, capsys):
        args = ["representative", "--family", "22d", "--d", "2", "--label", "C6",
                "--field", "gf(5)", "--sparse"]
        assert main(args) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["field"] == "gf(5)"
        assert len(data["entries"]) == 2


class TestVerify:
    def test_tables_suite_small(self, capsys):
        assert main(["verify", "--suite", "tables", "--d-max", "3"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_exhaustive_222(self, capsys):
        assert main(["verify", "--suite", "exhaustive-222", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is True
        assert data["data"]["histogram"]["C6"] == 134

    def test_survey_small(self, capsys):
        assert main(["verify", "--suite", "survey", "--samples", "5", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "zero gaps" in out

    @pytest.mark.parametrize("flags,message", [
        (["--suite", "duality", "--samples", "0"], "--samples must be >= 1, got 0"),
        (["--suite", "survey", "--samples", "-3"], "--samples must be >= 1, got -3"),
        (["--suite", "tables", "--d-max", "1"], "--d-max must be >= 2, got 1"),
    ])
    def test_out_of_range_flags_rejected(self, flags, message, capsys):
        assert main(["verify", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: {message}\n"

    @pytest.mark.parametrize("flags,message", [
        (["--suite", "tables", "--field", "gf(7)"],
         "suite tables runs over the rationals only, got --field gf(7)"),
        (["--suite", "local-invariance", "--field", "gaussian-rational"],
         "suite local-invariance runs over the rationals only, got --field gaussian-rational"),
        (["--suite", "tables", "--samples", "5"], "suite tables does not take --samples"),
        (["--suite", "local-invariance", "--samples", "5"],
         "suite local-invariance does not take --samples"),
        (["--suite", "exhaustive-222", "--samples", "5"],
         "suite exhaustive-222 does not take --samples"),
        (["--suite", "tables", "--seed", "5"], "suite tables does not take --seed"),
        (["--suite", "exhaustive-222", "--seed", "5"],
         "suite exhaustive-222 does not take --seed"),
        (["--suite", "duality", "--d-max", "3"], "suite duality does not take --d-max"),
        (["--suite", "exhaustive-222", "--d-max", "3"],
         "suite exhaustive-222 does not take --d-max"),
        (["--suite", "survey", "--samples", "2", "--d-max", "3"],
         "suite survey does not take --d-max"),
    ])
    def test_flags_the_suite_does_not_read_rejected(self, flags, message, capsys):
        assert main(["verify", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: {message}\n"

    def test_duality_rank_fault_is_a_fail_line(self, monkeypatch, capsys):
        # a rank one short on tall matrices breaks every complementary pair
        # with a tall side; the suite must report it, not raise
        rank = ExactMatrix.rank
        monkeypatch.setattr(
            ExactMatrix, "rank", lambda m: rank(m) - (m.rows > m.cols)
        )
        assert main(["verify", "--suite", "duality", "--samples", "2"]) == 1
        captured = capsys.readouterr()
        assert "[PASS] rank duality on (2, 2)" in captured.out
        assert "[FAIL] rank duality on (3, 4) -- sample 0: rank duality violated" in captured.out
        assert "result: 1/5 checks passed" in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize("flags", [
        ["--suite", "survey", "--samples", "1"],
        ["--suite", "local-invariance", "--d-max", "2"],
        ["--suite", "exhaustive-222"],
        ["--suite", "tables", "--d-max", "2"],
    ])
    def test_rank_fault_stops_a_suite_with_a_fail_line(self, flags, monkeypatch, capsys):
        # the fault shows as a kernel dim out of range, or as a signature
        # outside the tables whose ranks break duality; either way the
        # report carries it as a failed check, not as a gap
        _rank_short_on_tall(monkeypatch)
        assert main(["verify", *flags]) == 1
        captured = capsys.readouterr()
        assert "[FAIL] " in captured.out
        assert captured.err == ""

    def test_k123_fault_alone_stops_a_suite_with_a_fail_line(self, monkeypatch, capsys):
        _k123_rank_short(monkeypatch)
        assert main(["verify", "--suite", "exhaustive-222"]) == 1
        captured = capsys.readouterr()
        assert ("[FAIL] suite exhaustive-222 ran to the end -- "
                "signature gives k123 = 5, its recomputation 4") in captured.out
        assert captured.err == ""

    def test_binary_states_over_gf2_are_real_gaps(self, capsys):
        # each of them passes the miss check: the slow route gives the same signature
        assert main(["verify", "--suite", "exhaustive-222", "--field", "gf(2)"]) == 2
        captured = capsys.readouterr()
        assert "[FAIL] zero classification gaps over 256 binary states -- 54 gaps" in captured.out
        assert captured.err == ""

    def test_gap_stops_the_tables_suite_with_exit_2(self, monkeypatch, capsys):
        monkeypatch.setattr(ClassTable, "lookup", lambda table, key: None)
        assert main(["verify", "--suite", "tables", "--d-max", "2", "--format", "json"]) == 2
        captured = capsys.readouterr()
        data = json.loads(captured.out)
        assert data["passed"] is False
        [check] = data["checks"]
        assert check["gap"] is True
        assert "matches no class entry" in check["detail"]
        assert captured.err == ""

    def test_unknown_suite_rejected(self, capsys):
        assert main(["verify", "--suite", "everything"]) == 1
        # the parser lists the suites, so only a library call reaches run_suite's own check
        with pytest.raises(ValueError, match="^unknown suite 'everything'; choose from tables, "):
            run_suite("everything")

    def test_local_invariance_caps_d_max_itself(self):
        assert suite_local_invariance(draws=0, d_max=8).title == (
            "local invariance (0 draws per class, d up to 5)"
        )

    @pytest.mark.parametrize("only,detail", [
        (None, "(2, 2, 2) C1 scaled by -3/7"),
        (Fraction(-7, 3), "random tensor 0 on (2, 2, 2)"),
    ])
    def test_local_invariance_names_the_first_scaling_that_moves(self, only, detail,
                                                                 monkeypatch):
        # a scaling to the zero tensor moves every nonzero state's signature;
        # with only -7/3 broken, the class representatives all pass
        scale = Tensor.scale

        def broken(v, c):
            if only is None or c == only:
                return Tensor.of_image(v.field, v.shape, [0] * len(v.image))
            return scale(v, c)

        monkeypatch.setattr(Tensor, "scale", broken)
        report = suite_local_invariance(draws=1, d_max=2)
        assert [(c.name, c.detail) for c in report.checks if not c.passed] == [
            ("nonzero scaling fixes every signature", detail)]


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_option(self, capsys):
        assert main(["classify", "--wat", "x"]) == 1

    def test_no_command(self, capsys):
        assert main([]) == 1

    @pytest.mark.parametrize("argv", [
        [], ["frobnicate"], ["-h"], ["classify", "-h"],
        ["classify", "GHZ", "--format", "json"], ["classify", "GHZ", "--wat"],
        ["classify", "GHZ", "--format", "xml"], ["classify"],
        ["table", "--family", "22d", "--d", "3", "--format", "json"],
        ["table", "--family", "22d", "--d", "3", "--wat"],
        ["table", "--family", "99d", "--d", "3"], ["table", "--d", "3"],
        ["representative", "--family", "22d", "--d", "2", "--label", "C6"],
        ["representative", "--family", "22d", "--d", "2", "--label", "C6", "--wat"],
        ["representative", "--family", "22d", "--d", "x", "--label", "C6"],
        ["representative", "--family", "22d", "--d", "2"],
        ["verify", "--suite", "tables", "--d-max", "2", "--format", "json"],
        ["verify", "--suite", "tables", "--wat"], ["verify", "--suite", "nope"], ["verify"],
        ["explain3", "GHZ", "--format", "json"], ["explain3", "GHZ", "--wat"],
        ["explain3", "GHZ", "--format", "xml"], ["explain3"],
    ])
    def test_subcommand_parser_reads_argv_as_the_top_level_route_does(
            self, argv, ghz_path, monkeypatch, capsys):
        # main hands argv to the subcommand's own parser; with no subcommand
        # known to main, every argv goes through the top-level parser
        argv = [ghz_path if a == "GHZ" else a for a in argv]

        def run():
            try:
                code = main(argv)
            except SystemExit as exc:  # -h prints the help and exits 0
                code = f"SystemExit({exc.code})"
            return code, capsys.readouterr()

        parser, commands = build_parser()
        top, calls = parser.parse_args, []
        monkeypatch.setattr(parser, "parse_args", lambda args: calls.append(args) or top(args))
        direct = run()
        assert bool(calls) == (not argv or argv[0] not in commands)
        monkeypatch.setattr(cli, "build_parser", lambda: (parser, {}))
        assert run() == direct
        if "-h" in argv:
            assert direct[0] == "SystemExit(0)" and direct[1].out.startswith("usage: entinv")

    def test_one_parser_serves_calls_in_sequence(self, ghz_path, capsys):
        # the parser is built once per process; each call must still read
        # exactly as it does when it is the process's first
        calls = [
            ["classify", "--wat", "x"],
            ["classify", ghz_path, "--format", "json"],
            ["table", "--family", "22d", "--d", "3"],
        ]
        alone = []
        for argv in calls:
            build_parser.cache_clear()
            code = main(argv)
            alone.append((code, capsys.readouterr()))
        in_sequence = []
        for argv in calls:
            code = main(argv)
            in_sequence.append((code, capsys.readouterr()))
        assert [code for code, _ in alone] == [1, 0, 0]
        assert in_sequence == alone


class TestDeterminism:
    def test_verify_reports_identical_across_runs(self, capsys):
        main(["verify", "--suite", "survey", "--samples", "3", "--seed", "11",
              "--format", "json"])
        first = capsys.readouterr().out
        main(["verify", "--suite", "survey", "--samples", "3", "--seed", "11",
              "--format", "json"])
        second = capsys.readouterr().out
        assert first == second

    def test_representative_deterministic(self, capsys):
        args = ["representative", "--family", "23d", "--d", "4", "--label", "C20",
                "--generic-seed", "9"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first
