"""SQL dump scanner and article reader tests, including the round-trip oracle."""

import gzip
import io
import json
import os
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlpack import dump_ingest
from xlpack.alignment import ArticleStore, ArticleTally, scan_articles
from xlpack.dump_ingest import (
    LangLink,
    PageRecord,
    ParseTally,
    TruncatedDumpError,
    iter_insert_tuples,
    parse_langlinks_dump,
    parse_article_line,
    parse_pages_dump,
)
from xlpack.synth import sql_quote, write_langlinks_dump, write_pages_dump, write_sql_dump

from .oracles import reference_unescape_sql


def _stream(text: str) -> io.BytesIO:
    return io.BytesIO(text.encode("utf-8"))


class TestLanglinks:
    def test_basic_statement_with_filter(self):
        data = "INSERT INTO `langlinks` VALUES (12,'en','Free_software'),(25,'en','Autism');\n"
        links = list(parse_langlinks_dump(_stream(data), "en"))
        assert links == [
            LangLink(12, "en", "Free software"),
            LangLink(25, "en", "Autism"),
        ]

    def test_escaped_quote_matches_reference_unescaper(self):
        raw_inner = "O\\'Brien"
        data = f"INSERT INTO `langlinks` VALUES (7,'en','{raw_inner}');\n"
        (link,) = parse_langlinks_dump(_stream(data))
        assert link.target_title == reference_unescape_sql(raw_inner) == "O'Brien"

    def test_filter_excludes_other_languages(self):
        data = "INSERT INTO `langlinks` VALUES (9,'fr','Chat');\n"
        assert list(parse_langlinks_dump(_stream(data), "en")) == []

    def test_multiple_statements_and_preamble(self):
        data = (
            "-- MySQL dump\n"
            "DROP TABLE IF EXISTS `langlinks`;\n"
            "CREATE TABLE `langlinks` (\n  `ll_from` int(8) NOT NULL\n);\n"
            "INSERT INTO `langlinks` VALUES (1,'en','A');\n"
            "INSERT INTO `langlinks` VALUES (2,'en','B');\n"
        )
        links = list(parse_langlinks_dump(_stream(data)))
        assert [(l.from_page_id, l.target_title) for l in links] == [(1, "A"), (2, "B")]

    def test_malformed_tuple_is_skipped_and_tallied(self):
        data = "INSERT INTO `langlinks` VALUES (1,'en','A'),(nope,'en','B'),(3,'en','C');\n"
        tally = ParseTally()
        links = list(parse_langlinks_dump(_stream(data), tally=tally))
        assert [l.from_page_id for l in links] == [1, 3]
        assert tally.malformed == 1

    def test_wrong_arity_is_skipped(self):
        data = "INSERT INTO `langlinks` VALUES (1,'en'),(3,'en','C');\n"
        tally = ParseTally()
        links = list(parse_langlinks_dump(_stream(data), tally=tally))
        assert [l.from_page_id for l in links] == [3]
        assert tally.malformed == 1

    def test_truncated_file_yields_complete_tuples_then_raises(self):
        data = "INSERT INTO `langlinks` VALUES (1,'en','A'),(2,'en','Bro"
        tally = ParseTally()
        stream = parse_langlinks_dump(_stream(data), tally=tally)
        first = next(stream)
        assert first.from_page_id == 1
        with pytest.raises(TruncatedDumpError):
            list(stream)

    @pytest.mark.parametrize("data, where", [
        ("INSERT INTO `langlinks` VAL", "in its header"),
        ("INSERT INTO `langlinks` VALUES (1,'en','A'),", "between tuples"),
        ("INSERT INTO `langlinks` VALUES (1,'en','Bro", "inside a field"),
        ("INSERT INTO `langlinks` VALUES (1,'en',", "inside a field"),
    ], ids=["header", "between_tuples", "in_string", "before_field"])
    def test_truncation_names_where_input_ended(self, data, where):
        with pytest.raises(TruncatedDumpError, match=f"INSERT statement, {where}$"):
            list(iter_insert_tuples(_stream(data)))

    @pytest.mark.parametrize("sep", ["\n", " \n"], ids=["newline", "space_newline"])
    def test_resync_keeps_the_next_statement(self, sep, monkeypatch):
        # A newline right after a string breaks the tuple and also anchors the
        # next INSERT, so only the broken statement is dropped.
        data = ("INSERT INTO t VALUES (1,'a'" + sep + "INSERT INTO t VALUES (2,'b');\n"
                "INSERT INTO t VALUES (3,'c');\n")
        for chunk in (1, 7, len(data)):
            monkeypatch.setattr(dump_ingest, "_CHUNK_CHARS", chunk)
            tally = ParseTally()
            assert list(iter_insert_tuples(_stream(data), tally)) == [("2", "b"), ("3", "c")]
            assert tally == ParseTally(tuples_scanned=2, resyncs=1), chunk

    def test_gzip_transparent(self, tmp_path):
        path = tmp_path / "ll.sql.gz"
        with gzip.open(path, "wt", encoding="utf-8") as f:
            f.write("INSERT INTO `langlinks` VALUES (5,'en','Zeta');\n")
        (link,) = parse_langlinks_dump(path)
        assert link == LangLink(5, "en", "Zeta")

    def test_lowercases_language(self):
        data = "INSERT INTO `langlinks` VALUES (5,'EN','Zeta');\n"
        (link,) = parse_langlinks_dump(_stream(data), "en")
        assert link.target_lang == "en"


class TestPages:
    def test_modern_schema_defaults(self):
        data = (
            "INSERT INTO `page` VALUES "
            "(100,0,'Cat',0,0,0.5,'t',NULL,1,10,'wikitext',NULL),"
            "(101,14,'Category:Cats',0,0,0.5,'t',NULL,1,10,'wikitext',NULL),"
            "(102,0,'Feline',1,0,0.5,'t',NULL,1,10,'wikitext',NULL);\n"
        )
        pages = list(parse_pages_dump(_stream(data)))
        assert pages[0].page_id == 100 and pages[0].title == "Cat"
        assert not pages[0].is_redirect
        assert pages[1].namespace == 14  # passed through; alignment filters
        assert pages[2].is_redirect

    def test_short_tuple_tallied(self):
        data = "INSERT INTO `page` VALUES (7,0),(8,0,'Dog',0);\n"
        tally = ParseTally()
        assert [p.page_id for p in parse_pages_dump(_stream(data), tally=tally)] == [8]
        assert tally.malformed == 1


# Strategy for titles: anything printable minus underscores (MediaWiki encodes
# spaces as underscores, so round-tripping a literal underscore is undefined).
_title_text = st.text(
    alphabet=st.characters(
        codec="utf-8", exclude_characters="_", exclude_categories=("Cs",)
    ),
    min_size=0,
    max_size=40,
)

_lang_text = st.text(alphabet="abcdefghij", min_size=1, max_size=3)


@pytest.mark.parametrize("parse", [parse_pages_dump, parse_langlinks_dump])
def test_dump_of_malformed_tuples_only_raises_at_its_end(tmp_path, parse):
    path = tmp_path / "dump.sql"
    write_sql_dump(path, "t", [(7, 0), ("x", "en", "A", "")])
    tally = ParseTally()
    records = parse(path, tally=tally)
    with pytest.raises(ValueError) as err:
        next(records)
    assert str(err.value).startswith(f"{path}: all 2 tuples scanned are malformed")
    assert tally.tuples_scanned == tally.malformed == 2
    # One readable tuple is enough.
    write_sql_dump(path, "t", [(7, 0), (8, 0, "A", 0)] if parse is parse_pages_dump
                   else [(7, 0), (8, "en", "A")])
    assert len(list(parse(path))) == 1


class TestRoundTrip:
    @given(
        rows=st.lists(
            st.tuples(st.integers(0, 2**31 - 1), _lang_text, _title_text),
            min_size=0,
            max_size=50,
        )
    )
    @settings(max_examples=75)
    def test_langlinks_round_trip(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("rt") / "ll.sql"
        write_langlinks_dump(path, rows)
        parsed = [(l.from_page_id, l.target_lang, l.target_title) for l in
                  parse_langlinks_dump(path)]
        assert parsed == [(pid, lang, title) for pid, lang, title in rows]

    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 2**31 - 1),
                st.integers(0, 15),
                _title_text,
                st.booleans(),
            ),
            min_size=0,
            max_size=50,
        )
    )
    @settings(max_examples=75)
    def test_pages_round_trip(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("rt") / "page.sql"
        write_pages_dump(path, rows)
        parsed = [(p.page_id, p.namespace, p.title, p.is_redirect) for p in
                  parse_pages_dump(path)]
        assert parsed == list(rows)

    def test_adversarial_titles(self, tmp_path):
        rows = [
            (1, "en", "O'Brien"),
            (2, "en", 'He said "hi"'),
            (3, "en", "back\\slash"),
            (4, "en", "tab\there"),
            (5, "en", "new\nline"),
            (6, "en", "percent\\%kept"),
            (7, "en", ""),
            (8, "en", "),(fake),("),
            (9, "en", "INSERT INTO `x` VALUES (1)"),
        ]
        path = tmp_path / "ll.sql"
        write_langlinks_dump(path, rows)
        parsed = [(l.from_page_id, l.target_lang, l.target_title) for l in
                  parse_langlinks_dump(path)]
        assert parsed == rows

    def test_determinism(self, tmp_path):
        rows = [(k, "en", f"Title {k}'s \\ page") for k in range(500)]
        path = tmp_path / "ll.sql"
        write_langlinks_dump(path, rows)
        first = list(parse_langlinks_dump(path))
        second = list(parse_langlinks_dump(path))
        assert first == second


# Dumps mixing what the whole-tuple fast path takes (page and langlinks rows)
# with what it must leave to the per-field path: every escape form, NULL and
# negative numbers, spaces around fields, short and long tuples, and junk that
# forces a resync, also as free-form text right after VALUES.
_sql_piece = st.sampled_from(
    ["a", "Z", " ", "_", "(", ")", ",", ";", "\n", "\u00e9",
     "\\'", "''", "\\\\", "\\\n", "\\n", "\\0", "\\%", "\\q"]
)
_sql_string = st.lists(_sql_piece, max_size=6).map(lambda ps: "'" + "".join(ps) + "'")
_sql_number = st.integers(0, 10**6).map(str)
_sql_field = st.tuples(
    st.sampled_from(["", "", "", " "]),
    st.one_of(_sql_number, st.integers(-9, -1).map(str), st.just("NULL"), _sql_string,
              st.just("")),
    st.sampled_from(["", "", "", " "]),
).map("".join)
_sql_tuple = st.one_of(
    st.tuples(_sql_number, _sql_number, _sql_string, _sql_number,
              st.lists(st.one_of(_sql_number, _sql_string, st.just("NULL")), max_size=5)
              ).map(lambda r: "(" + ",".join([*r[:4], *r[4]]) + ")"),
    st.tuples(_sql_number, _sql_string, _sql_string).map(lambda r: "(" + ",".join(r) + ")"),
    st.lists(_sql_field, min_size=1, max_size=6).map(lambda fs: "(" + ",".join(fs) + ")"),
    st.sampled_from(["x", ")", "(1,'a'b)", "('", "(1,2"]),
)
_sql_free_text = st.text(alphabet="'\\(),; \nNUL0123456789\t-", max_size=12)
_sql_dump = st.lists(
    st.tuples(_sql_free_text, st.lists(_sql_tuple, min_size=1, max_size=6),
              st.sampled_from([",", ",\n", ", "])),
    max_size=4,
).map(lambda stmts: "-- dump\n" + "".join(
    "INSERT INTO `t` VALUES " + free + sep.join(tuples) + ";\n"
    for free, tuples, sep in stmts))


def _parse_all(parse, text):
    """Records, tally and the type of error the scan ended with: a truncated
    dump, or one of malformed tuples only (None when it raised none)."""
    tally = ParseTally()
    records = []
    try:
        for record in parse(_stream(text), tally=tally):
            records.append(record)
    except ValueError as e:
        return records, tally, type(e)
    return records, tally, None


class TestProjectedFastPath:
    @given(dump=_sql_dump, cut=st.integers(0, 40),
           chunk=st.one_of(st.integers(1, 12), st.just(1 << 18)))
    @settings(max_examples=300)
    def test_matches_per_field_scanner(self, dump, cut, chunk):
        text = dump[: max(len(dump) - cut, 0)]
        for parse, pattern in ((parse_pages_dump, "_PAGE_TUPLE"),
                               (parse_langlinks_dump, "_LANGLINK_TUPLE")):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dump_ingest, pattern, None)
                expected = _parse_all(parse, text)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dump_ingest, "_CHUNK_CHARS", chunk)
                assert _parse_all(parse, text) == expected

    def test_unquoted_value_cut_by_chunk_end(self, monkeypatch):
        # The part after the cut continues the value: its space or quote does
        # not start a new field.
        data = "INSERT INTO `t` VALUES (1 2,ab'c,x);\n"
        for chunk in range(1, len(data) + 1):
            monkeypatch.setattr(dump_ingest, "_CHUNK_CHARS", chunk)
            assert list(iter_insert_tuples(_stream(data))) == [("1 2", "ab'c", "x")], chunk

    def test_projection_yields_only_read_columns(self):
        data = (
            "INSERT INTO `page` VALUES (1,0,'O\\'Brien''s',0,0,0.5,'t',NULL),"
            "(2,0,NULL,0,0,0.5,'t',NULL),(3, 0,'C',1);\n"
        )
        tally = ParseTally()
        rows = list(iter_insert_tuples(_stream(data), tally, dump_ingest._PAGE_TUPLE))
        assert rows == [
            ("1", "0", "O'Brien's", "0"),
            ("2", "0", None, "0", "0", "0.5", "t", None),  # NULL title: every field
            ("3", "0", "C", "1"),  # a space: per-field path
        ]
        assert tally == ParseTally(tuples_scanned=3)
        assert list(parse_pages_dump(_stream(data))) == [
            PageRecord(1, 0, "O'Brien's", False), PageRecord(3, 0, "C", True)
        ]


# (id, dump bytes, _CHUNK_CHARS, peak bound). The small scale keeps the real
# scale's 4:1 dump:bound and 64:1 bound:chunk ratios (64 MiB, 16 MiB, 256 KiB)
# at an eighth of the size, so tier-1 runs it in seconds under tracemalloc.
_SMALL_STREAM = ("8MiB", 8 << 20, 32 << 10, 2 << 20)
_BIG_STREAM = ("1GiB", 1 << 30, dump_ingest._CHUNK_CHARS, 16 << 20)


class TestStreamingMemory:
    def _dump_of_size(self, path, target_bytes):
        title = "Some Reasonably Long Article Title With Words " * 3
        rows = [(k, "en", f"{title}{k}") for k in range(2000)]
        written = 0
        with open(path, "w", encoding="utf-8") as f:
            while written < target_bytes:
                tuples = ",".join(
                    f"({pid},'en','{t.replace(' ', '_')}')" for pid, _, t in rows
                )
                stmt = f"INSERT INTO `langlinks` VALUES {tuples};\n"
                f.write(stmt)
                written += len(stmt)
        return written

    @pytest.mark.parametrize(
        "scale",
        [_SMALL_STREAM] + ([_BIG_STREAM] if os.environ.get("XLPACK_BIG_STREAM_TEST") else []),
        ids=lambda scale: scale[0],
    )
    def test_peak_memory_bounded(self, tmp_path, monkeypatch, scale):
        self._assert_streams(tmp_path, monkeypatch, scale, iter_insert_tuples)

    def test_parser_peak_memory_bounded(self, tmp_path, monkeypatch):
        # The projected fast path also holds no more than one chunk.
        self._assert_streams(tmp_path, monkeypatch, _SMALL_STREAM, parse_langlinks_dump)

    def _assert_streams(self, tmp_path, monkeypatch, scale, reader):
        _, target_bytes, chunk_chars, bound = scale
        monkeypatch.setattr(dump_ingest, "_CHUNK_CHARS", chunk_chars)
        path = tmp_path / "big.sql"
        self._dump_of_size(path, target_bytes)
        tracemalloc.start()
        count = 0
        for _ in reader(path):
            count += 1
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert count >= 2000
        # Fixed-size buffer: peak stays far below the dump size.
        assert peak < bound

    def test_value_spanning_chunks(self, tmp_path):
        # A single title larger than the scanner's chunk size.
        big = "word " * 120_000  # ~600 KB > the 256K chunk
        path = tmp_path / "span.sql"
        write_langlinks_dump(path, [(1, "en", big.strip())])
        (link,) = parse_langlinks_dump(path)
        assert link.target_title == big.strip()

    def test_long_values_in_one_chunk_scan_in_linear_time(self, tmp_path, monkeypatch):
        # The whole-tuple pattern sees each 700 KB value at once: the first
        # tuple matches, the second misses only at its last character (a space
        # before `)`) and so backtracks over its whole value.
        monkeypatch.setattr(dump_ingest, "_CHUNK_CHARS", 1 << 22)
        body = "O\\'Brien''s \\\\ page " * 35_000
        title = "O'Brien's \\ page " * 35_000
        data = f"INSERT INTO `langlinks` VALUES (1,'en','{body}'),(2,'en','{body}' );\n"
        tally = ParseTally()
        start = time.perf_counter()
        links = list(parse_langlinks_dump(_stream(data), tally=tally))
        elapsed = time.perf_counter() - start
        assert [(l.from_page_id, l.target_title) for l in links] == [(1, title)]
        assert (tally.tuples_scanned, tally.resyncs) == (1, 1)
        # Linear work takes a fraction of a second; quadratic would take hours.
        assert elapsed < 10

    def test_value_spanning_many_chunks_scans_in_linear_time(self, monkeypatch):
        # A 4 MB value spans 256 chunks of 16 KiB. The scanner carries the cut
        # field whole, and reads at least as much as it carries, so it rescans
        # the field a few times, not once per chunk.
        monkeypatch.setattr(dump_ingest, "_CHUNK_CHARS", 1 << 14)
        body = "O\\'Brien''s \\\\ page " * 200_000
        title = "O'Brien's \\ page " * 200_000
        data = f"INSERT INTO `langlinks` VALUES (1,'en','{body}'),(2,'en','x');\n"
        tally = ParseTally()
        start = time.perf_counter()
        rows = list(iter_insert_tuples(_stream(data), tally, dump_ingest._LANGLINK_TUPLE))
        elapsed = time.perf_counter() - start
        assert rows == [("1", "en", title), ("2", "en", "x")]
        assert tally == ParseTally(tuples_scanned=2)
        assert elapsed < 10


class TestExtractedArticles:
    def test_basic_record(self, tmp_path):
        f = tmp_path / "a.jsonl"
        f.write_text('{"id":"5","title":"Cat","text":"a b\\n\\nc"}\n', encoding="utf-8")
        (art,) = scan_articles(f, "en")
        assert (art.page_id, art.title, art.text, art.lang) == (5, "Cat", "a b\n\nc", "en")
        with ArticleStore(f, "en") as store:
            assert store.get(5) == art
            assert store.get(6) is None

    def test_empty_file(self, tmp_path):
        f = tmp_path / "a.jsonl"
        f.write_text("", encoding="utf-8")
        assert list(scan_articles(f, "en")) == []
        with ArticleStore(f, "en") as store:
            assert store.get(0) is None

    def test_directory_order_is_lexicographic(self, tmp_path):
        (tmp_path / "b.jsonl").write_text(
            '{"id":"2","title":"B","text":"b"}\n', encoding="utf-8"
        )
        (tmp_path / "a.jsonl").write_text(
            '{"id":"1","title":"A","text":"a"}\n', encoding="utf-8"
        )
        arts = list(scan_articles(tmp_path, "en"))
        assert [a.page_id for a in arts] == [1, 2]

    def test_bad_lines_tallied(self, tmp_path):
        f = tmp_path / "a.jsonl"
        f.write_text(
            "not json\n"
            '{"id":"1","title":"A"}\n'  # missing text
            "\n"  # blank: neither a record nor counted
            '{"id":"x","title":"A","text":"t"}\n'  # non-integer id
            '{"id":"2","title":"B","text":""}\n',  # empty text still indexed
            encoding="utf-8",
        )
        tally = ArticleTally()
        assert [a.page_id for a in scan_articles(f, "en", tally)] == [2]
        assert tally.malformed_articles == 3
        assert tally.duplicate_articles == 0
        store_tally = ArticleTally()
        with ArticleStore(f, "en", store_tally) as store:
            assert store.get(2).text == ""
        assert store_tally == tally

    @pytest.mark.parametrize("line", [
        b'["5", "T", "x"]',
        b'{"id": "5", "title": 5, "text": "x"}',
        b'{"id": "5", "title": "T", "text": null}',
        b'{"id": 1e999, "title": "T", "text": "x"}',
        b'{"id": "5", "title": "\xff", "text": "x"}',
        b'{"id": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
        b'{"id": true, "title": "T", "text": "x"}',
        b'{"id": 12.9, "title": "T", "text": "x"}',
        b'{"id": 12.0, "title": "T", "text": "x"}',
        b'{"id": -5, "title": "T", "text": "x"}',
        b'{"id": "1_000", "title": "T", "text": "x"}',
        b'{"id": " 12 ", "title": "T", "text": "x"}',
        '{"id": "\u0661\u0662", "title": "T", "text": "x"}'.encode(),
        b'{"id": "+7", "title": "T", "text": "x"}',
        b'{"id": "-5", "title": "T", "text": "x"}',
        b'{"id": "", "title": "T", "text": "x"}',
    ], ids=["not_object", "title_not_str", "text_not_str", "id_overflows", "invalid_utf8",
            "nested_past_parser", "id_bool", "id_fraction", "id_float", "id_negative",
            "id_underscores", "id_spaces", "id_arabic_digits", "id_plus", "id_negative_str",
            "id_empty"])
    def test_line_outside_record_rule(self, line):
        assert parse_article_line(line, "en") is None

    @pytest.mark.parametrize("page_id, want", [
        (b"0", 0), (b"12", 12), (b'"12"', 12), (b'"007"', 7), (b"10000000000000000000", 10**19),
    ])
    def test_page_id_rule(self, page_id, want):
        line = b'{"id": ' + page_id + b', "title": "T", "text": "x"}'
        assert parse_article_line(line, "en").page_id == want

    def test_empty_text_yielded(self, tmp_path):
        f = tmp_path / "a.jsonl"
        f.write_text('{"id":"9","title":"T","text":""}\n', encoding="utf-8")
        (art,) = scan_articles(f, "xx")
        assert art.text == ""

    def test_first_well_formed_record_of_each_id(self, tmp_path):
        f = tmp_path / "a.jsonl"
        f.write_text('{"id":"1","title":"A"}\n'  # malformed: yields to the next
                     '{"id":"1","title":"A","text":"first"}\n'
                     '{"id":"2","title":"B","text":"b"}\n'
                     '{"id":"1","title":"A","text":"second"}\n', encoding="utf-8")
        tally, index = ArticleTally(), {}
        arts = list(scan_articles(f, "en", tally, index))
        assert [(a.page_id, a.text) for a in arts] == [(1, "first"), (2, "b")]
        assert (tally.malformed_articles, tally.duplicate_articles) == (1, 1)
        lines = f.read_bytes().splitlines(keepends=True)
        assert index == {1: (f, len(lines[0])), 2: (f, len(lines[0]) + len(lines[1]))}


def test_generic_dump_writer_values(tmp_path):
    path = tmp_path / "t.sql"
    write_sql_dump(path, "t", [(1, None, "a'b")])
    (row,) = iter_insert_tuples(path)
    assert row == ("1", None, "a'b")
    assert sql_quote("a'b") == "'a\\'b'"
