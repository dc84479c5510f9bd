import itertools
import random
import re
import sys

import m2_oracle
import pytest
from conftest import VOCAB, random_edit_set, random_ref_sets, random_tokens

from chunkeval import (
    AnnotatedSample,
    BoundsError,
    DataError,
    Edit,
    EmptySourceError,
    LengthMismatchError,
    OverlapError,
    ParseError,
    apply_edits,
    drop_unchanged_references,
    emit_m2,
    extract_edits,
    load_parallel,
    parse_m2,
    tokenize,
)
from chunkeval import cli, corpus
from chunkeval.corpus import check_edits, split_lines

WHITESPACE = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]


class TestTokenize:
    def test_basic(self):
        assert tokenize("It has improved .") == ("It", "has", "improved", ".")

    def test_whitespace_runs(self):
        assert tokenize("a  b\tc") == ("a", "b", "c")

    def test_empty(self):
        assert tokenize("") == ()

    def test_join_round_trip(self):
        rng = random.Random(7)
        for _ in range(200):
            tokens = random_tokens(rng, 0, 10)
            assert tokenize(" ".join(tokens)) == tokens


    def test_matches_regex_split_over_every_whitespace_character(self):
        # ASCII text takes the str.split path unless it holds \x1c-\x1f
        ascii_pieces = [c for c in WHITESPACE if c.isascii()] + VOCAB
        all_pieces = WHITESPACE + VOCAB + ["é", "今", "-NONE-"]
        rng = random.Random(71)
        for _ in range(20000):
            pieces = ascii_pieces if rng.random() < 0.5 else all_pieces
            text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 12)))
            expected = tuple(t for t in re.split(r"[ \t\r\n\f\v]+", text) if t)
            assert tokenize(text) == expected


def check_edits_sort_first(edits, source_len):
    """``check_edits`` as it was: sort, then check every bound, then every pair."""
    ordered = tuple(sorted(edits, key=lambda e: (e.start, e.end)))
    for e in ordered:
        if e.end > source_len:
            raise BoundsError(
                f"edit [{e.start}, {e.end}) exceeds source length {source_len}"
            )
    for a, b in zip(ordered, ordered[1:]):
        if a.end > b.start:
            raise OverlapError(
                f"edits [{a.start}, {a.end}) and [{b.start}, {b.end}) overlap"
            )
        if a.start == a.end == b.start == b.end:
            raise OverlapError(f"two insertions at position {a.start}")
    return ordered


def outcome(check, edits, source_len):
    try:
        return "ok", check(edits, source_len)
    except (BoundsError, OverlapError) as exc:
        return type(exc), str(exc)


class TestCheckEdits:
    def test_matches_sort_first_form(self):
        # ordered, shuffled, overlapping, out-of-range and doubly bad inputs
        rng = random.Random(73)
        seen = {"ok": 0, "shuffled": 0, "bounds": 0, "overlap": 0, "both": 0}
        for _ in range(4000):
            n = rng.randint(1, 8)
            edits = random_edit_set(rng, n, max_edits=4)
            if rng.random() < 0.4:
                edits += random_edit_set(rng, n, max_edits=2)
            if rng.random() < 0.5:
                rng.shuffle(edits)
            source_len = n if rng.random() < 0.6 else rng.randint(0, n - 1)
            expected = outcome(check_edits_sort_first, edits, source_len)
            assert outcome(check_edits, edits, source_len) == expected
            if expected[0] is BoundsError:
                overlaps = outcome(check_edits_sort_first, edits, n)[0] is OverlapError
                seen["both" if overlaps else "bounds"] += 1
            elif expected[0] is OverlapError:
                seen["overlap"] += 1
            else:
                seen["shuffled" if list(expected[1]) != edits else "ok"] += 1
        assert min(seen.values()) > 200, seen

    def test_checked_edits_are_returned_as_they_are(self):
        edits = check_edits([Edit(2, 3, ("x",)), Edit(0, 0, ("y",))], 3)
        assert check_edits(edits, 3) is edits
        with pytest.raises(BoundsError, match=r"edit \[2, 3\) exceeds source length 2"):
            check_edits(edits, 2)


class TestApplyEdits:
    def test_delete_and_substitute(self):
        src = ("the", "technologies", "were")
        edits = [Edit(0, 1, ()), Edit(2, 3, ("have",))]
        assert apply_edits(src, edits) == ("technologies", "have")

    def test_identity(self):
        assert apply_edits(("a", "b"), []) == ("a", "b")

    def test_insertion(self):
        assert apply_edits(("a", "b"), [Edit(1, 1, ("x",))]) == ("a", "x", "b")

    def test_all_single_insertions_against_splice_oracle(self):
        # direct splice over every 2-token source and insertion point
        for src in [("a", "b"), ("b", "a"), ("x", "x")]:
            for pos in range(3):
                got = apply_edits(src, [Edit(pos, pos, ("q",))])
                expected = tuple(src[:pos] + ("q",) + src[pos:])
                assert got == expected

    def test_overlap_rejected(self):
        with pytest.raises(OverlapError):
            apply_edits(("a", "b", "c"), [Edit(0, 2, ("x",)), Edit(1, 3, ("y",))])

    def test_same_point_insertions_rejected(self):
        with pytest.raises(OverlapError):
            apply_edits(("a",), [Edit(1, 1, ("x",)), Edit(1, 1, ("y",))])

    def test_out_of_bounds_rejected(self):
        with pytest.raises(BoundsError):
            apply_edits(("a",), [Edit(0, 2, ("x",))])

    def test_unsorted_input_is_sorted(self):
        src = ("a", "b", "c")
        edits = [Edit(2, 3, ("y",)), Edit(0, 1, ("x",))]
        assert apply_edits(src, edits) == ("x", "b", "y")


class TestEditInvariants:
    def test_empty_insertion_rejected(self):
        with pytest.raises(ValueError):
            Edit(1, 1, ())

    def test_negative_interval_rejected(self):
        with pytest.raises(BoundsError):
            Edit(2, 1, ("x",))

    def test_fields_are_those_of_an_m2_edit(self):
        # the annotator is the key an edit is filed under, not a field
        assert Edit.__slots__ == ("start", "end", "replacement", "type_label")
        assert Edit(0, 1, ("x",)).type_label == "UNK"

    def test_label_that_is_not_a_str_rejected(self):
        with pytest.raises(TypeError, match="type label must be a str, got None"):
            Edit(0, 1, ("x",), None)

    def test_str_replacement_rejected(self):
        # tuple("word") would be four one-character tokens
        with pytest.raises(TypeError, match="sequence of tokens, not the str 'word'"):
            Edit(0, 1, "word")
        for tokens in (["w", "o"], ("w", "o")):
            assert Edit(0, 1, tokens).replacement == ("w", "o")

    @pytest.mark.parametrize("start, end", [(0.0, 1), (True, 1), (0, 1.0), (0, True)])
    def test_bounds_that_are_not_ints_rejected(self, start, end):
        # emit_m2 would write them as "A 0.0 1" or "A True 1", which parse_m2 refuses
        with pytest.raises(TypeError, match="edit bounds must be ints"):
            Edit(start, end, ("x",))


SINGLE = "S a b\nA 0 1|||R:X|||c|||REQUIRED|||-NONE-|||0\n"


class TestParseM2:
    def test_single_record(self):
        samples = parse_m2(SINGLE)
        assert len(samples) == 1
        sample = samples[0]
        assert sample.source == ("a", "b")
        assert sample.annotator_ids == [0]
        (edit,) = sample.annotations[0]
        assert (edit.start, edit.end, edit.replacement) == (0, 1, ("c",))
        assert edit.type_label == "R:X"

    def test_noop(self):
        samples = parse_m2("S a b\nA -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n")
        assert samples[0].annotations == {0: ()}

    def test_multiple_annotators_and_gap_ids(self):
        text = (
            "S a b\n"
            "A 0 1|||R:X|||c|||REQUIRED|||-NONE-|||5\n"
            "A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||2\n"
        )
        sample = parse_m2(text)[0]
        assert sample.annotator_ids == [2, 5]
        assert sample.annotations[2] == ()

    def test_none_replacement_is_deletion(self):
        text = "S a b\nA 0 1|||M:DEL|||-NONE-|||REQUIRED|||-NONE-|||0\n"
        (edit,) = parse_m2(text)[0].annotations[0]
        assert edit.replacement == ()

    def test_overlap_raises(self):
        text = (
            "S a b c\n"
            "A 0 2|||X|||q|||REQUIRED|||-NONE-|||0\n"
            "A 1 3|||X|||r|||REQUIRED|||-NONE-|||0\n"
        )
        with pytest.raises(ParseError) as err:
            parse_m2(text)
        assert err.value.line == 1
        assert isinstance(err.value.__cause__, OverlapError)

    @pytest.mark.parametrize("first", [5, 2])
    def test_overlaps_in_two_annotators_name_the_first_listed(self, first):
        # each annotator's edits are checked in file order, before the ids are sorted
        lines = {
            5: "A 2 4|||X|||q|||REQUIRED|||-NONE-|||5\nA 3 4|||X|||r|||REQUIRED|||-NONE-|||5\n",
            2: "A 0 2|||X|||q|||REQUIRED|||-NONE-|||2\nA 1 2|||X|||r|||REQUIRED|||-NONE-|||2\n",
        }
        text = "S a b c d\n" + lines[first] + lines[7 - first]
        named = {5: "edits [2, 4) and [3, 4) overlap", 2: "edits [0, 2) and [1, 2) overlap"}
        with pytest.raises(ParseError) as err:
            parse_m2(text)
        assert str(err.value) == "line 1: " + named[first]
        edits = {
            5: (Edit(2, 4, ("q",), "X"), Edit(3, 4, ("r",), "X")),
            2: (Edit(0, 2, ("q",), "X"), Edit(1, 2, ("r",), "X")),
        }
        with pytest.raises(OverlapError, match=re.escape(named[first])):
            AnnotatedSample(tuple("abcd"), {aid: edits[aid] for aid in (first, 7 - first)})

    def test_overlap_has_record_line_number(self):
        text = (
            "S a\nA 0 1|||X|||q|||REQUIRED|||-NONE-|||0\n\n"
            "S a b\n"
            "A 1 1|||X|||q|||REQUIRED|||-NONE-|||0\n"
            "A 1 1|||X|||r|||REQUIRED|||-NONE-|||0\n"
        )
        with pytest.raises(ParseError) as err:
            parse_m2(text)
        assert err.value.line == 4
        assert "two insertions" in str(err.value)

    def test_out_of_bounds_has_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_m2("S a\nA 0 5|||X|||q|||REQUIRED|||-NONE-|||0\n")
        assert err.value.line == 2

    def test_a_before_s(self):
        with pytest.raises(ParseError):
            parse_m2("A 0 1|||X|||q|||REQUIRED|||-NONE-|||0\n")

    def test_second_s_line(self):
        with pytest.raises(ParseError):
            parse_m2("S a\nS b\n")

    def test_bad_field_count(self):
        with pytest.raises(ParseError):
            parse_m2("S a\nA 0 1|||X|||q\n")

    @pytest.mark.parametrize(
        "tail", ["|||junk", "|||", "|||anything|||at all"], ids=["word", "empty", "two"]
    )
    def test_extra_fields_rejected(self, tail):
        line = "A 0 1|||R|||x|||REQUIRED|||-NONE-|||0" + tail
        with pytest.raises(ParseError) as err:
            parse_m2("S a b\n" + line + "\n")
        n = 6 + tail.count("|||")
        assert (str(err.value), err.value.line) == (
            f"line 2: expected 6 '|||' fields, got {n}",
            2,
        )
        with pytest.raises(ParseError) as oracle_err:
            m2_oracle.parse_m2("S a b\n" + line + "\n")
        assert str(oracle_err.value) == str(err.value)

    NOT_DECIMAL = ["1_0", "+1", "\u0661"]  # int() reads them as 10, 1 and 1

    @pytest.mark.parametrize("field", NOT_DECIMAL, ids=["underscore", "plus", "arabic-indic"])
    @pytest.mark.parametrize("where", ["start", "end", "annotator"])
    def test_integer_fields_are_ascii_decimal(self, where, field):
        span = {"start": f"{field} 1", "end": f"0 {field}"}.get(where, "0 1")
        annotator = field if where == "annotator" else "0"
        text = f"S a b\nA {span}|||R|||x|||REQUIRED|||-NONE-|||{annotator}\n"
        with pytest.raises(ParseError) as err:
            parse_m2(text)
        assert (str(err.value), err.value.line) == (
            f"line 2: invalid literal for int() with base 10: {field!r}",
            2,
        )
        with pytest.raises(ParseError) as oracle_err:
            m2_oracle.parse_m2(text)
        assert str(oracle_err.value) == str(err.value)

    @pytest.mark.parametrize("field", ["1 ", " 1", "1\t", "-0"])
    def test_whitespace_around_an_annotator_id_still_parses(self, field):
        text = f"S a b\nA 0 1|||R|||x|||REQUIRED|||-NONE-|||{field}\n"
        (sample,) = parse_m2(text)
        assert list(sample.annotations) == [int(field)]
        assert repr(m2_oracle.parse_m2(text)) == repr([sample])

    def test_the_integer_rule_matches_the_oracle_on_seeded_fields(self):
        def outcome(read, field):
            try:
                return read(field)
            except ValueError as exc:
                return str(exc)

        rng = random.Random(28)
        chars = "019-+_ \t\x1c\x85\u2028\u0661x"
        seen = {"int": 0, "error": 0}
        for _ in range(3000):
            field = "".join(rng.choices(chars, k=rng.randint(0, 5)))
            got = outcome(corpus._decimal, field)
            assert got == outcome(m2_oracle.decimal, field), repr(field)
            seen["int" if isinstance(got, int) else "error"] += 1
            if isinstance(got, int):
                assert got == int(field) and "_" not in field and "+" not in field
        assert min(seen.values()) >= 100, seen

    def test_empty_insertion_rejected(self):
        with pytest.raises(ParseError):
            parse_m2("S a\nA 0 0|||X|||-NONE-|||REQUIRED|||-NONE-|||0\n")

    def test_noop_with_real_edit_conflicts(self):
        text = (
            "S a\n"
            "A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n"
            "A 0 1|||X|||q|||REQUIRED|||-NONE-|||0\n"
        )
        with pytest.raises(ParseError):
            parse_m2(text)

    def test_unk_type_is_carried_through(self):
        (edit,) = parse_m2("S a\nA 0 1|||UNK|||q|||REQUIRED|||-NONE-|||0\n")[0].annotations[0]
        assert edit.type_label == "UNK"

    def test_crlf_tolerated(self):
        assert parse_m2(SINGLE.replace("\n", "\r\n")) == parse_m2(SINGLE)

    def test_non_ascii_tokens_round_trip(self):
        text = "S 今天 天气 冷 。\nA 0 1|||R:OTHER|||今日|||REQUIRED|||-NONE-|||0\n"
        samples = parse_m2(text)
        assert samples[0].annotations[0][0].replacement == ("今日",)
        assert emit_m2(samples) == text + "\n"


def parse_m2_by_constructor(text):
    """``parse_m2`` for well-formed lines: each block through ``AnnotatedSample``."""
    samples, source = [], None
    for lineno, line in enumerate(text.split("\n"), 1):
        if line.startswith("S "):
            source, block_line, annotations = tokenize(line[2:]), lineno, {}
        elif line.startswith("A "):
            span, label, repl, _, _, aid = line[2:].split("|||")
            edits = annotations.setdefault(int(aid), [])
            if label != "noop":
                start, end = map(int, span.split())
                replacement = () if repl == "-NONE-" else tokenize(repl)
                edits.append(Edit(start, end, replacement, label))
        elif source is not None:
            annotations = {aid: tuple(edits) for aid, edits in annotations.items()}
            try:
                samples.append(AnnotatedSample(source, annotations))
            except (BoundsError, OverlapError) as exc:
                raise ParseError(str(exc), block_line) from exc
            source = None
    return samples


def shuffled_m2_block(rng, vocab):
    """An M2 block with its A lines shuffled, sometimes with an extra edit.

    The extra edit is a second insertion at an insertion point of the same
    annotator, or a random edit that may overlap one of theirs.
    """
    source = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 8)))
    refs = dict(random_ref_sets(rng, len(source), 1, 4))
    aid = rng.choice(list(refs))
    points = [e.start for e in refs[aid] if e.start == e.end]
    if points and rng.random() < 0.3:
        point = rng.choice(points)
        refs[aid].append(Edit(point, point, (rng.choice(vocab),)))
    elif refs[aid] and rng.random() < 0.3:
        start = rng.randrange(len(source))
        refs[aid].append(Edit(start, rng.randint(start + 1, len(source)), ()))
    lines = []
    for aid, edits in refs.items():
        if not edits:
            lines.append(f"A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||{aid}")
        for e in edits:
            repl = " ".join(e.replacement) or "-NONE-"
            lines.append(f"A {e.start} {e.end}|||R:X|||{repl}|||REQUIRED|||-NONE-|||{aid}")
    rng.shuffle(lines)
    return "\n".join(["S " + " ".join(source)] + lines) + "\n\n"


def _m2_edit_lines(block):
    return [line.split("|||") for line in block.split("\n") if line.startswith("A ")]


def test_parse_m2_matches_constructor_on_shuffled_blocks():
    rng = random.Random(83)
    seen = dict.fromkeys(
        ["out of order", "interleaved", "two insertions", "overlap", "not str.split"], 0
    )
    for _ in range(1500):
        # now and then a token that str.split would break, or a non-ASCII one
        vocab = VOCAB + ["q\x1cr", "é"] if rng.random() < 0.1 else VOCAB
        blocks = [shuffled_m2_block(rng, vocab) for _ in range(rng.randint(1, 3))]
        text = "".join(blocks)
        try:
            expected = parse_m2_by_constructor(text)
        except ParseError as exc:
            expected = (str(exc), exc.line)
            seen["two insertions" if "two insertions" in str(exc) else "overlap"] += 1
        try:
            got = parse_m2(text)
        except ParseError as exc:
            got = (str(exc), exc.line)
        assert got == expected
        seen["not str.split"] += vocab is not VOCAB
        for block in blocks:
            fields = _m2_edit_lines(block)
            ids = [f[5] for f in fields]
            seen["interleaved"] += len(list(itertools.groupby(ids))) > len(set(ids))
            spans = {}
            for f in fields:
                spans.setdefault(f[5], []).append(tuple(map(int, f[0][2:].split())))
            seen["out of order"] += any(sp != sorted(sp) for sp in spans.values())
    assert min(seen.values()) >= 100, seen


# Field values that parse_m2 must reject, or must accept only on some lines.
BAD_SPANS = ["x", "1", "1 2 3", "-2", "-2 1", "1 x"]
BAD_ANNOTATORS = ["x", "1", "1 2 3", "-2", "-1", ""]
M2_MUTATIONS = (
    "span", "annotator", "noop span", "noop conflict", "-1 span", "out of bounds",
    "repeat", "extra field", "missing field", "empty insertion",
)


def _mutated_line(rng, fields, source_len):
    """An A line's fields with one field broken, or a line added after it."""
    kind = rng.choice(M2_MUTATIONS)
    if kind == "span":
        fields[0] = rng.choice(BAD_SPANS)
    elif kind == "annotator":
        fields[5] = rng.choice(BAD_ANNOTATORS)
    elif kind == "noop span":
        fields[1] = "noop"
    elif kind == "noop conflict":
        return [fields, ["-1 -1", "noop", "-NONE-", "REQUIRED", "-NONE-", fields[5]]]
    elif kind == "-1 span":
        fields[0] = rng.choice(["-1 -1", "-1 1", "1 -1"])
    elif kind == "out of bounds":
        start = rng.randint(0, source_len)
        fields[0] = f"{start} {rng.randint(source_len + 1, source_len + 3)}"
    elif kind == "repeat":
        return [fields, list(fields)]
    elif kind == "extra field":
        fields.append("x")
    elif kind == "missing field":
        del fields[rng.randrange(len(fields)) :]
    else:
        start = rng.randint(0, source_len)
        fields[0], fields[2] = f"{start} {start}", "-NONE-"
    return [fields]


def fuzz_m2_text(rng):
    """Seeded M2 text over a short vocabulary, some of whose lines are broken.

    Span strings recur across sentences of different lengths; A lines are
    now and then shuffled, broken, repeated or joined by a noop record;
    separators are sometimes whitespace-only; line ends are sometimes CRLF.
    """
    vocab = VOCAB + ["q\x1cr", "é"] if rng.random() < 0.2 else VOCAB
    blocks = []
    for _ in range(rng.randint(1, 4)):
        source = [rng.choice(vocab) for _ in range(rng.randint(1, 6))]
        lines = []
        for aid, edits in random_ref_sets(rng, len(source), 1, 4):
            if not edits:
                lines.append(["-1 -1", "noop", "-NONE-", "REQUIRED", "-NONE-", str(aid)])
            for e in edits:
                repl = " ".join(rng.choice(vocab) for _ in e.replacement) or "-NONE-"
                label = rng.choice(["R:X", "M:Y", "UNK"])
                lines.append([f"{e.start} {e.end}", label, repl, "REQUIRED", "-NONE-", str(aid)])
        if rng.random() < 0.3:
            rng.shuffle(lines)
        fields = []
        for f in lines:
            fields += _mutated_line(rng, f, len(source)) if rng.random() < 0.04 else [f]
        block = ["S " + " ".join(source)] + ["A " + "|||".join(f) for f in fields]
        separator = rng.choice(["", "", " ", "\t", " \x0b"]) + "\n"
        # now and then an empty source, an A line first, a stray line, or no separator
        broken = rng.randrange(40)
        if broken == 0:
            block[0] = rng.choice(["S", "S ", "S \t"])
        elif broken == 1:
            block.insert(0, block.pop())
        elif broken == 2:
            separator = rng.choice(["x\n", "T a\n", "s a\n"])
        elif broken == 3:
            separator = ""
        blocks.append("\n".join(block) + "\n" + separator)
    text = "".join(blocks)
    if rng.random() < 0.2:
        text = text.replace("\n", "\r\n")
    elif rng.random() < 0.2:
        text = "".join(line + rng.choice(["\n", "\r\n"]) for line in text.split("\n")[:-1])
    return text


def random_pieces(rng, text):
    """``text`` cut at a few random points, empty pieces included."""
    cuts = sorted(rng.randint(0, len(text)) for _ in range(rng.randint(0, 8)))
    return [text[a:b] for a, b in zip([0, *cuts], [*cuts, len(text)])]


def parse_outcome(parse, text):
    """The samples ``parse(text)`` gives, or its ParseError's message and line."""
    try:
        return parse(text)
    except ParseError as exc:
        return (str(exc), exc.line)


def test_parse_m2_matches_oracle_on_fuzzed_text(tmp_path, monkeypatch):
    # each text is parsed whole, as random str pieces, and from its file in
    # blocks of a few bytes; the cuts draw on their own rng, so the texts
    # are the ones drawn before block-wise ingest
    rng, cut_rng = random.Random(113), random.Random(114)
    path = tmp_path / "fuzz.m2"
    seen: dict[str, int] = {}
    for _ in range(3000):
        text = fuzz_m2_text(rng)
        path.write_bytes(text.encode("utf-8"))
        monkeypatch.setattr(cli, "_BLOCK_CHARS", cut_rng.randint(1, 8))
        outcomes = [
            parse_outcome(parse, text)
            for parse in (
                m2_oracle.parse_m2,
                parse_m2,
                lambda t: parse_m2(random_pieces(cut_rng, t)),
                lambda t: parse_m2(cli._read_blocks(path)),
            )
        ]
        expected = outcomes[0]
        for got in outcomes[1:]:
            assert got == expected, repr(text)
        if isinstance(expected, list):
            for got in outcomes[1:]:
                assert repr(got) == repr(expected)
            # _CheckedEdits exactly where the oracle's constructor kept them
            kinds = [
                [type(es) for s in samples for es in s.annotations.values()]
                for samples in outcomes
            ]
            assert kinds[1:] == kinds[:1] * 3
            key = "parsed"
        else:
            key = re.sub(r"[-\d]+|'.*'", "#", expected[0])
        seen[key] = seen.get(key, 0) + 1
        seen["CRLF"] = seen.get("CRLF", 0) + ("\r\n" in text)
        seen["not str.split"] = seen.get("not str.split", 0) + ("\x1c" in text)
    # parsed, CRLF, not str.split, and each of the 15 ParseError messages
    assert len(seen) == 18 and min(seen.values()) >= 15, seen


EDIT_LINE = "A 0 1|||R|||x|||REQUIRED|||-NONE-|||0\n"


class TestParseM2InBlocks:
    """Pieces cut anywhere, and files read a few bytes at a time, parse as the whole text."""

    CASES = {
        "CRLF": "S a b\r\nA 0 1|||R|||x y|||REQUIRED|||-NONE-|||0\r\n\r\nS c\r\n",
        "multi-byte": "S é 今 😀 b\nA 1 3|||R|||ü 😀|||REQUIRED|||-NONE-|||0\n\nS a\x1cb c\n",
        "long line": "S " + " ".join(f"t{i}" for i in range(60)) + "\n"
        + "A 2 3|||R|||" + " ".join(["é"] * 30) + "|||REQUIRED|||-NONE-|||1\n",
        "no final newline": "S a b\n" + EDIT_LINE + "\nS c\nA 0 1|||R|||y|||REQUIRED|||-NONE-|||0",
        "empty": "",
        "blank separator": "S a\n" + EDIT_LINE + " \t\x0b\nS b\n" + EDIT_LINE + "  \n",
        "late error": ("S a\n" + EDIT_LINE + "\n") * 8 + "S a\nA 0 2|||R|||x|||REQUIRED|||-NONE-|||0\n",
        # an in-order block and an out-of-order one, annotators listed descending
        "descending annotators": "S a b c\nA 2 3|||R|||x|||REQUIRED|||-NONE-|||7\n"
        "A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||4\nA 0 1|||R|||y|||REQUIRED|||-NONE-|||1\n"
        "\nS d e\nA 1 2|||R|||z|||REQUIRED|||-NONE-|||3\nA 0 1|||R|||w|||REQUIRED|||-NONE-|||3\n"
        "A 0 0|||M|||v|||REQUIRED|||-NONE-|||2\n",
    }

    @pytest.fixture(params=CASES, ids=list(CASES))
    def case(self, request):
        text = self.CASES[request.param]
        return text, parse_outcome(m2_oracle.parse_m2, text)

    def test_every_two_piece_cut(self, case):
        text, expected = case
        for i in range(len(text) + 1):
            got = parse_outcome(parse_m2, [text[:i], text[i:]])
            assert got == expected and repr(got) == repr(expected), i

    def test_a_str_cut_into_small_pieces(self, case, monkeypatch):
        text, expected = case
        for size in (1, 2, 3, 7):
            monkeypatch.setattr(corpus, "_PIECE_CHARS", size)
            assert parse_outcome(parse_m2, text) == expected

    def test_files_read_in_small_blocks(self, case, tmp_path, monkeypatch):
        text, expected = case
        path = tmp_path / "refs.m2"
        path.write_bytes(text.encode("utf-8"))
        for size in (*range(1, 10), 1 << 16):
            monkeypatch.setattr(cli, "_BLOCK_CHARS", size)
            got = parse_outcome(parse_m2, cli._read_blocks(path))
            assert got == expected and repr(got) == repr(expected), size

    def test_the_cases_hold_what_they_name(self):
        cases = self.CASES
        assert "\r\n" in cases["CRLF"]
        assert len(cases["multi-byte"].encode("utf-8")) > len(cases["multi-byte"])
        assert len(cases["long line"].split("\n")[0]) > 20 * 9  # many 9-byte blocks
        assert not cases["no final newline"].endswith("\n")
        expected = parse_outcome(m2_oracle.parse_m2, cases["late error"])
        assert expected == ("line 26: edit [0, 2) outside source of length 1", 26)
        # the other tests compare the direct build with the oracle's constructor
        samples = m2_oracle.parse_m2(cases["descending annotators"])
        assert [list(s.annotations) for s in samples] == [[1, 4, 7], [2, 3]]


class TestParseM2Memos:
    """Each field string is parsed once per call; checks on the line still run."""

    @pytest.mark.parametrize(
        "line, message",
        [
            ("A 2 4|||R|||x|||REQUIRED|||-NONE-|||0", "edit [2, 4) outside source of length 1"),
            ("A -1 -1|||R|||x|||REQUIRED|||-NONE-|||0", "span -1 -1 is reserved for noop records"),
            ("A 1 1|||M|||-NONE-|||REQUIRED|||-NONE-|||0", "insertion with empty replacement"),
        ],
    )
    def test_a_field_seen_valid_is_checked_again_in_a_later_sentence(self, line, message):
        text = (
            "S a b c d\n"
            "A 2 4|||R|||x|||REQUIRED|||-NONE-|||0\n"
            "A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||1\n"
            "A 0 1|||U|||-NONE-|||REQUIRED|||-NONE-|||2\n"
            "A 1 1|||M|||y|||REQUIRED|||-NONE-|||2\n\n"
            "S a\n" + line + "\n"
        )
        with pytest.raises(ParseError) as err:
            parse_m2(text)
        assert (str(err.value), err.value.line) == (f"line 8: {message}", 8)

    @pytest.mark.parametrize("field", ["x", "-3", "0 1"])
    def test_a_repeated_bad_annotator_field_raises_at_its_first_line(self, field):
        line = f"A 0 1|||R|||x|||REQUIRED|||-NONE-|||{field}\n"
        text = "S a\nA 0 1|||R|||y|||REQUIRED|||-NONE-|||0\n\nS a b\n" + line + line
        with pytest.raises(ParseError) as err:
            parse_m2(text)
        assert err.value.line == 5
        with pytest.raises(ParseError) as oracle_err:
            m2_oracle.parse_m2(text)
        assert str(err.value) == str(oracle_err.value)

    def test_memos_are_local_to_each_call(self):
        line = "A 0 1|||R|||p q|||REQUIRED|||-NONE-|||0\n"
        first, second = parse_m2("S a b\n" + line + "\nS c\n" + line)
        (other,) = parse_m2("S a\x1cb c\n" + line)
        assert other.source == ("a\x1cb", "c")
        replacements = [s.annotations[0][0].replacement for s in (first, second, other)]
        assert replacements == [("p", "q")] * 3
        # one tuple per distinct field within a call, none shared across calls
        assert replacements[0] is replacements[1]
        assert replacements[2] is not replacements[0]


class TestEmitM2:
    def test_exact_block(self):
        assert emit_m2(parse_m2(SINGLE)) == SINGLE + "\n"

    def test_annotator_order(self):
        sample = AnnotatedSample(
            ("a", "b"),
            {
                1: (Edit(0, 1, ("x",), "T"),),
                0: (Edit(1, 2, ("y",), "T"),),
            },
        )
        lines = emit_m2([sample]).splitlines()
        assert lines[1].endswith("|||0")
        assert lines[2].endswith("|||1")

    def test_canonical_fixed_point(self):
        # already-canonical text survives parse+emit byte-identically, and
        # re-serializing never changes the parsed model
        noncanonical = (
            "S a b c\n"
            "A 2 3|||X|||q|||REQUIRED|||-NONE-|||1\n"
            "A 0 1|||Y|||r|||REQUIRED|||-NONE-|||0\n"
            "\n"
            "\n"
            "S d\n"
        )
        once = emit_m2(parse_m2(noncanonical))
        assert emit_m2(parse_m2(once)) == once
        assert parse_m2(once) == parse_m2(noncanonical)

    def test_parse_emit_round_trip_random(self):
        rng = random.Random(31)
        for _ in range(300):
            source = random_tokens(rng, 1, 8)
            refs = random_ref_sets(rng, len(source), 0, 3)
            annotations = {
                aid: tuple(
                    Edit(e.start, e.end, e.replacement, "T") for e in edits
                )
                for aid, edits in refs
            }
            sample = AnnotatedSample(source, annotations)
            assert parse_m2(emit_m2([sample])) == [sample]

    def test_extracted_edits_round_trip(self):
        # default labels and any keys >= 0 read back as written
        rng = random.Random(37)
        samples = []
        for _ in range(300):
            source = random_tokens(rng, 1, 8)
            ids = sorted(rng.sample(range(12), rng.randint(1, 4)))
            targets = [
                source if rng.random() < 0.2 else random_tokens(rng, 0, 8) for _ in ids
            ]
            samples.append(
                AnnotatedSample(
                    source, {aid: extract_edits(source, t) for aid, t in zip(ids, targets)}
                )
            )
        assert any(0 not in s.annotations for s in samples)
        assert parse_m2(emit_m2(samples)) == samples

    @pytest.mark.parametrize(
        "replacement, label, named",
        [
            (("-NONE-",), "R", "'-NONE-'"),
            (("x|||q",), "R", "'x|||q'"),
            (("a", "b|||"), "R", "'b|||'"),
            (("x",), "R|||M", "'R|||M'"),
        ],
        ids=["none-token", "bar-token", "second-token", "bar-label"],
    )
    def test_edits_that_read_back_wrong_are_data_errors(self, replacement, label, named):
        fine = AnnotatedSample(("a",), {0: (Edit(0, 1, ("-NONE-", "x"), "R"),)})
        bad = AnnotatedSample(("a", "b"), {0: (), 3: (Edit(0, 1, replacement, label),)})
        with pytest.raises(DataError) as err:
            emit_m2([fine, bad])
        assert str(err.value) == f"sample 2: cannot write {named} to M2"
        assert parse_m2(emit_m2([fine])) == [fine]

    @pytest.mark.parametrize(
        "source, replacement, label, named",
        [
            # each of these reads back as written
            (("a", "b"), ("x",), "R:VERB FORM", None),
            (("a", "b"), ("x",), "", None),
            (("a", "b"), ("x",), "NOOP", None),
            # refused: a file reader reads a lone CR as LF; the row keeps its
            # place, which keeps the index-based IDs of the rows after it
            (("a", "b"), ("x",), "R\r", "'R\\r'"),
            (("a", "b"), ("x\x85y", "-NONE-"), "R", None),
            (("a", "b"), ("x\x1fy",), "R", None),
            (("a", "b"), (), "M:DEL", None),
            (("-NONE-", "b|||"), ("x",), "R", None),
            # and each of these would not, so emit_m2 refuses it
            (("a", "b"), ("x",), "noop", "'noop'"),
            (("a", "b"), ("x",), "R\nS", "'R\\nS'"),
            (("a", "b"), ("x\ny",), "R", "'x\\ny'"),
            (("a", "b"), ("x y",), "R", "'x y'"),
            (("a", "b"), ("x", ""), "R", "''"),
            (("a b", "c"), ("x",), "R", "'a b'"),
            (("a", "\t"), ("x",), "R", "'\\t'"),
            (("a", ""), ("x",), "R", "''"),
            # a whole sample whose annotator key M2 cannot carry
            (AnnotatedSample(("a", "b"), {-1: ()}), None, None, "annotator -1"),
            # a source token may hold '|||'; the empty token is what M2 cannot hold
            (("a|||b", ""), ("x",), "R", "''"),
            # a '|' that does not end a field reads back as written
            (("a", "b"), ("|x",), "R", None),
            (("a", "b"), ("x|", "y"), "R", None),
            (("a", "b"), ("x",), "|R", None),
            # a field ending in '|' would move the separator after it
            (("a", "b"), ("x|",), "R", "'x|'"),
            (("a", "b"), ("a", "b||"), "R", "'b||'"),
            (("a", "b"), ("x",), "R|", "'R|'"),
        ],
    )
    def test_round_trip_or_data_error(self, source, replacement, label, named):
        fine = AnnotatedSample(("a",), {0: ()})
        if isinstance(source, AnnotatedSample):
            sample = source
        else:
            sample = AnnotatedSample(source, {2: (Edit(0, 1, replacement, label),)})
        if named is None:
            assert parse_m2(emit_m2([fine, sample])) == [fine, sample]
        else:
            with pytest.raises(DataError) as err:
                emit_m2([fine, sample])
            assert str(err.value) == f"sample 2: cannot write {named} to M2"

    def test_empty_source_is_data_error(self):
        fine = AnnotatedSample(("a",), {0: ()})
        with pytest.raises(DataError) as err:
            emit_m2([fine, AnnotatedSample((), {0: ()})])
        assert str(err.value) == "sample 2: cannot write '' to M2"

    def test_pipe_fuzz_writes_exactly_what_reads_back(self):
        # emit_m2 refuses a sample exactly when its lines, written without
        # any check, would not read back as the sample
        pieces = ["|", "||", "|||", "x|", "-NONE-", "noop", " ", "\n", "\x85", "x"]

        def text(k, plain=0.4):
            if rng.random() < plain:
                return rng.choice("abc")
            return "".join(rng.choice(pieces) for _ in range(rng.randint(0, k)))

        def unchecked(sample):
            lines = ["S " + " ".join(sample.source)]
            for aid in sample.annotator_ids:
                fields = [
                    (e.start, e.end, e.type_label, " ".join(e.replacement) or "-NONE-")
                    for e in sample.annotations[aid]
                ] or [(-1, -1, "noop", "-NONE-")]
                lines += [
                    f"A {s} {e}|||{t}|||{r}|||REQUIRED|||-NONE-|||{aid}" for s, e, t, r in fields
                ]
            return "\n".join(lines) + "\n\n"

        rng = random.Random(21)
        outcomes = {True: 0, False: 0}
        for _ in range(3000):
            source = tuple(text(2, 0.9) for _ in range(rng.randint(1, 3)))
            annotations = {}
            for aid in rng.sample(range(3), rng.randint(1, 2)):
                start = rng.randint(0, len(source))
                end = rng.randint(start, len(source))
                replacement = tuple(text(3) for _ in range(rng.randint(start == end, 2)))
                edit = Edit(start, end, replacement, text(3))
                annotations[aid] = () if rng.random() < 0.2 else (edit,)
            sample = AnnotatedSample(source, annotations)
            try:
                reads_back = parse_m2(unchecked(sample)) == [sample]
            except DataError:
                reads_back = False
            try:
                written = emit_m2([sample])
            except DataError:
                written = None
            assert (written is not None) == reads_back, sample
            if written is not None:
                assert written == unchecked(sample)
                assert parse_m2(written) == [sample]
            outcomes[reads_back] += 1
        assert min(outcomes.values()) > 500

    def test_written_text_reads_the_same_from_its_file(self, tmp_path):
        # one newline rule: what emit_m2 writes reads back alike from the
        # string and from its file, whose reader reads a lone CR as LF
        rng = random.Random(26)
        path = tmp_path / "written.m2"
        outcomes = {"written": 0, "refused": 0, "cr_refused": 0}
        for _ in range(2500):
            source = random_tokens(rng, 1, 4)
            annotations = {}
            for aid in rng.sample(range(3), rng.randint(1, 2)):
                start = rng.randint(0, len(source) - 1)
                label = "".join(rng.choice("\r\n|RM") for _ in range(rng.randint(1, 4)))
                annotations[aid] = (Edit(start, start + 1, ("x",), label),)
            sample = AnnotatedSample(source, annotations)
            try:
                text = emit_m2([sample])
            except DataError:
                outcomes["refused"] += 1
                edits = [e for es in annotations.values() for e in es]
                outcomes["cr_refused"] += any("\r" in e.type_label for e in edits)
                continue
            path.write_bytes(text.encode("utf-8"))
            assert parse_m2(cli._read_blocks(str(path))) == parse_m2(text) == [sample]
            outcomes["written"] += 1
        assert min(outcomes.values()) > 200, outcomes


class TestLoadParallel:
    def test_two_lines(self):
        pairs = load_parallel("a b\nc d\n", "a x\nc d\n")
        assert pairs == [(("a", "b"), ("a", "x")), (("c", "d"), ("c", "d"))]

    def test_mismatched_counts(self):
        with pytest.raises(LengthMismatchError):
            load_parallel("a\nb\n", "a\n")

    def test_crlf_equals_lf(self):
        assert load_parallel("a b\r\nc\r\n", "a\r\nc\r\n") == load_parallel(
            "a b\nc\n", "a\nc\n"
        )

    def test_empty_source_line(self):
        with pytest.raises(EmptySourceError):
            load_parallel("a\n\n", "a\nb\n")

    def test_empty_target_line_allowed(self):
        assert load_parallel("a\n b \n", "a\n\n")[1] == (("b",), ())

    @pytest.mark.parametrize("char", ["\x0c", "\x1c", "\x85", "\u2028"])
    def test_lines_break_at_newline_only(self, char):
        # str.splitlines would also break at each of these
        pairs = load_parallel(f"a b{char}c\r\nd\n", f"a x{char}c\nd\n")
        assert pairs == [
            (tokenize(f"a b{char}c"), tokenize(f"a x{char}c")),
            (("d",), ("d",)),
        ]
        assert split_lines(f"a{char}b\n\nc\r\n") == [f"a{char}b", "", "c"]


@pytest.mark.parametrize(
    "text, lines",
    [
        ("a\r\nb\nc\r\n", ["a", "b", "c"]),
        ("a\rb\nc\r\n", ["a\rb", "c"]),
        ("a\rb\n\nc", ["a\rb", "", "c"]),
        ("a\nb\n\n", ["a", "b", ""]),
        ("", []),
    ],
)
def test_split_lines_strips_only_a_trailing_cr(text, lines):
    assert split_lines(text) == m2_oracle.split_lines(text) == lines


class TestDropUnchangedReferences:
    def test_drops_noop_annotators(self):
        sample = AnnotatedSample(
            ("a",), {0: (), 1: (Edit(0, 1, ("b",)),)}
        )
        filtered = drop_unchanged_references(sample)
        assert filtered.annotator_ids == [1]

    def test_drops_annotators_whose_edits_are_all_no_ops(self):
        sample = AnnotatedSample(
            ("a", "b"),
            {
                0: (Edit(0, 1, ("a",), "R"), Edit(1, 2, ("b",))),
                1: (Edit(1, 2, ("c",)),),
                2: (Edit(0, 2, ("a", "b")),),
            },
        )
        assert drop_unchanged_references(sample).annotator_ids == [1]

    def test_none_when_all_unchanged(self):
        assert drop_unchanged_references(AnnotatedSample(("a",), {0: ()})) is None


def m2_block_in_annotator_order(rng, descending):
    """An M2 block, its annotators listed in shuffled or descending id order.

    Each annotator's lines are together. Now and then an annotator lists its
    edits in reverse, so the block is built by ``AnnotatedSample``; an
    annotator with no edits is declared by a noop record. Returns the block,
    its annotator ids as listed, and whether an annotator was reversed.
    """
    source = random_tokens(rng, 1, 8)
    refs = random_ref_sets(rng, len(source), 1, 5)
    if descending:
        refs.reverse()
    else:
        rng.shuffle(refs)
    lines, reversed_any = ["S " + " ".join(source)], False
    for aid, edits in refs:
        if len(edits) > 1 and rng.random() < 0.3:
            edits.reverse()
            reversed_any = True
        if not edits:
            lines.append(f"A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||{aid}")
        for e in edits:
            repl = " ".join(e.replacement) or "-NONE-"
            lines.append(f"A {e.start} {e.end}|||R|||{repl}|||REQUIRED|||-NONE-|||{aid}")
    return "\n".join(lines) + "\n\n", [aid for aid, _ in refs], reversed_any


class TestAnnotatorOrder:
    """A sample holds its annotators in ascending id, however they were given."""

    def test_constructor_and_drop_unchanged_references(self):
        rng = random.Random(127)
        shuffled = dropped = 0
        for _ in range(500):
            source = random_tokens(rng, 1, 6)
            refs = random_ref_sets(rng, len(source), 1, 5)
            rng.shuffle(refs)
            ids = [aid for aid, _ in refs]
            sample = AnnotatedSample(source, {aid: tuple(edits) for aid, edits in refs})
            assert list(sample.annotations) == sample.annotator_ids == sorted(ids)
            changed = [aid for aid in ids if sample.reference(aid) != source]
            filtered = drop_unchanged_references(sample)
            if filtered is not None:
                assert list(filtered.annotations) == sorted(changed)
            shuffled += ids != sorted(ids)
            dropped += filtered is not None and len(changed) < len(ids) and changed != sorted(changed)
        assert shuffled > 200 and dropped > 40, (shuffled, dropped)

    def test_parse_m2_whole_in_pieces_and_from_a_file(self, tmp_path, monkeypatch):
        rng, cut_rng = random.Random(131), random.Random(132)
        path = tmp_path / "refs.m2"
        seen = dict.fromkeys(["in order", "reversed", "noop only", "descending", "shuffled"], 0)
        for _ in range(400):
            descending = rng.random() < 0.5
            blocks = [m2_block_in_annotator_order(rng, descending) for _ in range(rng.randint(1, 4))]
            text = "".join(block for block, _, _ in blocks)
            path.write_bytes(text.encode("utf-8"))
            monkeypatch.setattr(cli, "_BLOCK_CHARS", cut_rng.randint(1, 64))
            expected = [sorted(ids) for _, ids, _ in blocks]
            for samples in (
                parse_m2(text),
                parse_m2(random_pieces(cut_rng, text)),
                parse_m2(cli._read_blocks(path)),
            ):
                assert [list(s.annotations) for s in samples] == expected, repr(text)
                assert [s.annotator_ids for s in samples] == expected
            for block, ids, reversed_any in blocks:
                unsorted = ids != sorted(ids)
                seen["reversed" if reversed_any else "in order"] += unsorted
                seen["noop only"] += unsorted and "|||noop|||" in block
                seen["descending" if descending else "shuffled"] += unsorted
        assert min(seen.values()) >= 100, seen


def test_parsed_edits_always_apply():
    rng = random.Random(99)
    for _ in range(200):
        source = random_tokens(rng, 1, 8)
        refs = random_ref_sets(rng, len(source), 0, 3)
        sample = AnnotatedSample(
            source,
            {
                aid: tuple(Edit(e.start, e.end, e.replacement) for e in edits)
                for aid, edits in refs
            },
        )
        reparsed = parse_m2(emit_m2([sample]))[0]
        for aid in reparsed.annotator_ids:
            reparsed.reference(aid)  # must not raise
