"""Corpus I/O: tokenization, edits, M2 annotation files and parallel text.

The M2 interchange format is parsed and emitted bit-exactly: records are
blank-line separated, each holding one ``S`` source line and any number of
``A`` edit lines of the form::

    A <start> <end>|||<type>|||<replacement or -NONE->|||REQUIRED|||-NONE-|||<annotator>

``A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||<id>`` declares an annotator
with no edits.
"""

import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from .errors import (
    BoundsError,
    DataError,
    EmptySourceError,
    LengthMismatchError,
    OverlapError,
    ParseError,
)

# A token sequence is a plain tuple of whitespace-free tokens.
TokenSeq = tuple[str, ...]

_ASCII_WS = re.compile(r"[ \t\r\n\f\v]+")

NOOP_TYPE = "noop"
UNKNOWN_TYPE = "UNK"
_NONE_FIELD = "-NONE-"
# a replacement token M2 cannot hold: empty, or holding '|||' or ASCII whitespace
_UNHOLDABLE = re.compile(r"\A\Z|\|\|\||" + _ASCII_WS.pattern).search
_A_LINE = "A {} {}|||{}|||{}|||REQUIRED|||-NONE-|||{}".format


def _splits_plainly(text: str) -> bool:
    """Whether ``str.split`` breaks ``text`` exactly where ``_ASCII_WS`` does.

    Outside ASCII, ``str.split`` also breaks at Unicode spaces; inside it,
    only at ``\x1c``-``\x1f`` beyond ``_ASCII_WS``.
    """
    return text.isascii() and not (
        "\x1c" in text or "\x1d" in text or "\x1e" in text or "\x1f" in text
    )


def _decimal(field: str) -> int:
    """``int(field)``, where a ``_``, a ``+`` or a non-ASCII digit raises its ValueError too."""
    digits = field.strip().removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {field!r:.200}")
    return int(field)


def tokenize(text: str) -> TokenSeq:
    """Split on runs of ASCII whitespace; empty input gives an empty tuple."""
    if _splits_plainly(text):
        return tuple(text.split())
    return tuple(t for t in _ASCII_WS.split(text) if t)


@dataclass(frozen=True, slots=True)
class Edit:
    """Replacement of the source span [start, end) by ``replacement``.

    ``start == end`` denotes a pure insertion at that position and requires a
    non-empty replacement; a deletion has an empty replacement over a
    non-empty span. A no-op is never represented as an Edit. An edit holds
    the fields of its M2 line except the annotator, which is the key it is
    filed under; an unlabelled edit holds ``UNKNOWN_TYPE``. Its bounds are of
    type ``int`` exactly, as M2 writes them: not a float, nor a bool.
    """

    start: int
    end: int
    replacement: tuple[str, ...]
    type_label: str = UNKNOWN_TYPE

    def __post_init__(self):
        if isinstance(self.replacement, str):  # tuple() would split it into characters
            raise TypeError(
                f"replacement must be a sequence of tokens, not the str {self.replacement!r}"
            )
        object.__setattr__(self, "replacement", tuple(self.replacement))
        if not (type(self.start) is type(self.end) is int):
            raise TypeError(f"edit bounds must be ints, got {self.start!r} and {self.end!r}")
        if self.start < 0 or self.end < self.start:
            raise BoundsError(f"bad edit interval [{self.start}, {self.end})")
        if self.start == self.end and not self.replacement:
            raise ValueError("empty edit: insertion must have a replacement")
        if not isinstance(self.type_label, str):
            raise TypeError(f"type label must be a str, got {self.type_label!r}")


# Slot setters that build a checked Edit without running its __post_init__.
_set_start, _set_end, _set_replacement, _set_type_label = (
    getattr(Edit, name).__set__ for name in Edit.__slots__
)


class _CheckedEdits(tuple):
    """Edits, at least one, that ``check_edits`` sorted and found disjoint,
    or that ``parse_m2`` read in that order, so ends ascend."""

    __slots__ = ()


def check_edits(edits: Iterable[Edit], source_len: int) -> tuple[Edit, ...]:
    """Sort edits by (start, end), then check every bound, then every pair.

    ``_CheckedEdits`` whose last end, the largest, is in bounds come back as they are.
    """
    if type(edits) is _CheckedEdits and edits[-1].end <= source_len:
        return edits
    ordered = tuple(sorted(edits, key=lambda e: (e.start, e.end)))
    if e := next((e for e in ordered if e.end > source_len), None):
        raise BoundsError(f"edit [{e.start}, {e.end}) exceeds source length {source_len}")
    for a, b in zip(ordered, ordered[1:]):
        if a.end > b.start:
            raise OverlapError(
                f"edits [{a.start}, {a.end}) and [{b.start}, {b.end}) overlap"
            )
        if a.start == a.end == b.start == b.end:
            raise OverlapError(f"two insertions at position {a.start}")
    return _CheckedEdits(ordered) if ordered else ordered


@dataclass(frozen=True)
class AnnotatedSample:
    """One source sentence with per-annotator edit lists, checked in the
    order given and then held by ascending annotator id."""

    source: TokenSeq
    annotations: dict[int, tuple[Edit, ...]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "source", tuple(self.source))
        checked = {
            aid: check_edits(edits, len(self.source))
            for aid, edits in self.annotations.items()
        }
        object.__setattr__(self, "annotations", dict(sorted(checked.items())))

    @property
    def annotator_ids(self) -> list[int]:
        """Ids ascending, the order of ``annotations``, which is read-only by contract."""
        return list(self.annotations)

    def reference(self, aid: int) -> TokenSeq:
        """The corrected sentence of annotator ``aid``."""
        return apply_edits(self.source, self.annotations[aid])


def apply_edits(source: Sequence[str], edits: Iterable[Edit]) -> TokenSeq:
    """Replace each edit span by its replacement, left to right."""
    out: list[str] = []
    pos = 0
    for e in check_edits(edits, len(source)):
        out.extend(source[pos : e.start])
        out.extend(e.replacement)
        pos = e.end
    out.extend(source[pos:])
    return tuple(out)


# characters per piece when parse_m2 cuts a str argument
_PIECE_CHARS = 1 << 16


def _whole_lines(pieces: Iterable[str]) -> Iterator[str]:
    """The text of ``pieces``, cut anywhere, as runs of whole lines.

    Each run ends at the last ``\n`` of a piece; the last run is the rest.
    An unfinished line is kept as a list of its pieces, so it is joined once
    however many pieces it spans.
    """
    head: list[str] = []
    for piece in pieces:
        cut = piece.rfind("\n") + 1
        if not cut:
            head.append(piece)
            continue
        head.append(piece[:cut])
        yield "".join(head)
        head = [piece[cut:]]
    rest = "".join(head)
    if rest:
        yield rest


def parse_m2(text: str | Iterable[str]) -> list[AnnotatedSample]:
    """Parse an M2 file into one AnnotatedSample per ``S`` block.

    ``text`` is the whole file, or its text in pieces cut anywhere (as
    ``cli._read_blocks`` yields them); a ``str`` is cut into pieces of
    ``_PIECE_CHARS``. One run of whole lines is split at a time, with line
    numbers running on across runs, so no list of every line is built and
    pieces read from a file never hold its whole text. Each run picks its
    tokenizer once; the tokens are the same either way.

    Each distinct span, annotator and replacement field is parsed once per
    call; the checks that depend on the sentence or the line run on every
    line. Each edit is compared with the previous edit of its annotator as
    it is read. A block whose edits are all in order and disjoint is built
    directly, in id order, holding ``_CheckedEdits``; any other block is
    sorted and checked by ``AnnotatedSample``, which names the overlap.
    Errors come in file order: an error raised while reading the pieces is
    raised only after the lines before it were parsed.
    """
    samples: list[AnnotatedSample] = []
    source: TokenSeq | None = None
    block_line = 0
    edits: dict[int, list[Edit]] = {}
    noop_ids: set[int] = set()
    in_order = True
    pieces = text
    if isinstance(text, str):
        pieces = (text[i : i + _PIECE_CHARS] for i in range(0, len(text), _PIECE_CHARS))
    # raw field -> parsed value, kept only for fields that parsed cleanly;
    # local to the call, so nothing parsed outlives the text it came from
    spans: dict[str, tuple[int, int]] = {}
    annotators: dict[str, int] = {}
    replacements: dict[str, TokenSeq] = {_NONE_FIELD: ()}

    def flush():
        nonlocal source, edits, noop_ids, in_order
        if source is None:
            return
        for aid in noop_ids:
            if edits.get(aid):
                raise ParseError(
                    f"annotator {aid} has both a noop record and edits", block_line
                )
            edits.setdefault(aid, [])
        if in_order:
            # every edit was bounds- and order-checked as it was read
            sample = object.__new__(AnnotatedSample)
            object.__setattr__(sample, "source", source)
            object.__setattr__(
                sample,
                "annotations",
                {aid: _CheckedEdits(edits[aid]) if edits[aid] else () for aid in sorted(edits)},
            )
            samples.append(sample)
        else:
            try:
                samples.append(
                    AnnotatedSample(source, {aid: tuple(es) for aid, es in edits.items()})
                )
            except (BoundsError, OverlapError) as exc:
                raise ParseError(str(exc), block_line) from exc
        source, edits, noop_ids, in_order = None, {}, set(), True

    lineno = 0
    for run in _whole_lines(pieces):
        split = (lambda s: tuple(s.split())) if _splits_plainly(run) else tokenize
        # every run holds at least one line, so lineno ends on its last
        for lineno, line in enumerate(split_lines(run), lineno + 1):
            if line.startswith("A ") and source is not None:
                # fields[0] keeps the "A " prefix
                fields = line.split("|||")
                if len(fields) != 6:
                    raise ParseError(f"expected 6 '|||' fields, got {len(fields)}", lineno)
                span = spans.get(fields[0])
                if span is None:
                    parts = fields[0][2:].split()
                    if len(parts) != 2:
                        raise ParseError(f"bad span field {fields[0][2:]!r}", lineno)
                    try:
                        span = spans[fields[0]] = _decimal(parts[0]), _decimal(parts[1])
                    except ValueError as exc:
                        raise ParseError(str(exc), lineno) from exc
                start, end = span
                annotator = annotators.get(fields[5])
                if annotator is None:
                    try:
                        annotator = _decimal(fields[5])
                    except ValueError as exc:
                        raise ParseError(str(exc), lineno) from exc
                    if annotator < 0:
                        raise ParseError(f"negative annotator id {annotator}", lineno)
                    annotators[fields[5]] = annotator
                type_label = fields[1]
                if type_label == NOOP_TYPE:
                    if (start, end) != (-1, -1):
                        raise ParseError("noop record must use span -1 -1", lineno)
                    noop_ids.add(annotator)
                    continue
                if start == -1 or end == -1:
                    raise ParseError("span -1 -1 is reserved for noop records", lineno)
                if not 0 <= start <= end <= len(source):
                    raise ParseError(
                        f"edit [{start}, {end}) outside source of length {len(source)}", lineno
                    )
                # a literally empty replacement field is tolerated as a deletion
                replacement = replacements.get(fields[2])
                if replacement is None:
                    replacement = replacements[fields[2]] = split(fields[2])
                if start == end and not replacement:
                    raise ParseError("insertion with empty replacement", lineno)
                # every field is checked above, so Edit.__post_init__ is not run
                edit = object.__new__(Edit)
                _set_start(edit, start)
                _set_end(edit, end)
                _set_replacement(edit, replacement)
                _set_type_label(edit, type_label)
                previous = edits.get(annotator)
                if previous is None:
                    edits[annotator] = [edit]
                    continue
                # the pair test of check_edits: out of order, overlapping, or
                # two insertions at one point
                last = previous[-1]
                if last.end > start or last.start == end:
                    in_order = False
                previous.append(edit)
            elif not line or line.isspace():
                flush()
            elif line.startswith("S ") or line == "S":
                if source is not None:
                    raise ParseError("second 'S' line inside one record", lineno)
                source = split(line[2:])
                block_line = lineno
                if not source:
                    raise ParseError("empty source sentence", lineno)
            elif not line.startswith("A "):
                raise ParseError(f"unrecognized line: {line[:40]!r}", lineno)
            else:
                raise ParseError("'A' line before any 'S' line", lineno)
    flush()
    return samples


def emit_m2(samples: Iterable[AnnotatedSample]) -> str:
    """Serialize samples canonically: annotators ascending, edits sorted.

    Whatever would read back differently raises DataError naming the first
    culprit: an empty source; a token that is empty or holds ASCII whitespace,
    or (in a replacement) ``|||``; a replacement ending in ``|`` or a lone
    ``-NONE-``; a label ``noop``, ending in ``|`` or holding ``|||``, LF or
    CR (a file reader, as ``cli._read_blocks``, reads a lone CR as LF); or a
    negative annotator key. ``parse_m2`` splits an ``A`` line at ``|||``
    from the left, so a field ending in ``|`` moves the separator.
    """
    blocks: list[str] = []
    for number, sample in enumerate(samples, 1):
        source = " ".join(sample.source)
        if not source or tokenize(source) != sample.source:
            bad = next((t for t in sample.source if tokenize(t) != (t,)), "")
            raise DataError(f"sample {number}: cannot write {bad!r} to M2")
        lines = ["S " + source]
        for aid, annots in sample.annotations.items():
            if aid < 0:
                raise DataError(f"sample {number}: cannot write annotator {aid} to M2")
            if not annots:
                lines.append(_A_LINE(-1, -1, NOOP_TYPE, _NONE_FIELD, aid))
            for e in annots:
                repl, label = " ".join(e.replacement), e.type_label
                # the first bad token, else the last token, else the label
                bad = next(
                    filter(_UNHOLDABLE, e.replacement),
                    e.replacement[-1] if repl.endswith("|") or repl == _NONE_FIELD
                    else label if "|||" in label or label.endswith("|") or "\n" in label
                    or "\r" in label or label == NOOP_TYPE
                    else None,
                )
                if bad is not None:
                    raise DataError(f"sample {number}: cannot write {bad!r} to M2")
                lines.append(_A_LINE(e.start, e.end, label, repl or _NONE_FIELD, aid))
        blocks.append("\n".join(lines))
    return "".join(block + "\n\n" for block in blocks)


def split_lines(text: str) -> list[str]:
    """Lines split at ``\n`` only, without trailing ``\r``; a final ``\n`` ends a line.

    ``\f``, ``\x1c``, ``\x85``, ``\u2028`` and the other breaks of
    ``str.splitlines`` stay inside their line.
    """
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return [line.rstrip("\r") for line in lines] if "\r" in text else lines


def load_parallel(src_text: str, tgt_text: str) -> list[tuple[TokenSeq, TokenSeq]]:
    """Pair up the i-th source and target lines, tokenized."""
    src_lines = split_lines(src_text)
    tgt_lines = split_lines(tgt_text)
    if len(src_lines) != len(tgt_lines):
        raise LengthMismatchError(
            f"source has {len(src_lines)} lines, target has {len(tgt_lines)}"
        )
    pairs = []
    for i, (s, t) in enumerate(zip(src_lines, tgt_lines), 1):
        src = tokenize(s)
        if not src:
            raise EmptySourceError(f"source line {i} is empty")
        pairs.append((src, tokenize(t)))
    return pairs


def drop_unchanged_references(sample: AnnotatedSample) -> AnnotatedSample | None:
    """Remove annotators whose correction equals the source (no edits, or
    only no-op edits).

    Returns None when no annotator remains; callers decide how to handle
    such samples.
    """
    source = sample.source
    kept = {a: es for a, es in sample.annotations.items() if sample.reference(a) != source}
    if not kept:
        return None
    return AnnotatedSample(source, kept)
