"""The M2 parser that ``parse_m2`` replaced, kept as the fuzz oracle.

It parses each span, annotator and replacement field on every line, strips
``\r`` from every line, and builds each block through the
``AnnotatedSample`` constructor (an in-order block as ``_CheckedEdits``).
The new parser must give equal samples, or the same ``ParseError`` message
and line, on any text.
"""

import re

from chunkeval.corpus import (
    NOOP_TYPE,
    _NONE_FIELD,
    AnnotatedSample,
    Edit,
    TokenSeq,
    _CheckedEdits,
    _set_end,
    _set_replacement,
    _set_start,
    _set_type_label,
    _splits_plainly,
    tokenize,
)
from chunkeval.errors import BoundsError, OverlapError, ParseError


def parse_m2(text: str) -> list[AnnotatedSample]:
    """Parse an M2 file into one AnnotatedSample per ``S`` block.

    Each edit is compared with the previous edit of its annotator as it is
    read. A block whose edits are all in order and disjoint reaches
    ``AnnotatedSample`` as ``_CheckedEdits``; any other block is sorted and
    checked there, which names the overlap.
    """
    samples: list[AnnotatedSample] = []
    source: TokenSeq | None = None
    block_line = 0
    edits: dict[int, list[Edit]] = {}
    noop_ids: set[int] = set()
    in_order = True
    split = (lambda s: tuple(s.split())) if _splits_plainly(text) else tokenize

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
        checked = _CheckedEdits if in_order else tuple
        annotations = {aid: checked(es) if es else () for aid, es in edits.items()}
        try:
            samples.append(AnnotatedSample(source, annotations))
        except (BoundsError, OverlapError) as exc:
            raise ParseError(str(exc), block_line) from exc
        source, edits, noop_ids, in_order = None, {}, set(), True

    for lineno, line in enumerate(split_lines(text), 1):
        if line.startswith("A ") and source is not None:
            fields = line[2:].split("|||")
            if len(fields) != 6:
                raise ParseError(f"expected 6 '|||' fields, got {len(fields)}", lineno)
            span = fields[0].split()
            if len(span) != 2:
                raise ParseError(f"bad span field {fields[0]!r}", lineno)
            try:
                start, end = decimal(span[0]), decimal(span[1])
                annotator = decimal(fields[5])
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from exc
            if annotator < 0:
                raise ParseError(f"negative annotator id {annotator}", lineno)
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
            replacement = () if fields[2] == _NONE_FIELD else split(fields[2])
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


def decimal(field: str) -> int:
    """``int(field)`` for an optional ``-`` and ASCII digits, with whitespace around.

    ``int`` alone also reads ``1_0``, ``+1`` and non-ASCII digits.
    """
    if not re.fullmatch(r"\s*-?[0-9]+\s*", field):
        raise ValueError(f"invalid literal for int() with base 10: {field!r:.200}")
    return int(field)


def split_lines(text: str) -> list[str]:
    """Lines split at ``\n`` only, without trailing ``\r``; a final ``\n`` ends a line.

    ``\f``, ``\x1c``, ``\x85``, ``\u2028`` and the other breaks of
    ``str.splitlines`` stay inside their line.
    """
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return [line.rstrip("\r") for line in lines]
