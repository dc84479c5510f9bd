"""Command-line interface: extract, evaluate, chunks, stats, correlate.

Exit codes: 0 success, 2 usage error, 3 data error. Diagnostics go to
stderr, data to stdout (or to the file given with -o).
"""

import argparse
import codecs
import gc
import json
import sys
from collections.abc import Iterator
from dataclasses import replace
from pathlib import Path

from . import __version__
from .align import extract_edits
from .analysis import (
    boundary_stats,
    correlate,
    corpus_stats,
    load_human_table,
    load_metric_scores,
)
from .chunker import ChunkedSample, chunk_table, partition
from .corpus import (
    AnnotatedSample,
    drop_unchanged_references,
    emit_m2,
    load_parallel,
    parse_m2,
    split_lines,
    tokenize,
)
from .errors import DataError, LengthMismatchError, NoChunksError
from .scoring import (
    FN_FP_ONLY,
    FN_MODES,
    REPORT_COLUMNS,
    VARIANTS,
    check_weight_field,
    compute_ell,
    default_config,
    run_variant,
    unweighted,
)

# The WeightConfig fields that evaluate's flags override, with their help.
_WEIGHT_FLAGS = {
    **{f"alpha_{o}": f"{o.upper()} scale factor override" for o in ("tp", "fp", "fn")},
    **{f"clip_{o}": f"{o.upper()} weight clip bounds override" for o in ("tp", "fp", "fn")},
    "ell": "average chunk length (default: computed)",
    "beta": "F-score beta (default: 0.5)",
}


def _weight_type(name: str):
    """Argparse type for WeightConfig field ``name``: a number, or MIN,MAX for a clip."""
    pair = name.startswith("clip_")

    def parse(text: str):
        try:
            value = tuple(map(float, text.split(","))) if pair else float(text)
            if pair and len(value) != 2:
                raise ValueError("expected MIN,MAX")
            check_weight_field(name, value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{exc}; got {text!r}") from exc
        return value

    return parse


def _system_name(text: str) -> str:
    """Argparse type for a report's system name: one non-empty TSV cell, not a comment.

    Score tables strip every cell, so a padded name would match no row.
    """
    if not text or any(c in text for c in "\t\r\n") or text[0] == "#" or text != text.strip():
        raise argparse.ArgumentTypeError(
            f"expected a non-empty name with no tab, CR or LF, no leading '#' "
            f"and no surrounding whitespace, got {text!r}"
        )
    return text


def _hypothesis_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("hyp", help="hypothesis file (plain text or M2)")
    p.add_argument("ref", help="reference M2 file")
    p.add_argument(
        "--hyp-format",
        choices=("text", "m2"),
        default="text",
        help="hypothesis file format (default: text, one sentence per line)",
    )


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="chunkeval",
        description=(
            "Chunk-level multi-reference evaluation of grammatical error "
            "correction systems."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    def command(name, summary, formats=(), drop_unchanged=False):
        """A subcommand's parser with the flags every subcommand has."""
        p = commands[name] = sub.add_parser(name, help=summary)
        p.add_argument(
            "--config",
            metavar="FILE",
            help="key=value file mirroring this command's flags; explicit flags win",
        )
        p.add_argument("-o", "--out", metavar="FILE", help="write output here")
        if formats:
            p.add_argument(
                "--format",
                choices=formats,
                default=formats[0],
                help=f"output format (default: {formats[0]})",
            )
        if drop_unchanged:
            p.add_argument(
                "--drop-unchanged-refs",
                action="store_true",
                help="drop annotators whose correction equals the source",
            )
        return p

    p = command("extract", "extract edits from parallel text into an M2 file")
    p.add_argument("src", help="source sentences, one per line")
    p.add_argument("tgt", help="corrected sentences, one per line")

    p = command(
        "evaluate",
        "score a hypothesis file against a reference M2 file",
        ("tsv", "json"),
        drop_unchanged=True,
    )
    _hypothesis_args(p)
    p.add_argument(
        "--system",
        type=_system_name,
        help="system name for the report (default: hyp stem)",
    )
    p.add_argument(
        "--variant",
        action="append",
        choices=VARIANTS,
        help="scorer variant (repeatable; default: dep)",
    )
    for name, summary in _WEIGHT_FLAGS.items():
        p.add_argument(
            "--" + name.replace("_", "-"),
            type=_weight_type(name),
            metavar="MIN,MAX" if name.startswith("clip_") else None,
            help=summary,
        )
    p.add_argument(
        "--fn-on-mismatch",
        choices=FN_MODES,
        default=FN_FP_ONLY,
        help="count a changed-but-wrong chunk as FP only (default) or as FP and FN",
    )

    p = command(
        "chunks",
        "dump the chunk partition tables",
        ("tsv", "text"),
        drop_unchanged=True,
    )
    _hypothesis_args(p)
    p.add_argument(
        "--only-changed", action="store_true", help="emit changed columns only"
    )

    p = command(
        "stats",
        "boundary statistics of a multi-annotator M2 file",
        ("tsv", "json"),
        drop_unchanged=True,
    )
    p.add_argument("ref", help="reference M2 file with >= 2 annotators per sentence")
    p.add_argument(
        "--per-pass-mean",
        action="store_true",
        help="average ratios per hold-out pass instead of pooling",
    )

    p = command(
        "correlate",
        "correlate a metric score report with a human score table",
        ("tsv", "json"),
    )
    p.add_argument("scores", help="metric score report (or system<TAB>score TSV)")
    p.add_argument("human", help="human table: TSV with header system<TAB>score")
    p.add_argument(
        "--variant",
        choices=VARIANTS,
        help="the report variant to correlate (needed if it holds several)",
    )
    return parser, commands


# --- config file -----------------------------------------------------------

_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def _config_value(action: argparse.Action, value: str):
    """Parse a config value as its flag would be: type, choices, on/off."""
    if action.nargs == 0:  # a store_true flag
        word = value.lower()
        if word not in _TRUE + _FALSE:
            raise argparse.ArgumentTypeError(
                f"{action.dest}: expected one of "
                f"{'/'.join(_TRUE + _FALSE)}, got {value!r}"
            )
        return word in _TRUE
    many = isinstance(action, argparse._AppendAction)
    items = [v.strip() for v in value.split(",") if v.strip()] if many else [value]
    parsed = [action.type(v) if action.type else v for v in items]
    for v in parsed:
        if action.choices is not None and v not in action.choices:
            raise argparse.ArgumentTypeError(
                f"{action.dest}: invalid choice {v!r} "
                f"(choose from {', '.join(map(repr, action.choices))})"
            )
    return parsed if many else parsed[0]


def _load_config_file(path: str, parser: argparse.ArgumentParser) -> dict:
    """Values of the ``key=value`` lines, each checked by the flag it mirrors."""
    actions = {
        a.dest: a
        for a in parser._actions
        if a.option_strings and a.dest not in ("help", "config")
    }
    values: dict = {}
    for lineno, raw in enumerate(split_lines(_read(path)), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in actions:
            raise DataError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _config_value(actions[key], value.strip())
        except argparse.ArgumentTypeError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
    return values


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser, commands = build_parser()
    # The first parse finds --config (and any usage error); its values
    # become defaults, which explicit flags override in the second parse.
    # Defaults must land on the subcommand's parser: subparsers parse into
    # a fresh namespace, so defaults set on the top-level parser would be
    # shadowed.
    probe = args = parser.parse_args(argv)
    if probe.config:
        config = _load_config_file(probe.config, commands[probe.command])
        # an appending flag would add to a default list, not replace it
        lists = [key for key, value in config.items() if isinstance(value, list)]
        appended = {key: config.pop(key) for key in lists}
        commands[probe.command].set_defaults(**config)
        args = parser.parse_args(argv)
        for key, values in appended.items():
            if getattr(args, key) is None and values:
                setattr(args, key, values)
    if args.command == "evaluate" and args.system is None:
        try:  # the default name, the hypothesis file's stem, is checked the same way
            args.system = _system_name(Path(args.hyp).stem)
        except argparse.ArgumentTypeError as exc:
            commands["evaluate"].error(f"hypothesis file stem: {exc}; name the system with --system")
    return args


# --- helpers ---------------------------------------------------------------


# bytes read from an input file at a time
_BLOCK_BYTES = 1 << 16


def _read_blocks(path: str) -> Iterator[str]:
    """The UTF-8 text of ``path``, one block of ``_BLOCK_BYTES`` at a time.

    Newlines are translated as ``Path.read_text`` does (``\r\n`` and a lone
    ``\r`` become ``\n``), and one leading U+FEFF is dropped, as by
    ``utf-8-sig``. A character or a ``\r`` at a block's end is decoded
    with the next block. A byte that is not UTF-8 raises DataError naming the
    reason and its offset from the start of the file, BOM included, after
    the text before it has been yielded.
    """
    with open(path, "rb") as file:
        undecoded, offset, error = b"", 0, None
        while True:
            block = file.read(_BLOCK_BYTES)
            final = not block
            data = undecoded + block
            try:
                text, used = codecs.utf_8_decode(data, "strict", final)
            except UnicodeDecodeError as exc:
                text, used, error, final = data[: exc.start].decode(), exc.start, exc, True
            if not final and text[-1:] == "\r":  # left undecoded: it may start a \r\n
                text, used = text[:-1], used - 1
            if not offset and text[:1] == "\ufeff":
                text = text[1:]
            offset += used
            undecoded = data[used:]
            if "\r" in text:
                text = text.replace("\r\n", "\n").replace("\r", "\n")
            if text:
                yield text
            if error is not None:
                raise DataError(
                    f"{path}: not UTF-8 text ({error.reason} at byte {offset})"
                ) from error
            if final:
                return


def _read(path: str) -> str:
    """The whole text of ``path``, as ``_read_blocks`` reads it."""
    return "".join(_read_blocks(path))


def _write_out(args: argparse.Namespace, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _warn(message: str) -> None:
    print(f"chunkeval: {message}", file=sys.stderr)


def _load_hypotheses(args, samples: list[AnnotatedSample]) -> list:
    """Per-sample hypothesis edits, from plain text or an M2 file."""
    if args.hyp_format == "m2":
        hyp_samples = parse_m2(_read_blocks(args.hyp))
        if len(hyp_samples) != len(samples):
            raise LengthMismatchError(
                f"hypothesis M2 has {len(hyp_samples)} samples, "
                f"references have {len(samples)}"
            )
        edits, several = [], []
        for i, (h, r) in enumerate(zip(hyp_samples, samples), 1):
            if h.source != r.source:
                raise DataError(f"sample {i}: hypothesis and reference sources differ")
            ids = h.annotator_ids
            if len(ids) > 1:
                several.append(f"sample {i} uses annotator {ids[0]}")
            edits.append(h.annotations[ids[0]] if ids else ())
        if several:
            _warn(
                f"hypothesis M2 has several annotators in {len(several)} sample(s); "
                f"each uses its lowest annotator id, as {several[0]}"
            )
        return edits
    lines = split_lines(_read(args.hyp))
    if len(lines) != len(samples):
        raise LengthMismatchError(
            f"hypothesis has {len(lines)} lines, references have {len(samples)} samples"
        )
    return [
        extract_edits(sample.source, tokenize(line))
        for sample, line in zip(samples, lines)
    ]


def _kept_samples(
    args, samples: list[AnnotatedSample], min_annotators: int
) -> dict[int, AnnotatedSample]:
    """Samples by index, which ``evaluate``, ``chunks`` and ``stats`` read.

    Under ``--drop-unchanged-refs`` each sample loses its unchanged
    annotators, and one left with fewer than ``min_annotators`` is skipped.
    Raises DataError when no sample is left.
    """
    kept = dict(enumerate(samples))
    if args.drop_unchanged_refs:
        kept = {}
        for i, sample in enumerate(samples):
            filtered = drop_unchanged_references(sample)
            if filtered is not None and len(filtered.annotator_ids) >= min_annotators:
                kept[i] = filtered
        skipped = len(samples) - len(kept)
        if skipped:
            _warn(
                f"--drop-unchanged-refs skipped {skipped} sample(s); each needs at "
                f"least {min_annotators} annotator(s) that change the source"
            )
    if not kept:
        raise DataError(f"no samples left to {args.command}")
    return kept


def _load_chunked(args) -> list[ChunkedSample]:
    """Partitioned samples of the hypothesis against the references."""
    samples = parse_m2(_read_blocks(args.ref))
    hyp_edits = _load_hypotheses(args, samples)
    return [
        partition(
            sample.source,
            hyp_edits[i],
            [(aid, sample.annotations[aid]) for aid in sample.annotator_ids],
        )
        for i, sample in _kept_samples(args, samples, 1).items()
    ]


def _resolve_configs(args, chunked):
    """Per-variant weight configs with ell and flag overrides resolved."""
    variants = list(dict.fromkeys(args.variant or ["dep"]))
    meta = {
        "fn_on_mismatch": args.fn_on_mismatch,
        "dependent_selection": "best reference per sentence",
    }
    overrides = {n: getattr(args, n) for n in _WEIGHT_FLAGS if getattr(args, n) is not None}
    pinned = False
    if "ell" not in overrides:
        try:
            overrides["ell"] = compute_ell(chunked)
        except NoChunksError as exc:
            _warn(f"{exc}; falling back to unweighted counts")
            overrides["ell"], pinned = 1.0, True
    meta["ell"] = round(overrides["ell"], 4)
    configs = {}
    for variant in variants:
        cfg = replace(default_config(variant), **overrides)
        configs[variant] = unweighted(cfg) if pinned else cfg
    return configs, meta


def _format_report(rows: list[dict], meta: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"meta": meta, "rows": rows}, indent=2) + "\n"
    lines = [f"# {key}: {value}" for key, value in meta.items()]
    lines.append("\t".join(REPORT_COLUMNS))
    for row in rows:
        lines.append("\t".join(str(row[c]) for c in REPORT_COLUMNS))
    return "\n".join(lines) + "\n"


def _format_tables(tables: list[list[list[str]]], fmt: str) -> str:
    out = []
    for table in tables:
        if fmt == "tsv":
            out.append("\n".join("\t".join(row) for row in table))
        else:
            widths = [
                max(len(row[c]) for row in table) for c in range(len(table[0]))
            ]
            out.append(
                "\n".join(
                    "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                    for row in table
                )
            )
    return "\n\n".join(out) + "\n"


# --- commands --------------------------------------------------------------


def cmd_extract(args) -> int:
    pairs = load_parallel(_read(args.src), _read(args.tgt))
    samples = [AnnotatedSample(src, {0: extract_edits(src, tgt)}) for src, tgt in pairs]
    _write_out(args, emit_m2(samples))
    return 0


def cmd_evaluate(args) -> int:
    chunked = _load_chunked(args)
    configs, meta = _resolve_configs(args, chunked)
    scored: dict = {}  # a -acc variant reuses its twin's scoring pass
    rows = [
        run_variant(chunked, v, cfg, args.fn_on_mismatch, scored=scored).as_row(args.system)
        for v, cfg in configs.items()
    ]
    _write_out(args, _format_report(rows, meta, args.format))
    return 0


def cmd_chunks(args) -> int:
    tables = [chunk_table(cs, args.only_changed) for cs in _load_chunked(args)]
    _write_out(args, _format_tables(tables, args.format))
    return 0


def cmd_stats(args) -> int:
    samples = list(_kept_samples(args, parse_m2(_read_blocks(args.ref)), 2).values())
    stats = boundary_stats(samples, per_pass_mean=args.per_pass_mean)
    payload = {
        **corpus_stats(samples),
        "icc": stats.icc,
        "icc_count": stats.icc_count,
        "iuc": stats.iuc,
        "iuc_count": stats.iuc_count,
        "cc": stats.cc,
        "cc_count": stats.cc_count,
        "edits_held_out": stats.edits_total,
    }
    for key, value in payload.items():
        if isinstance(value, float):
            payload[key] = round(value, 4)
    if args.format == "json":
        _write_out(args, json.dumps(payload, indent=2) + "\n")
    else:
        lines = [f"{key}\t{value}" for key, value in payload.items()]
        _write_out(args, "\n".join(lines) + "\n")
    return 0


def cmd_correlate(args) -> int:
    metric = load_metric_scores(_read(args.scores), args.variant)
    human = load_human_table(_read(args.human))
    gamma, rho = correlate(metric, human)
    systems = sorted(metric)
    if args.format == "json":
        payload = {
            "pearson": round(gamma, 4),
            "spearman": round(rho, 4),
            "systems": [
                {"system": s, "metric": metric[s], "human": human.scores[s]}
                for s in systems
            ],
        }
        _write_out(args, json.dumps(payload, indent=2) + "\n")
    else:
        lines = [f"pearson\t{gamma:.4f}", f"spearman\t{rho:.4f}", ""]
        lines.append("system\tmetric\thuman")
        lines.extend(f"{s}\t{metric[s]}\t{human.scores[s]}" for s in systems)
        _write_out(args, "\n".join(lines) + "\n")
    return 0


_COMMANDS = {
    "extract": cmd_extract,
    "evaluate": cmd_evaluate,
    "chunks": cmd_chunks,
    "stats": cmd_stats,
    "correlate": cmd_correlate,
}


def main(argv: list[str] | None = None) -> int:
    """Run one command with the cyclic garbage collector paused.

    A command keeps what it reads until it returns, and its objects form no
    cycles beyond the parsers', so collecting during it would only walk
    them. The caller's collector state is restored on every exit.
    """
    argv = sys.argv[1:] if argv is None else argv
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = parse_args(argv)
        return _COMMANDS[args.command](args)
    except (DataError, OSError) as exc:
        _warn(str(exc))
        return 3
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
