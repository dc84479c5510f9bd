"""Block-wise input: ``cli._read_blocks`` and the M2 files parsed from it.

The reader is compared with ``Path.read_text`` and ``bytes.decode`` on
seeded bytes at tiny block sizes. An M2 file reports its first defect in
file order, a leading byte-order mark changes no command's output, and a
streamed parse peaks close to the size of what it returns.
"""

import gc
import random
import tracemalloc

import pytest
from test_cli import HYP_REF0, HYP_SOURCE, REF_M2, report_rows, run

from chunkeval import cli, parse_m2
from chunkeval.errors import DataError

BOM = "\ufeff".encode("utf-8")
GOOD_BYTES = [
    b"a", b"b c", b" ", b"\t", b"\n", b"\r", b"\r\n", b"\r\r\n", BOM,
    *(c.encode("utf-8") for c in "é今😀\x85 "),
]
# each is not UTF-8 on its own: a bad lead or lone continuation byte, a
# cut sequence, a surrogate, an overlong form, a code point past U+10FFFF
BAD_BYTES = [
    b"\xff", b"\x80", b"\xc3", b"\xe4\xbb", b"\xf0\x9f\x98", b"\xed\xa0\x80",
    b"\xc0\xaf", b"\xf4\x90\x80\x80",
]


def random_bytes(rng: random.Random) -> bytes:
    parts = [rng.choice(GOOD_BYTES) for _ in range(rng.randint(0, 40))]
    if rng.random() < 0.3:
        parts.insert(0, BOM)
    for _ in range(rng.choice([0, 0, 1, 1, 2])):
        parts.insert(rng.randint(0, len(parts)), rng.choice(BAD_BYTES))
    return b"".join(parts)


def read_pieces(path) -> tuple[list[str], str | None]:
    """What ``_read_blocks`` yields before it ends, and its error, if any."""
    pieces = []
    try:
        for piece in cli._read_blocks(str(path)):
            pieces.append(piece)
    except DataError as exc:
        return pieces, str(exc)
    return pieces, None


def without_bom(text: str) -> str:
    return text[1:] if text.startswith("\ufeff") else text


def test_read_blocks_matches_read_text_and_decode(tmp_path, monkeypatch):
    rng = random.Random(2024)
    path, prefix = tmp_path / "input", tmp_path / "prefix"
    seen = {"valid": 0, "bad in first block": 0, "bad in a later block": 0, "BOM": 0}
    for _ in range(2000):
        data = random_bytes(rng)
        block = rng.choice([1, 2, 3, 4, 5, 7, 1 << 16])
        monkeypatch.setattr(cli, "_BLOCK_BYTES", block)
        path.write_bytes(data)
        pieces, error = read_pieces(path)
        assert all(pieces)  # no empty piece is yielded
        seen["BOM"] += data.startswith(BOM)
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            assert error == f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
            # the text before the bad byte was yielded first
            prefix.write_bytes(data[: exc.start])
            assert "".join(pieces) == without_bom(prefix.read_text(encoding="utf-8"))
            seen["bad in first block" if exc.start < block else "bad in a later block"] += 1
        else:
            assert error is None
            assert "".join(pieces) == without_bom(path.read_text(encoding="utf-8"))
            assert cli._read(str(path)) == "".join(pieces)
            seen["valid"] += 1
    assert min(seen.values()) >= 100, seen


@pytest.mark.parametrize(
    "data, text",
    [
        (b"", ""),
        (BOM, ""),
        (BOM + BOM + b"a", "\ufeffa"),  # only one BOM is dropped
        (b"a" + BOM, "a\ufeff"),
        (b"a\rb\r\nc\r", "a\nb\nc\n"),
        (b"\r\r\n\n", "\n\n\n"),
    ],
)
def test_read_blocks_at_every_block_size(tmp_path, monkeypatch, data, text):
    path = tmp_path / "input"
    path.write_bytes(data)
    for block in range(1, len(data) + 2):
        monkeypatch.setattr(cli, "_BLOCK_BYTES", block)
        pieces, error = read_pieces(path)
        assert ("".join(pieces), error) == (text, None)


def test_a_bad_byte_is_counted_from_the_start_of_the_file(tmp_path, monkeypatch):
    path = tmp_path / "input"
    path.write_bytes(BOM + b"ab\r\ncd\xe9")
    for block in (1, 2, 4, 1 << 16):
        monkeypatch.setattr(cli, "_BLOCK_BYTES", block)
        assert read_pieces(path)[1] == (
            f"{path}: not UTF-8 text (unexpected end of data at byte 9)"
        )


RECORD = (
    "S a b\n"
    "A 0 1|||R|||x|||REQUIRED|||-NONE-|||0\n"
    "A 1 2|||R|||y|||REQUIRED|||-NONE-|||1\n\n"
)
STRAY = "X stray\n"
NOT_UTF8 = "S caf\xe9 b\n".encode("latin-1")  # the bad byte is at offset 5 of its line


class TestFirstDefectInFileOrder:
    """A parse error before the first bad byte is reported as that parse error."""

    @pytest.fixture(params=[1 << 16, 7], ids=["one block", "7-byte blocks"])
    def block(self, request, monkeypatch):
        monkeypatch.setattr(cli, "_BLOCK_BYTES", request.param)

    @pytest.mark.parametrize("role", ["ref", "hyp"])
    def test_parse_error_first(self, tmp_path, capsys, block, role):
        bad = (RECORD * 3 + STRAY).encode("utf-8") + NOT_UTF8 + RECORD.encode("utf-8")
        code, out, err = self.run_on(tmp_path, capsys, role, bad)
        assert (code, out) == (3, "")
        assert err == "chunkeval: line 13: unrecognized line: 'X stray'\n"

    @pytest.mark.parametrize("role", ["ref", "hyp"])
    def test_bad_byte_first(self, tmp_path, capsys, block, role):
        bad = (RECORD * 3).encode("utf-8") + NOT_UTF8 + (STRAY + RECORD).encode("utf-8")
        code, out, err = self.run_on(tmp_path, capsys, role, bad)
        offset = len((RECORD * 3).encode("utf-8")) + 5
        assert (code, out) == (3, "")
        assert err == (
            f"chunkeval: {tmp_path / 'bad.m2'}: not UTF-8 text "
            f"(invalid continuation byte at byte {offset})\n"
        )

    def test_a_line_holding_a_bad_byte_is_not_utf8(self, tmp_path, capsys, block):
        bad = (RECORD * 3).encode("utf-8") + b"X stray \xff\n"
        code, _, err = self.run_on(tmp_path, capsys, "ref", bad)
        assert code == 3 and "not UTF-8 text (invalid start byte" in err

    @staticmethod
    def run_on(tmp_path, capsys, role, bad: bytes):
        (tmp_path / "bad.m2").write_bytes(bad)
        (tmp_path / "good.m2").write_text(RECORD * 5, encoding="utf-8")
        if role == "ref":
            return run(capsys, ["stats", str(tmp_path / "bad.m2")])
        argv = ["evaluate", str(tmp_path / "bad.m2"), str(tmp_path / "good.m2")]
        return run(capsys, argv + ["--hyp-format", "m2"])


HYP_M2 = (
    "S the technologies were improved\n"
    "A 0 1|||DET|||-NONE-|||REQUIRED|||-NONE-|||0\n\n"
    "S it is good\n"
    "A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n\n"
)
BOM_FILES = {
    "ref.m2": REF_M2,
    "hyp.txt": HYP_REF0,
    "hyp.m2": HYP_M2,
    "src.txt": HYP_SOURCE,
    "tgt.txt": HYP_REF0,
    "run.cfg": "variant=dep,indep\nfn-on-mismatch=both\n",
    "scores.tsv": (
        "# ell: 2.0\nsystem\tF_beta\tvariant\ns1\t0.5\tdep\ns2\t0.25\tdep\ns3\t0.75\tdep\n"
    ),
    "human.tsv": "system\tscore\ns1\t1.0\ns2\t-2.5\ns3\t4\n",
}
BOM_CASES = [
    (["evaluate", "hyp.txt", "ref.m2", "--config", "run.cfg"], "hyp.txt"),
    (["evaluate", "hyp.txt", "ref.m2", "--config", "run.cfg"], "ref.m2"),
    (["evaluate", "hyp.txt", "ref.m2", "--config", "run.cfg"], "run.cfg"),
    (["evaluate", "hyp.m2", "ref.m2", "--hyp-format", "m2"], "hyp.m2"),
    (["chunks", "hyp.txt", "ref.m2"], "ref.m2"),
    (["stats", "ref.m2"], "ref.m2"),
    (["extract", "src.txt", "tgt.txt"], "src.txt"),
    (["extract", "src.txt", "tgt.txt"], "tgt.txt"),
    (["correlate", "scores.tsv", "human.tsv"], "scores.tsv"),
    (["correlate", "scores.tsv", "human.tsv"], "human.tsv"),
]


class TestByteOrderMark:
    """One leading U+FEFF is dropped from every input, so no output changes."""

    @pytest.mark.parametrize(
        "argv, marked", BOM_CASES, ids=[f"{a[0]}-{m}" for a, m in BOM_CASES]
    )
    def test_same_output_with_and_without_a_bom(self, tmp_path, capsys, argv, marked):
        outputs = []
        for name in ("plain", "marked"):
            d = tmp_path / name
            d.mkdir()
            for file, text in BOM_FILES.items():
                data = text.encode("utf-8")
                (d / file).write_bytes(BOM + data if name == "marked" and file == marked else data)
            paths = [str(d / a) if a in BOM_FILES else a for a in argv]
            code, out, err = run(capsys, paths)
            outputs.append((code, out, err.replace(str(d), "DIR")))
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0]

    def test_a_bom_before_a_hypothesis_line_leaves_its_first_token_alone(
        self, tmp_path, capsys
    ):
        (tmp_path / "ref.m2").write_text(
            "S a b c\nA 1 2|||R|||x|||REQUIRED|||-NONE-|||0\n", encoding="utf-8"
        )
        (tmp_path / "hyp.txt").write_bytes(BOM + b"a x c\n")
        argv = ["evaluate", str(tmp_path / "hyp.txt"), str(tmp_path / "ref.m2")]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert "# ell: 1.0\n" in out
        assert [(r["variant"], r["F_beta"]) for r in report_rows(out)] == [("dep", "1.0")]


def write_large_m2(path, sentences=1000, annotators=10, seed=5):
    """A seeded M2 file shaped like a ten-annotator reference set."""
    rng = random.Random(seed)
    lines = []
    for _ in range(sentences):
        n = rng.randint(8, 30)
        lines.append("S " + " ".join(f"w{rng.randrange(20000)}" for _ in range(n)))
        for aid in range(annotators):
            pos, edited = 0, False
            for start in sorted(rng.sample(range(n), rng.randint(0, 3))):
                if start < pos:
                    continue
                end = min(n, start + rng.randint(0, 2))
                size = rng.randint(1 if start == end else 0, 2)
                repl = " ".join(f"r{rng.randrange(5000)}" for _ in range(size)) or "-NONE-"
                lines.append(f"A {start} {end}|||R:NOUN|||{repl}|||REQUIRED|||-NONE-|||{aid}")
                pos, edited = end + 1, True
            if not edited:
                lines.append(f"A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||{aid}")
        lines.append("")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_a_streamed_parse_peaks_close_to_its_result(tmp_path):
    # the whole text and its line list, held at once, peaked at 1.78x
    path = tmp_path / "refs.m2"
    write_large_m2(path)
    gc.collect()
    tracemalloc.start()
    try:
        samples = parse_m2(cli._read_blocks(str(path)))
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(samples) == 1000
    assert sum(map(len, (s.annotations for s in samples))) == 10000
    assert live > path.stat().st_size  # the samples outweigh their text
    assert peak <= 1.3 * live, (peak, live)
