import argparse
import gc
import json
import random
import re
from collections import Counter

import pytest
from conftest import random_case

from chunkeval import (
    VARIANTS,
    AnnotatedSample,
    ChunkedSample,
    Edit,
    WeightConfig,
    apply_edits,
    emit_m2,
    extract_edits,
    load_human_table,
    load_metric_scores,
    parse_m2,
    run_variant,
    tokenize,
)
from chunkeval import cli, scoring
from chunkeval.cli import main
from chunkeval.scoring import REPORT_COLUMNS

REF_M2 = """S the technologies were improved
A 0 1|||DET|||-NONE-|||REQUIRED|||-NONE-|||0
A 2 3|||VERB|||have|||REQUIRED|||-NONE-|||0
A 0 1|||DET|||-NONE-|||REQUIRED|||-NONE-|||1
A 1 2|||NOUN|||technology|||REQUIRED|||-NONE-|||1
A 2 3|||VERB|||has|||REQUIRED|||-NONE-|||1

S it is good
A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0
A 0 1|||PRON|||It|||REQUIRED|||-NONE-|||1
"""

HYP_REF0 = "technologies have improved\nit is good\n"
HYP_SOURCE = "the technologies were improved\nit is good\n"


@pytest.fixture
def data(tmp_path):
    ref = tmp_path / "ref.m2"
    ref.write_text(REF_M2, encoding="utf-8")
    hyp0 = tmp_path / "ref0-as-hyp.txt"
    hyp0.write_text(HYP_REF0, encoding="utf-8")
    hyp_src = tmp_path / "source-as-hyp.txt"
    hyp_src.write_text(HYP_SOURCE, encoding="utf-8")
    return tmp_path


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_rows(out):
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


class TestExtract:
    def test_identical_lines_give_noop(self, tmp_path, capsys):
        (tmp_path / "src.txt").write_text("a b\n", encoding="utf-8")
        (tmp_path / "tgt.txt").write_text("a b\n", encoding="utf-8")
        code, out, _ = run(
            capsys, ["extract", str(tmp_path / "src.txt"), str(tmp_path / "tgt.txt")]
        )
        assert code == 0
        assert out == "S a b\nA -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n\n"

    def test_two_edit_block(self, tmp_path, capsys):
        (tmp_path / "src.txt").write_text("the technologies were\n", encoding="utf-8")
        (tmp_path / "tgt.txt").write_text("technologies have\n", encoding="utf-8")
        code, out, _ = run(
            capsys, ["extract", str(tmp_path / "src.txt"), str(tmp_path / "tgt.txt")]
        )
        assert code == 0
        assert out == (
            "S the technologies were\n"
            "A 0 1|||UNK|||-NONE-|||REQUIRED|||-NONE-|||0\n"
            "A 2 3|||UNK|||have|||REQUIRED|||-NONE-|||0\n\n"
        )

    @pytest.mark.parametrize("char", ["\x0c", "\x1c", "\x85", "\u2028"])
    def test_lines_break_at_newline_only(self, tmp_path, capsys, char):
        (tmp_path / "src.txt").write_text(f"a b c{char}d\n", encoding="utf-8")
        (tmp_path / "tgt.txt").write_text(f"a x c{char}d\n", encoding="utf-8")
        code, out, _ = run(
            capsys, ["extract", str(tmp_path / "src.txt"), str(tmp_path / "tgt.txt")]
        )
        assert code == 0
        (sample,) = parse_m2(out)
        assert sample.source == tokenize(f"a b c{char}d")
        assert [(e.start, e.end, e.replacement) for e in sample.annotations[0]] == [
            (1, 2, ("x",))
        ]

    @pytest.mark.parametrize("token", ["-NONE-", "x|||q", "b|"])
    def test_target_token_m2_cannot_hold_is_data_error(self, tmp_path, capsys, token):
        (tmp_path / "src.txt").write_text("a b\nc d\n", encoding="utf-8")
        (tmp_path / "tgt.txt").write_text(f"a b\n{token} d\n", encoding="utf-8")
        out_path = tmp_path / "out.m2"
        code, out, err = run(
            capsys,
            ["extract", str(tmp_path / "src.txt"), str(tmp_path / "tgt.txt"), "-o", str(out_path)],
        )
        assert (code, out) == (3, "")
        assert f"sample 2: cannot write {token!r} to M2" in err
        assert not out_path.exists()

    def test_round_trip_reproduces_targets(self, tmp_path, capsys):
        src = "the technologies were\nx y z\na\n"
        tgt = "technologies have\nx q z w\n\n"
        (tmp_path / "src.txt").write_text(src, encoding="utf-8")
        (tmp_path / "tgt.txt").write_text(tgt, encoding="utf-8")
        out_path = tmp_path / "out.m2"
        code = main(
            [
                "extract",
                str(tmp_path / "src.txt"),
                str(tmp_path / "tgt.txt"),
                "-o",
                str(out_path),
            ]
        )
        assert code == 0
        samples = parse_m2(out_path.read_text(encoding="utf-8"))
        rebuilt = [
            " ".join(apply_edits(s.source, s.annotations[0])) for s in samples
        ]
        assert rebuilt == [" ".join(tokenize(line)) for line in tgt.splitlines()]


class TestEvaluate:
    def test_hypothesis_equal_to_annotator_zero(self, data, capsys):
        code, out, _ = run(
            capsys,
            [
                "evaluate",
                str(data / "ref0-as-hyp.txt"),
                str(data / "ref.m2"),
                "--variant",
                "dep",
                "--variant",
                "indep",
            ],
        )
        assert code == 0
        rows = report_rows(out)
        assert [r["variant"] for r in rows] == ["dep", "indep"]
        assert all(float(r["F_beta"]) == 1.0 for r in rows)
        assert all(float(r["Acc"]) == 1.0 for r in rows)

    def test_do_nothing_hypothesis(self, data, capsys):
        code, out, _ = run(
            capsys,
            [
                "evaluate",
                str(data / "source-as-hyp.txt"),
                str(data / "ref.m2"),
                "--variant",
                "dep",
                "--variant",
                "sent-dep",
            ],
        )
        assert code == 0
        rows = {r["variant"]: r for r in report_rows(out)}
        assert int(rows["dep"]["tp_n"]) == 0
        assert float(rows["dep"]["F_beta"]) == 0.0
        assert float(rows["dep"]["P"]) == 1.0
        # error-free sentence scores 1 by convention, the other scores 0
        assert float(rows["sent-dep"]["F_beta"]) == 0.5

    def test_json_format_and_meta(self, data, capsys):
        code, out, _ = run(
            capsys,
            [
                "evaluate",
                str(data / "ref0-as-hyp.txt"),
                str(data / "ref.m2"),
                "--format",
                "json",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["fn_on_mismatch"] == "fp-only"
        assert payload["rows"][0]["variant"] == "dep"

    def test_hypothesis_m2_input(self, data, tmp_path, capsys):
        (tmp_path / "src.txt").write_text(
            "the technologies were improved\nit is good\n", encoding="utf-8"
        )
        hyp_m2 = tmp_path / "hyp.m2"
        code = main(
            [
                "extract",
                str(tmp_path / "src.txt"),
                str(data / "ref0-as-hyp.txt"),
                "-o",
                str(hyp_m2),
            ]
        )
        assert code == 0
        capsys.readouterr()
        code, out, _ = run(
            capsys,
            [
                "evaluate",
                str(hyp_m2),
                str(data / "ref.m2"),
                "--hyp-format",
                "m2",
            ],
        )
        assert code == 0
        assert float(report_rows(out)[0]["F_beta"]) == 1.0

    def test_multi_annotator_hypothesis_m2_uses_lowest_id(self, data, tmp_path, capsys):
        hyp_m2 = tmp_path / "hyp.m2"
        hyp_m2.write_text(
            "S the technologies were improved\n"
            "A 0 1|||DET|||-NONE-|||REQUIRED|||-NONE-|||0\n"
            "A 2 3|||VERB|||have|||REQUIRED|||-NONE-|||0\n"
            "A 0 4|||X|||nonsense|||REQUIRED|||-NONE-|||1\n"
            "\n"
            "S it is good\n"
            "A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n",
            encoding="utf-8",
        )
        code, out, err = run(
            capsys,
            ["evaluate", str(hyp_m2), str(data / "ref.m2"), "--hyp-format", "m2"],
        )
        assert code == 0
        assert "annotator 0" in err
        assert float(report_rows(out)[0]["F_beta"]) == 1.0

    def test_multi_annotator_hypothesis_m2_warns_once(self, data, tmp_path, capsys):
        block = "S it is good\n" + "".join(
            f"A 0 1|||PRON|||It|||REQUIRED|||-NONE-|||{aid}\n" for aid in (3, 1)
        )
        refs = tmp_path / "refs.m2"
        refs.write_text(
            "S it is good\nA 0 1|||PRON|||It|||REQUIRED|||-NONE-|||0\n\n" * 3, encoding="utf-8"
        )
        hyp_m2 = tmp_path / "hyp.m2"
        hyp_m2.write_text(f"{block}\n{block}\nS it is good\n", encoding="utf-8")
        code, _, err = run(
            capsys, ["evaluate", str(hyp_m2), str(refs), "--hyp-format", "m2"]
        )
        assert code == 0
        assert err.splitlines() == [
            "chunkeval: hypothesis M2 has several annotators in 2 sample(s); "
            "each uses its lowest annotator id, as sample 1 uses annotator 1"
        ]

    def test_hypothesis_m2_source_mismatch_is_data_error(self, data, tmp_path, capsys):
        hyp_m2 = tmp_path / "hyp.m2"
        hyp_m2.write_text(
            "S completely different sentence here\n"
            "A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n"
            "\n"
            "S it is good\n"
            "A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n",
            encoding="utf-8",
        )
        code, _, err = run(
            capsys,
            ["evaluate", str(hyp_m2), str(data / "ref.m2"), "--hyp-format", "m2"],
        )
        assert code == 3
        assert "sources differ" in err

    def test_line_count_mismatch_is_data_error(self, data, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("only one line\n", encoding="utf-8")
        code, _, err = run(capsys, ["evaluate", str(bad), str(data / "ref.m2")])
        assert code == 3
        assert "line" in err

    def test_seventh_m2_field_is_data_error_naming_the_line(self, data, tmp_path, capsys):
        ref = tmp_path / "seven.m2"
        line = "A 2 3|||VERB|||have|||REQUIRED|||-NONE-|||0"
        ref.write_text(REF_M2.replace(line, line + "|||junk"), encoding="utf-8")
        code, out, err = run(capsys, ["evaluate", str(data / "ref0-as-hyp.txt"), str(ref)])
        assert (code, out) == (3, "")
        assert err == "chunkeval: line 3: expected 6 '|||' fields, got 7\n"

    def test_missing_file_is_data_error(self, data, capsys):
        code, _, err = run(
            capsys, ["evaluate", "no-such or other.txt", str(data / "ref.m2")]
        )
        assert code == 3

    def test_usage_error_exits_2(self, data):
        with pytest.raises(SystemExit) as err:
            main(["evaluate", str(data / "ref0-as-hyp.txt")])
        assert err.value.code == 2

    def test_unknown_variant_exits_2(self, data):
        with pytest.raises(SystemExit) as err:
            main(
                [
                    "evaluate",
                    str(data / "ref0-as-hyp.txt"),
                    str(data / "ref.m2"),
                    "--variant",
                    "bogus",
                ]
            )
        assert err.value.code == 2

    def test_ell_override_appears_in_meta(self, data, capsys):
        code, out, _ = run(
            capsys,
            [
                "evaluate",
                str(data / "ref0-as-hyp.txt"),
                str(data / "ref.m2"),
                "--ell",
                "3.5",
            ],
        )
        assert code == 0
        assert "# ell: 3.5" in out

    def test_config_file_flags_win(self, data, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ell=9.0\nvariant=dep,indep\n", encoding="utf-8")
        code, out, _ = run(
            capsys,
            [
                "evaluate",
                str(data / "ref0-as-hyp.txt"),
                str(data / "ref.m2"),
                "--config",
                str(cfg),
                "--ell",
                "3.0",
            ],
        )
        assert code == 0
        assert "# ell: 3.0" in out
        assert [r["variant"] for r in report_rows(out)] == ["dep", "indep"]

    def test_config_file_alone_sets_values(self, data, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ell=9.0\nfn-on-mismatch=both\n", encoding="utf-8")
        code, out, _ = run(
            capsys,
            [
                "evaluate",
                str(data / "ref0-as-hyp.txt"),
                str(data / "ref.m2"),
                "--config",
                str(cfg),
            ],
        )
        assert code == 0
        assert "# ell: 9.0" in out
        assert "# fn_on_mismatch: both" in out

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--alpha-tp", "1"),
            ("--alpha-fn", "0.5"),
            ("--alpha-fp", "inf"),
            ("--alpha-tp", "nan"),
            ("--beta", "0"),
            ("--beta", "nan"),
            ("--ell", "-1"),
            ("--ell", "inf"),
            ("--ell", "x"),
            ("--clip-tp", "inf,inf"),
            ("--clip-fn", "0.5,inf"),
            ("--beta", "1e200"),
            ("--system", "x\ty"),
            ("--system", "#s1"),
            ("--system", ""),
        ],
    )
    def test_bad_weight_values_are_rejected_where_parsed(
        self, data, tmp_path, capsys, flag, value
    ):
        argv = ["evaluate", str(data / "ref0-as-hyp.txt"), str(data / "ref.m2")]
        with pytest.raises(SystemExit) as err:
            main(argv + [flag, value])
        assert err.value.code == 2
        assert flag in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag[2:]}={value}\n", encoding="utf-8")
        code, out, err_text = run(capsys, argv + ["--config", str(cfg)])
        assert code == 3
        assert out == ""
        assert f"{cfg}:1:" in err_text

    @pytest.mark.parametrize("name", ["a ", " a", "a\u00a0"])
    def test_padded_system_name_is_usage_error(self, data, tmp_path, capsys, name):
        # score tables strip their names, so correlate could match no row
        # named "a "; a --config value is stripped as it is read
        argv = ["evaluate", str(data / "ref0-as-hyp.txt"), str(data / "ref.m2")]
        with pytest.raises(SystemExit) as err:
            main(argv + ["--system", name])
        assert err.value.code == 2
        assert "--system" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"system={name}\n", encoding="utf-8")
        code, out, _ = run(capsys, argv + ["--config", str(cfg)])
        assert code == 0
        assert report_rows(out)[0]["system"] == "a"

    @pytest.mark.parametrize(
        "line, named",
        [
            ("fn-on-mismatch=bogus", "bogus"),
            ("format=xml", "xml"),
            ("variant=dep,bogus", "bogus"),
            ("drop-unchanged-refs=2", "'2'"),
            ("hyp=other.txt", "hyp"),
            ("config=other.cfg", "config"),
        ],
    )
    def test_bad_config_values_are_data_errors_with_line(
        self, data, tmp_path, capsys, line, named
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"drop-unchanged-refs=off\n{line}\n", encoding="utf-8")
        argv = ["evaluate", str(data / "ref0-as-hyp.txt"), str(data / "ref.m2")]
        code, out, err = run(capsys, argv + ["--config", str(cfg)])
        assert code == 3
        assert out == ""
        assert f"{cfg}:2:" in err and named in err

    def test_non_utf8_input_is_data_error_naming_the_file(self, data, tmp_path, capsys):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("caf\xe9 is good\nit is good\n".encode("latin-1"))
        code, out, err = run(capsys, ["evaluate", str(bad), str(data / "ref.m2")])
        assert code == 3
        assert out == ""
        assert str(bad) in err and "UTF-8" in err

    def test_config_file_unknown_key_is_data_error(self, data, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("elll=9.0\n", encoding="utf-8")
        code, _, err = run(
            capsys,
            [
                "evaluate",
                str(data / "ref0-as-hyp.txt"),
                str(data / "ref.m2"),
                "--config",
                str(cfg),
            ],
        )
        assert code == 3
        assert "elll" in err

    @pytest.mark.parametrize("char", ["\x0c", "\x1c", "\x85", "\u2028"])
    def test_hypothesis_lines_break_at_newline_only(self, tmp_path, capsys, char):
        ref = tmp_path / "ref.m2"
        ref.write_text(
            f"S a b c{char}d\nA 1 2|||R|||x|||REQUIRED|||-NONE-|||0\n",
            encoding="utf-8",
        )
        hyp = tmp_path / "hyp.txt"
        hyp.write_text(f"a x c{char}d\n", encoding="utf-8")
        code, out, err = run(capsys, ["evaluate", str(hyp), str(ref)])
        assert (code, err) == (0, "")
        (row,) = report_rows(out)
        assert (row["tp_n"], row["F_beta"]) == ("1", "1.0")

    def test_system_name_defaults_to_stem(self, data, capsys):
        _, out, _ = run(
            capsys, ["evaluate", str(data / "ref0-as-hyp.txt"), str(data / "ref.m2")]
        )
        assert report_rows(out)[0]["system"] == "ref0-as-hyp"

    def test_bad_default_system_name_is_usage_error(self, data, tmp_path, capsys):
        for stem in ("sys\tone", "#sys", "sys1 "):
            hyp = tmp_path / f"{stem}.txt"
            hyp.write_text(HYP_REF0, encoding="utf-8")
            argv = ["evaluate", str(hyp), str(data / "ref.m2")]
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2
            message = capsys.readouterr().err
            assert "hypothesis file stem" in message and "--system" in message
            code, out, _ = run(capsys, argv + ["--system", "sys-one"])
            assert code == 0
            assert report_rows(out)[0]["system"] == "sys-one"

    @pytest.mark.parametrize("char", ["\x0c", "\x1c", "\x85", "\u2028"])
    def test_config_lines_break_at_newline_only(self, data, tmp_path, capsys, char):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"system=sys{char}one\r\nvariant=indep\n", encoding="utf-8")
        code, out, err = run(
            capsys,
            ["evaluate", str(data / "ref0-as-hyp.txt"), str(data / "ref.m2"), "--config", str(cfg)],
        )
        assert (code, err) == (0, "")
        header, row = out.split("\n")[-3:-1]
        cells = dict(zip(header.split("\t"), row.split("\t")))
        assert (cells["system"], cells["variant"]) == (f"sys{char}one", "indep")

    def test_all_variants_run(self, data, capsys):
        argv = ["evaluate", str(data / "ref0-as-hyp.txt"), str(data / "ref.m2")]
        for variant in (
            "dep",
            "indep",
            "sent-dep",
            "sent-indep",
            "dep-acc",
            "indep-acc",
            "sent-dep-acc",
            "sent-indep-acc",
        ):
            argv += ["--variant", variant]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert len(report_rows(out)) == 8

    def test_edit_free_references_fall_back_to_raw_counts(self, tmp_path, capsys):
        ref = tmp_path / "noop.m2"
        ref.write_text(
            "S a b\nA -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n\n"
            "S c d\nA -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n\n",
            encoding="utf-8",
        )
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("a x\nc d\n", encoding="utf-8")
        code, out, err = run(capsys, ["evaluate", str(hyp), str(ref)])
        assert code == 0
        assert "unweighted" in err
        row = report_rows(out)[0]
        # pinned weights: weighted totals equal the raw tallies
        assert float(row["fp_w"]) == float(row["fp_n"]) == 1.0

    def test_drop_unchanged_refs(self, data, capsys):
        code, out, err = run(
            capsys,
            [
                "evaluate",
                str(data / "source-as-hyp.txt"),
                str(data / "ref.m2"),
                "--variant",
                "sent-dep",
                "--drop-unchanged-refs",
            ],
        )
        assert code == 0
        # the noop annotator of sentence 2 is gone, so the do-nothing
        # hypothesis no longer gets the free 1.0 on that sentence
        assert float(report_rows(out)[0]["F_beta"]) == 0.0


class TestChunks:
    def test_drop_unchanged_refs_drops_no_op_edits(self, tmp_path, capsys):
        # annotator 0 rewrites 'a' as 'a': its correction equals the source
        (tmp_path / "ref.m2").write_text(
            "S a b\n"
            "A 0 1|||R|||a|||REQUIRED|||-NONE-|||0\n"
            "A 1 2|||R|||c|||REQUIRED|||-NONE-|||1\n",
            encoding="utf-8",
        )
        (tmp_path / "hyp.txt").write_text("a b\n", encoding="utf-8")
        argv = ["chunks", str(tmp_path / "hyp.txt"), str(tmp_path / "ref.m2")]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert [line.split("\t")[0] for line in out.splitlines()] == [
            "sequence", "source", "hypothesis", "ref-0", "ref-1"
        ]
        code, out, _ = run(capsys, argv + ["--drop-unchanged-refs"])
        assert code == 0
        assert [line.split("\t")[0] for line in out.splitlines()] == [
            "sequence", "source", "hypothesis", "ref-1"
        ]

    def test_tsv_tables(self, data, capsys):
        code, out, _ = run(
            capsys, ["chunks", str(data / "ref0-as-hyp.txt"), str(data / "ref.m2")]
        )
        assert code == 0
        tables = [t.splitlines() for t in out.strip().split("\n\n")]
        assert len(tables) == 2
        header = tables[0][0].split("\t")
        assert header == ["sequence", "chunk-1 *", "chunk-2"]
        assert tables[0][1].split("\t") == [
            "source",
            "the technologies were",
            "improved",
        ]

    def test_only_changed(self, data, capsys):
        code, out, _ = run(
            capsys,
            [
                "chunks",
                str(data / "ref0-as-hyp.txt"),
                str(data / "ref.m2"),
                "--only-changed",
            ],
        )
        assert code == 0
        first = out.strip().split("\n\n")[0].splitlines()
        assert first[0].split("\t") == ["sequence", "chunk-1 *"]

    def test_case_study_sample_gives_seven_columns(self, tmp_path, capsys):
        from test_chunker import TOP_HYP, TOP_REF1, TOP_REF2, TOP_SRC

        from chunkeval import AnnotatedSample, Edit, emit_m2, extract_edits

        ann = {
            aid: tuple(
                Edit(e.start, e.end, e.replacement, "T")
                for e in extract_edits(TOP_SRC, ref)
            )
            for aid, ref in ((0, TOP_REF1), (1, TOP_REF2))
        }
        (tmp_path / "ref.m2").write_text(
            emit_m2([AnnotatedSample(TOP_SRC, ann)]), encoding="utf-8"
        )
        (tmp_path / "hyp.txt").write_text(" ".join(TOP_HYP) + "\n", encoding="utf-8")
        code, out, _ = run(
            capsys, ["chunks", str(tmp_path / "hyp.txt"), str(tmp_path / "ref.m2")]
        )
        assert code == 0
        header = out.splitlines()[0].split("\t")
        assert len(header) == 8  # label column + 7 chunk columns
        assert [h for h in header if h.endswith("*")] == [
            "chunk-2 *",
            "chunk-4 *",
            "chunk-6 *",
        ]

    def test_text_format_marks_changed_columns(self, data, capsys):
        code, out, _ = run(
            capsys,
            [
                "chunks",
                str(data / "ref0-as-hyp.txt"),
                str(data / "ref.m2"),
                "--format",
                "text",
            ],
        )
        assert code == 0
        assert "chunk-1 *" in out.splitlines()[0]


class TestStats:
    def test_boundary_counts(self, data, capsys):
        code, out, _ = run(capsys, ["stats", str(data / "ref.m2")])
        assert code == 0
        table = dict(line.split("\t") for line in out.strip().splitlines())
        assert table["icc_count"] == "4"
        assert table["iuc_count"] == "2"
        assert table["cc_count"] == "0"
        assert table["edits_held_out"] == "6"
        assert table["sentences"] == "2"
        assert table["references"] == "4"

    def test_json_format(self, data, capsys):
        code, out, _ = run(
            capsys, ["stats", str(data / "ref.m2"), "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["icc_count"] + payload["iuc_count"] + payload["cc_count"] == 6

    def test_single_annotator_is_data_error(self, tmp_path, capsys):
        single = tmp_path / "single.m2"
        single.write_text(
            "S a b\nA 0 1|||X|||c|||REQUIRED|||-NONE-|||0\n", encoding="utf-8"
        )
        code, _, err = run(capsys, ["stats", str(single)])
        assert code == 3
        assert "annotator" in err

    def test_single_annotator_names_the_sample_from_one(self, tmp_path, capsys):
        refs = tmp_path / "refs.m2"
        refs.write_text(
            REF_M2 + "\nS a b\nA 0 1|||X|||c|||REQUIRED|||-NONE-|||0\n", encoding="utf-8"
        )
        code, out, err = run(capsys, ["stats", str(refs)])
        assert (code, out) == (3, "")
        assert "sample 3 has 1 annotator(s)" in err

    def test_bad_config_value_is_data_error_with_line(self, data, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "drop-unchanged-refs=off\nper-pass-mean=maybe\n", encoding="utf-8"
        )
        argv = ["stats", str(data / "ref.m2"), "--config", str(cfg)]
        code, out, err = run(capsys, argv)
        assert code == 3
        assert out == ""
        assert f"{cfg}:2:" in err and "maybe" in err

    def test_drop_unchanged_refs_skips_thin_samples(self, data, capsys):
        code, out, err = run(
            capsys, ["stats", str(data / "ref.m2"), "--drop-unchanged-refs"]
        )
        assert code == 0
        assert "skipped" in err
        table = dict(line.split("\t") for line in out.strip().splitlines())
        assert table["sentences"] == "1"

    def test_empty_reference_file_is_data_error(self, tmp_path, capsys):
        (tmp_path / "ref.m2").write_text("", encoding="utf-8")
        code, out, err = run(capsys, ["stats", str(tmp_path / "ref.m2")])
        assert (code, out) == (3, "")
        assert err.strip() == "chunkeval: no samples left to stats"

    def test_every_sample_skipped_is_data_error(self, tmp_path, capsys):
        # the second block of REF_M2 alone: one annotator with edits
        refs = tmp_path / "ref.m2"
        refs.write_text(REF_M2.split("\n\n")[1], encoding="utf-8")
        code, out, err = run(capsys, ["stats", str(refs), "--drop-unchanged-refs"])
        assert (code, out) == (3, "")
        assert "skipped 1 sample(s)" in err
        assert err.strip().endswith("chunkeval: no samples left to stats")


class TestCorrelate:
    def test_simple_tables(self, tmp_path, capsys):
        (tmp_path / "metric.tsv").write_text(
            "system\tscore\ns1\t0.1\ns2\t0.2\ns3\t0.4\n", encoding="utf-8"
        )
        (tmp_path / "human.tsv").write_text(
            "system\tscore\ns1\t1.0\ns2\t2.0\ns3\t4.0\n", encoding="utf-8"
        )
        code, out, _ = run(
            capsys,
            ["correlate", str(tmp_path / "metric.tsv"), str(tmp_path / "human.tsv")],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "pearson\t1.0000"
        assert lines[1] == "spearman\t1.0000"
        assert lines[3] == "system\tmetric\thuman"

    @pytest.mark.parametrize("char", ["\x0c", "\x1c", "\x85", "\u2028"])
    def test_tables_break_at_newline_only(self, tmp_path, capsys, char):
        names = [f"sys{char}one", "s2", "s3"]
        (tmp_path / "metric.tsv").write_text(
            "# ell: 2.0\nsystem\tF_beta\tvariant\n"
            + "".join(f"{n}\t{v}\tdep\n" for n, v in zip(names, (0.1, 0.2, 0.4))),
            encoding="utf-8",
        )
        (tmp_path / "human.tsv").write_text(
            "system\tscore\r\n"
            + "".join(f"{n}\t{v}\r\n" for n, v in zip(names, (1.0, 2.0, 4.0))),
            encoding="utf-8",
        )
        code, out, err = run(
            capsys,
            ["correlate", str(tmp_path / "metric.tsv"), str(tmp_path / "human.tsv")],
        )
        assert (code, err) == (0, "")
        lines = out.split("\n")
        assert lines[:2] == ["pearson\t1.0000", "spearman\t1.0000"]
        assert f"sys{char}one\t0.1\t1.0" in lines

    def test_report_input(self, data, tmp_path, capsys):
        reports = []
        for hyp, name in [
            ("ref0-as-hyp.txt", "good"),
            ("source-as-hyp.txt", "lazy"),
        ]:
            out_path = tmp_path / f"{name}.tsv"
            code = main(
                [
                    "evaluate",
                    str(data / hyp),
                    str(data / "ref.m2"),
                    "--system",
                    name,
                    "-o",
                    str(out_path),
                ]
            )
            assert code == 0
            reports.append(out_path.read_text(encoding="utf-8"))
        header = [l for l in reports[0].splitlines() if not l.startswith("#")][0]
        rows = [
            l
            for report in reports
            for l in report.splitlines()
            if l and not l.startswith("#") and not l.startswith("system\t")
        ]
        third = rows[1].replace("lazy", "third")
        merged = tmp_path / "merged.tsv"
        merged.write_text(header + "\n" + "\n".join(rows + [third]) + "\n")
        (tmp_path / "human.tsv").write_text(
            "system\tscore\ngood\t3.0\nlazy\t1.0\nthird\t1.5\n", encoding="utf-8"
        )
        code, out, _ = run(
            capsys,
            [
                "correlate",
                str(merged),
                str(tmp_path / "human.tsv"),
                "--format",
                "json",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pearson"] > 0.8

    def test_concatenated_reports_read_as_one(self, data, tmp_path, capsys):
        # each repeated header is skipped, not read as a row of variant 'variant'
        hyps = {
            "good": HYP_REF0,
            "lazy": HYP_SOURCE,
            "half": "technologies were improved\nIt is good\n",
            "was": "technologies have improved\nit was good\n",
        }
        reports = []
        for name, text in hyps.items():
            (tmp_path / f"{name}.txt").write_text(text, encoding="utf-8")
            code, out, _ = run(
                capsys, ["evaluate", str(tmp_path / f"{name}.txt"), str(data / "ref.m2")]
            )
            assert code == 0
            reports.append(out.splitlines())
        header = next(l for l in reports[0] if not l.startswith("#"))
        rows = [report[-1] for report in reports]
        assert len({row.split("\t")[11] for row in rows}) == 4  # distinct F_beta
        (tmp_path / "concat.tsv").write_text(
            "".join("\n".join(report) + "\n" for report in reports), encoding="utf-8"
        )
        (tmp_path / "merged.tsv").write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
        (tmp_path / "human.tsv").write_text(
            "system\tscore\ngood\t4.0\nlazy\t1.0\nhalf\t3.0\nwas\t2.0\n", encoding="utf-8"
        )
        # and so does a human table concatenated from two
        (tmp_path / "human2.tsv").write_text(
            "system\tscore\ngood\t4.0\nlazy\t1.0\n"
            "\n# more\nsystem\tscore\nhalf\t3.0\nwas\t2.0\n",
            encoding="utf-8",
        )
        results = [
            run(capsys, ["correlate", str(tmp_path / name), str(tmp_path / human)])
            for name, human in [
                ("concat.tsv", "human.tsv"),
                ("merged.tsv", "human.tsv"),
                ("merged.tsv", "human2.tsv"),
            ]
        ]
        assert results[0] == results[1] == results[2]
        code, out, err = results[0]
        assert (code, err) == (0, "")
        assert "half\t0.5556\t3.0" in out.splitlines()

    @pytest.mark.parametrize(
        "metric, named",
        [
            ("system\tscore\ns1\t0.1\ns2\t0.2\n", "at least 3 systems, got 2"),
            (
                "# ell: 2.0\nsystem\tF_beta\tvariant\ns1\t0.1\tdep\n"
                "s2\tn/a\tdep\ns3\t0.3\tdep\n",
                "line 4:",
            ),
            (
                "# ell: 2.0\nsystem\tP\tvariant\ns1\t0.1\tdep\n"
                "s2\t0.2\tdep\ns3\t0.3\tdep\n",
                "line 2:",
            ),
        ],
        ids=["two-systems", "score-not-a-number", "no-score-column"],
    )
    def test_bad_reports_are_data_errors(self, tmp_path, capsys, metric, named):
        human = "system\tscore\ns1\t1.0\ns2\t2.0\n"
        if "s3" in metric:
            human += "s3\t4.0\n"
        (tmp_path / "metric.tsv").write_text(metric, encoding="utf-8")
        (tmp_path / "human.tsv").write_text(human, encoding="utf-8")
        code, out, err = run(
            capsys,
            ["correlate", str(tmp_path / "metric.tsv"), str(tmp_path / "human.tsv")],
        )
        assert code == 3
        assert out == ""
        assert named in err

    def test_accepted_system_names_read_back_unchanged(self):
        # the writer's name rule and the readers' cell rule must agree
        rng = random.Random(15)
        alphabet = "abcdefgh" + " \t\r\n#\u00a0\x0c\x1c\x85\u2028"
        accepted, refused = {}, 0
        for _ in range(3000):
            name = "".join(rng.choice(alphabet) for _ in range(rng.randrange(7)))
            try:
                cli._system_name(name)
            except argparse.ArgumentTypeError:
                refused += 1
            else:
                accepted.setdefault(name, len(accepted) / 8)
        assert refused > 1000 and len(accepted) > 100
        assert "" not in accepted
        assert any(c in name[1:-1] for name in accepted for c in " #\u00a0\x0c\x85\u2028")
        plain = "system\tscore\n" + "".join(f"{n}\t{v}\n" for n, v in accepted.items())
        assert load_human_table(plain).scores == accepted
        assert load_metric_scores(plain) == accepted
        rows = [
            {**dict.fromkeys(REPORT_COLUMNS, 0), "system": n, "F_beta": v, "variant": "dep"}
            for n, v in accepted.items()
        ]
        report = cli._format_report(rows, {"ell": 2.0}, "tsv")
        assert load_metric_scores(report) == accepted

    def test_system_mismatch_is_data_error(self, tmp_path, capsys):
        (tmp_path / "metric.tsv").write_text(
            "system\tscore\ns1\t0.1\ns2\t0.2\ns3\t0.4\n", encoding="utf-8"
        )
        (tmp_path / "human.tsv").write_text(
            "system\tscore\ns1\t1.0\ns2\t2.0\nsX\t4.0\n", encoding="utf-8"
        )
        code, _, err = run(
            capsys,
            ["correlate", str(tmp_path / "metric.tsv"), str(tmp_path / "human.tsv")],
        )
        assert code == 3
        assert "s3" in err and "sX" in err


# The flags each subcommand accepts: 33 in all.
FLAGS = {
    "extract": {"--config", "--out"},
    "evaluate": {
        "--config",
        "--out",
        "--format",
        "--drop-unchanged-refs",
        "--hyp-format",
        "--system",
        "--variant",
        "--alpha-tp",
        "--alpha-fp",
        "--alpha-fn",
        "--clip-tp",
        "--clip-fp",
        "--clip-fn",
        "--ell",
        "--beta",
        "--fn-on-mismatch",
    },
    "chunks": {
        "--config",
        "--out",
        "--format",
        "--drop-unchanged-refs",
        "--hyp-format",
        "--only-changed",
    },
    "stats": {
        "--config",
        "--out",
        "--format",
        "--drop-unchanged-refs",
        "--per-pass-mean",
    },
    "correlate": {"--config", "--out", "--format", "--variant"},
}


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_help_lists_only_the_commands_flags(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == FLAGS[command] | {"--help"}


def _argv(command, data):
    files = {
        "extract": ["ref0-as-hyp.txt", "source-as-hyp.txt"],
        "evaluate": ["ref0-as-hyp.txt", "ref.m2"],
        "chunks": ["ref0-as-hyp.txt", "ref.m2"],
        "stats": ["ref.m2"],
        "correlate": ["ref0-as-hyp.txt", "source-as-hyp.txt"],
    }
    return [command] + [str(data / name) for name in files[command]]


FOREIGN = [
    ("extract", ["--ell", "3"]),
    ("extract", ["--format", "tsv"]),
    ("evaluate", ["--per-pass-mean"]),
    ("evaluate", ["--only-changed"]),
    ("chunks", ["--variant", "dep"]),
    ("stats", ["--variant", "dep"]),
    ("stats", ["--hyp-format", "m2"]),
    ("correlate", ["--beta", "1"]),
]
FOREIGN_IDS = [f"{command}{flag[0]}" for command, flag in FOREIGN]


@pytest.mark.parametrize("command, flag", FOREIGN, ids=FOREIGN_IDS)
def test_foreign_flag_is_usage_error(data, capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main(_argv(command, data) + flag)
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", FOREIGN, ids=FOREIGN_IDS)
def test_foreign_config_key_is_data_error_with_line(
    data, tmp_path, capsys, command, flag
):
    cfg = tmp_path / "run.cfg"
    value = flag[1] if len(flag) > 1 else "on"
    cfg.write_text(f"{flag[0][2:]}={value}\n", encoding="utf-8")
    code, out, err = run(capsys, _argv(command, data) + ["--config", str(cfg)])
    assert code == 3
    assert out == ""
    assert f"{cfg}:1:" in err and "unknown config key" in err


SCALARS = ["1", "1.0000001", "0", "-0", "nan", "inf", "-inf", "1e150", "1e200", "x"]
PAIRS = ["0.5,2", "2,1", "0,1", "1,inf", "nan,1", "1", "1,2,3"]
WEIGHT_VALUES = [
    (flag, value)
    for flag in sorted(FLAGS["evaluate"])
    if flag.startswith(("--alpha-", "--clip-")) or flag in ("--ell", "--beta")
    for value in (PAIRS if flag.startswith("--clip-") else SCALARS)
]


def weight_config_takes(field, text):
    """Whether the text parses and WeightConfig accepts it for ``field``."""
    try:
        pair = field.startswith("clip_")
        WeightConfig(**{field: tuple(map(float, text.split(","))) if pair else float(text)})
    except ValueError:
        return False
    return True


def test_weight_values_cover_both_outcomes():
    # each of the 8 flags gets values that WeightConfig takes and refuses
    seen = {
        (flag, weight_config_takes(flag[2:].replace("-", "_"), value))
        for flag, value in WEIGHT_VALUES
    }
    assert len(seen) == 16


@pytest.mark.parametrize("flag, value", WEIGHT_VALUES)
def test_weight_flags_take_what_weight_config_takes(data, tmp_path, capsys, flag, value):
    valid = weight_config_takes(flag[2:].replace("-", "_"), value)
    argv = _argv("evaluate", data)
    if valid:
        code, _, err = run(capsys, argv + [f"{flag}={value}"])
        assert (code, err) == (0, "")
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv + [f"{flag}={value}"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag[2:]}={value}\n", encoding="utf-8")
    code, out, err = run(capsys, argv + ["--config", str(cfg)])
    if valid:
        assert (code, err) == (0, "")
    else:
        assert (code, out) == (3, "")
        assert f"{cfg}:1:" in err


@pytest.mark.parametrize("command", ["evaluate", "chunks"])
def test_empty_inputs_are_data_error(tmp_path, capsys, command):
    (tmp_path / "hyp.txt").write_text("", encoding="utf-8")
    (tmp_path / "ref.m2").write_text("", encoding="utf-8")
    code, out, err = run(
        capsys, [command, str(tmp_path / "hyp.txt"), str(tmp_path / "ref.m2")]
    )
    assert code == 3
    assert out == ""
    assert "no samples" in err


def test_unsupported_format_is_usage_error(data, capsys):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "chunks",
                str(data / "ref0-as-hyp.txt"),
                str(data / "ref.m2"),
                "--format",
                "json",
            ]
        )
    assert exc.value.code == 2
    assert "tsv" in capsys.readouterr().err


def test_module_entry_point(data):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import chunkeval

    # the child imports the same chunkeval as this test, installed or not
    src = str(Path(chunkeval.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "chunkeval", "stats", str(data / "ref.m2")],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert "icc_count\t4" in proc.stdout


def _write_corpus(path, n_samples, n_refs=(2, 4), seed=17, copied=0.0):
    """A seeded corpus of ``n_samples``: references as M2, hypotheses as text.

    Tokens come from ``conftest.VOCAB``, so they repeat. Each sample has
    between ``n_refs`` annotators, and a ``copied`` share of the hypotheses
    copy one reference's edits, so that TPs are common.
    """
    rng = random.Random(seed)
    samples, hyps = [], []
    for _ in range(n_samples):
        source, hyp_edits, refs = random_case(rng, *n_refs)
        if copied and rng.random() < copied:
            hyp_edits = rng.choice(refs)[1]
        annotations = {
            aid: tuple(Edit(e.start, e.end, e.replacement, "T") for e in edits)
            for aid, edits in refs
        }
        samples.append(AnnotatedSample(source, annotations))
        hyps.append(" ".join(apply_edits(source, hyp_edits)))
    path.mkdir()
    (path / "ref.m2").write_text(emit_m2(samples), encoding="utf-8")
    (path / "hyp.txt").write_text("".join(h + "\n" for h in hyps), encoding="utf-8")
    return path


class TestGarbageCollector:
    """A command runs with the cyclic collector paused and then restores it."""

    @pytest.fixture(autouse=True)
    def keep_collector_state(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("outcome", ["exit-0", "exit-3", "usage"])
    def test_state_is_restored(self, data, capsys, enabled, outcome):
        hyp = data / ("missing.txt" if outcome == "exit-3" else "ref0-as-hyp.txt")
        argv = ["evaluate", str(hyp), str(data / "ref.m2")]
        (gc.enable if enabled else gc.disable)()
        if outcome == "usage":
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--bogus"])
            assert exc.value.code == 2
        else:
            assert main(argv) == (0 if outcome == "exit-0" else 3)
        assert gc.isenabled() is enabled
        capsys.readouterr()

    def test_command_runs_with_the_collector_paused(self, data, capsys, monkeypatch):
        seen = []
        monkeypatch.setitem(
            cli._COMMANDS, "stats", lambda args: seen.append(gc.isenabled()) or 0
        )
        gc.enable()
        assert main(["stats", str(data / "ref.m2")]) == 0
        assert (seen, gc.isenabled()) == ([False], True)

    def test_cycles_left_do_not_grow_with_the_corpus(self, tmp_path, capsys):
        """What a command leaves for the collector is the same for 1 and 200 samples.

        So pausing the collector for a whole command cannot hold back
        garbage that grows with the input.
        """

        def cycles(argv):
            gc.disable()
            gc.collect()
            assert main(argv) == 0
            capsys.readouterr()
            return gc.collect()

        small, large = _write_corpus(tmp_path / "1", 1), _write_corpus(tmp_path / "200", 200)
        for argvs in (
            [
                ["evaluate", str(d / "hyp.txt"), str(d / "ref.m2")]
                + [f"--variant={v}" for v in VARIANTS]
                for d in (small, large, small)
            ],
            [["stats", str(d / "ref.m2")] for d in (small, large, small)],
        ):
            cycles(argvs[0])  # fill the module-level caches first
            left = [cycles(argv) for argv in argvs]
            assert left[0] == left[1] == left[2] > 0, (argvs[0][0], left)


class TestDenseViewUnread:
    """``evaluate`` reads only ``slot_columns``; ``chunks`` reads ``slot_segments``."""

    @pytest.fixture
    def corpus(self, tmp_path):
        d = _write_corpus(tmp_path / "c", 40, (1, 6), seed=29, copied=0.3)
        samples = parse_m2((d / "ref.m2").read_text(encoding="utf-8"))
        lines = (d / "hyp.txt").read_text(encoding="utf-8").splitlines()
        hyps = [
            AnnotatedSample(s.source, {0: extract_edits(s.source, tokenize(line))})
            for s, line in zip(samples, lines)
        ]
        (d / "hyp.m2").write_text(emit_m2(hyps), encoding="utf-8")
        return d

    @staticmethod
    def refuse_dense_view(monkeypatch):
        def refuse(self):
            raise AssertionError("the dense slot_segments view was built")

        monkeypatch.setattr(ChunkedSample, "slot_segments", property(refuse))

    @pytest.mark.parametrize("mode", ["fp-only", "both"])
    @pytest.mark.parametrize("hyp_format", ["text", "m2"])
    def test_evaluate_never_builds_the_dense_view(
        self, corpus, capsys, monkeypatch, hyp_format, mode
    ):
        hyp = corpus / ("hyp.m2" if hyp_format == "m2" else "hyp.txt")
        argv = ["evaluate", str(hyp), str(corpus / "ref.m2"), "--hyp-format", hyp_format]
        argv += ["--fn-on-mismatch", mode, *[f"--variant={v}" for v in VARIANTS]]
        want = run(capsys, argv)
        assert want[0] == 0
        self.refuse_dense_view(monkeypatch)
        assert run(capsys, argv) == want

    def test_chunks_reads_the_dense_view(self, corpus, capsys, monkeypatch):
        argv = ["chunks", str(corpus / "hyp.txt"), str(corpus / "ref.m2")]
        assert run(capsys, argv)[0] == 0
        self.refuse_dense_view(monkeypatch)
        with pytest.raises(AssertionError, match="dense slot_segments view"):
            main(argv)


# Request orders of the eight variants: each twin after, before or without its base.
_ORDERS = {
    "forward": list(VARIANTS),
    "reversed": list(reversed(VARIANTS)),
    "twins-first": [v for v in VARIANTS if v.endswith("-acc")]
    + [v for v in VARIANTS if not v.endswith("-acc")],
    "dep-acc-alone": ["dep-acc"],
}
# Weight options: none, some flags, every field (so that all eight variants
# resolve to one WeightConfig and only the assumption and level tell them
# apart), and a --config file.
_ALL_FIELDS = "--alpha-tp 3 --alpha-fp 4 --alpha-fn 1.5 --clip-tp 0.5,2 --clip-fp 0.2,3 "
_ALL_FIELDS += "--clip-fn 0.9,1.1 --ell 2.5 --beta 2"
_WEIGHTS = {
    "defaults": ([], None),
    "flags": (["--alpha-fp", "5", "--clip-tp", "0.5,3", "--beta", "1"], None),
    "every-field": (_ALL_FIELDS.split(), None),
    "config": ([], "alpha-tp = 4\nclip-fn = 0.8,1.6\nell = 1.75\n"),
}


class TestScoredOnce:
    """``evaluate`` scores each distinct configuration once per command.

    The oracle is the memo-free path: a fresh ``run_variant`` per requested
    variant, formatted by ``cli._format_report``.
    """

    @staticmethod
    def memo_free_report(argv):
        args = cli.parse_args(argv)
        chunked = cli._load_chunked(args)
        configs, meta = cli._resolve_configs(args, chunked)
        rows = [
            run_variant(chunked, v, cfg, args.fn_on_mismatch).as_row(args.system)
            for v, cfg in configs.items()
        ]
        return cli._format_report(rows, meta, args.format)

    def assert_reports_match_oracle(self, capsys, argv):
        for order in _ORDERS.values():
            for mode in ("fp-only", "both"):
                for fmt in ("tsv", "json"):
                    full = argv + [f"--variant={v}" for v in order]
                    full += ["--fn-on-mismatch", mode, "--format", fmt]
                    want = self.memo_free_report(full)
                    capsys.readouterr()
                    code, out, _ = run(capsys, full)
                    assert (code, out) == (0, want), (order, mode, fmt)
                    rows = json.loads(out)["rows"] if fmt == "json" else report_rows(out)
                    assert [row["variant"] for row in rows] == order

    @pytest.mark.parametrize("weights", list(_WEIGHTS))
    @pytest.mark.parametrize("n_refs", [2, 10])
    def test_reports_are_byte_identical_to_memo_free_scoring(
        self, tmp_path, capsys, n_refs, weights
    ):
        d = _write_corpus(tmp_path / "c", 30, (n_refs, n_refs), seed=n_refs, copied=0.3)
        flags, config = _WEIGHTS[weights]
        argv = ["evaluate", str(d / "hyp.txt"), str(d / "ref.m2"), *flags]
        if config is not None:
            (tmp_path / "cfg").write_text(config, encoding="utf-8")
            argv += ["--config", str(tmp_path / "cfg")]
        self.assert_reports_match_oracle(capsys, argv)

    def test_unweighted_fallback_is_byte_identical(self, tmp_path, capsys):
        ref, hyp = tmp_path / "noop.m2", tmp_path / "hyp.txt"
        ref.write_text(
            emit_m2([AnnotatedSample(("a", "b", "a"), {0: (), 3: ()})] * 4), encoding="utf-8"
        )
        hyp.write_text("a x a\na b a\nb a\na b a a\n", encoding="utf-8")
        self.assert_reports_match_oracle(capsys, ["evaluate", str(hyp), str(ref)])
        _, _, err = run(capsys, ["evaluate", str(hyp), str(ref)])
        assert "falling back to unweighted counts" in err

    @pytest.mark.parametrize("weights", ["defaults", "every-field"])
    @pytest.mark.parametrize("order", list(_ORDERS))
    def test_each_variant_runs_once_and_each_configuration_scores_once(
        self, tmp_path, capsys, monkeypatch, order, weights
    ):
        n_samples = 25
        d = _write_corpus(tmp_path / "c", n_samples, (3, 3), copied=0.3)
        calls, passes = [], Counter()
        real_run_variant = cli.run_variant

        def counted_run_variant(chunked, variant, *args, **kwargs):
            calls.append(variant)
            return real_run_variant(chunked, variant, *args, **kwargs)

        monkeypatch.setattr(cli, "run_variant", counted_run_variant)
        for name in ("dependent", "independent"):
            method = getattr(scoring._SlotScorer, name)

            def counted(self, cs, _method=method, _name=name):
                passes[_name] += 1
                return _method(self, cs)

            monkeypatch.setattr(scoring._SlotScorer, name, counted)
        argv = ["evaluate", str(d / "hyp.txt"), str(d / "ref.m2"), *_WEIGHTS[weights][0]]
        code, _, _ = run(capsys, argv + [f"--variant={v}" for v in _ORDERS[order]])
        assert code == 0
        assert calls == _ORDERS[order]
        # one pass per sentence for each (assumption, level) requested
        scored = Counter(a for a, _ in {scoring.parse_variant(v) for v in calls})
        assert passes == Counter(
            {"dependent": n_samples * scored["dep"], "independent": n_samples * scored["indep"]}
        )
