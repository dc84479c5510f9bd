"""Seeded CLI fuzz: no argv and no input file may end in a traceback.

Each case draws a subcommand, input files (well-formed, malformed M2,
non-UTF-8, empty, missing) and flags of every subcommand, foreign ones
included, with good and bad values. ``main`` must return or exit with 0
(ok), 2 (usage) or 3 (data); any other exception fails the case.
"""

import random
import traceback

import pytest
from test_cli import FLAGS, HYP_REF0, REF_M2

from chunkeval.cli import main
from chunkeval.scoring import VARIANTS

SEED = 20231018
CASES = 600
BAD_VALUE = 0.15  # chance that a flag gets a bad value
FOREIGN_FLAG = 0.1  # chance that a flag comes from any subcommand

REPORT = (
    "# ell: 2.0\n"
    "system\ttp_w\tF_beta\tAcc\tvariant\n"
    "s1\t1\t0.5\t0.7\tdep\ns2\t1\t0.25\t0.9\tdep\ns3\t1\t0.75\t0.8\tdep\n"
)
REPORTS = REPORT + (  # two variants: correlate needs --variant
    "s1\t1\t0.5\t0.7\tdep-acc\ns2\t1\t0.2\t0.1\tdep-acc\ns3\t1\t0.7\t0.3\tdep-acc\n"
)
HUMAN = "system\tscore\ns1\t1.0\ns2\t-2.5\ns3\t4\n"

# Flag -> (good values, bad values); None is a flag without a value.
# --config and --out take file paths, drawn in ``random_argv``.
VALUES = {
    "--format": (["tsv"], ["xml", ""]),
    "--drop-unchanged-refs": ([None], ["=on"]),
    "--hyp-format": (["text", "m2"], ["M2"]),
    "--system": (["s1", "x y"], ["-x"]),
    "--variant": (list(VARIANTS), ["bogus", "dep,indep"]),
    "--alpha-tp": (["2", "1.01", "1e308"], ["1", "0", "nan", "-inf", "x"]),
    "--alpha-fp": (["3.5"], ["", "inf", "1e400"]),
    "--alpha-fn": (["1.5"], ["1,2"]),
    "--clip-tp": (["0.5,1.5", "1,1", "1e-300,1e300"], ["2,1", "0,1", "a,b", "1"]),
    "--clip-fp": (["0.7,1.3"], ["inf,inf", "0.1,nan", ",", "1,2,3"]),
    "--clip-fn": (["0.8,1.2"], ["-1,1"]),
    "--ell": (["2", "1e-300", "1e308"], ["0", "-1", "nan", "3x"]),
    "--beta": (["0.5", "1e-300", "1e150"], ["1e200", "0", "inf"]),
    "--fn-on-mismatch": (["fp-only", "both"], ["none"]),
    "--only-changed": ([None], ["=1"]),
    "--per-pass-mean": ([None], ["=yes"]),
}
FORMATS = {"evaluate": "json", "chunks": "text", "stats": "json", "correlate": "json"}
ROLES = {
    "extract": ["text", "text"],
    "evaluate": ["text", "m2"],
    "chunks": ["text", "m2"],
    "stats": ["m2"],
    "correlate": ["report", "human"],
}


def value_of(rng: random.Random, flag: str, command: str = ""):
    good, bad = VALUES[flag]
    if flag == "--format" and command in FORMATS:
        good = good + [FORMATS[command]]
    return rng.choice(bad if rng.random() < BAD_VALUE else good)


def mutate(rng: random.Random, text: str) -> str:
    """``text`` with a few random character and line edits."""
    for _ in range(rng.randint(1, 4)):
        if not text:
            return rng.choice("SA|-0123456789 \n")
        i = rng.randrange(len(text))
        op = rng.randrange(5)
        if op == 0:
            text = text[:i] + text[i + 1 :]
        elif op == 1:
            text = text[:i] + rng.choice("SA|-0123456789 \t\nx") + text[i:]
        elif op == 2:
            piece = rng.choice(["|||", "-1", "99", "\n\n", "S ", "A "])
            text = text[:i] + piece + text[i:]
        else:
            lines = text.split("\n")
            k = rng.randrange(len(lines))
            if op == 3:
                lines.insert(k, lines[rng.randrange(len(lines))])
            else:
                del lines[k]
            text = "\n".join(lines)
    return text


def config_text(rng: random.Random) -> str:
    """Config lines for random flags; some are malformed or foreign."""
    lines = []
    for _ in range(rng.randint(0, 3)):
        flag = rng.choice(sorted(VALUES))
        value = value_of(rng, flag)
        value = "on" if value is None else value.lstrip("=")
        key = flag[2:]
        lines.append(rng.choice([f"{key}={value}"] * 3 + [f"{key} {value}", "# c"]))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Input files by role, each list holding good and bad ones."""
    rng = random.Random(SEED)
    d = tmp_path_factory.mktemp("fuzz")

    def write(name, content):
        path = d / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        return str(path)

    empty = write("empty", "")
    latin1 = write("latin1", "S caf\xe9\n".encode("latin-1"))
    missing, directory = str(d / "missing"), str(d)
    bad = [empty, latin1, missing, directory]
    m2 = [write("ref.m2", REF_M2)] * 40 + bad
    m2 += [write(f"bad{k}.m2", mutate(rng, REF_M2)) for k in range(12)]
    text = [write("hyp.txt", HYP_REF0)] * 40 + bad
    text += [write(f"bad{k}.txt", mutate(rng, HYP_REF0)) for k in range(4)]
    odd = [
        write("two.tsv", "system\tscore\ns1\t1\ns2\t2\n"),
        write("huge.tsv", "system\tscore\ns1\t1e308\ns2\t-1e308\ns3\t2e-320\n"),
        write("rowless.tsv", "# ell: 2.0\nsystem\tF_beta\tvariant\n"),
    ]
    human = [write("human.tsv", HUMAN)] * 40 + bad + odd
    human += [write(f"bad{k}.human", mutate(rng, HUMAN)) for k in range(8)]
    report = [write("report.tsv", REPORT)] * 20 + [write("reports.tsv", REPORTS)] * 20
    report += bad + odd
    report += [write(f"bad{k}.tsv", mutate(rng, REPORTS)) for k in range(16)]
    configs = [write(f"run{k}.cfg", config_text(rng)) for k in range(16)] + bad
    outs = [str(d / "out.txt")] * 4 + [directory, str(d / "missing" / "out.txt")]
    return dict(m2=m2, text=text, report=report, human=human, config=configs, out=outs)


def random_argv(rng: random.Random, files: dict) -> list[str]:
    command = rng.choice(sorted(ROLES))
    roles = ROLES[command]
    argv = [command] + [rng.choice(files[role]) for role in roles]
    if command in ("evaluate", "chunks") and rng.random() < 0.3:
        argv[1:2] = [rng.choice(files["m2"]), "--hyp-format", "m2"]
    if rng.random() < 0.05:  # a positional goes missing
        argv = argv[: rng.randrange(len(argv))]
    own = sorted(FLAGS[command])
    every = sorted(set().union(*FLAGS.values()))
    for _ in range(rng.randint(0, 4)):
        flag = rng.choice(every if rng.random() < FOREIGN_FLAG else own)
        if flag in ("--config", "--out"):
            argv += [flag, rng.choice(files[flag[2:]])]
            continue
        value = value_of(rng, flag, command)
        if value is None:
            argv.append(flag)
        elif value.startswith("="):
            argv.append(flag + value)
        else:
            argv += [flag, value]
    if rng.random() < 0.05 and len(argv) > 1:  # a flag or value goes missing
        del argv[rng.randrange(1, len(argv))]
    return argv


def test_no_argv_or_input_ends_in_a_traceback(files, capsys):
    rng = random.Random(SEED)
    codes: dict[int, int] = {}
    failures = []
    for _ in range(CASES):
        argv = random_argv(rng, files)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            failures.append((argv, traceback.format_exc(limit=-3)))
            continue
        finally:
            capsys.readouterr()
        if code not in (0, 2, 3):
            failures.append((argv, f"exit {code!r}"))
        codes[code] = codes.get(code, 0) + 1
    assert not failures, "\n".join(f"{argv}\n{why}" for argv, why in failures[:5])
    # the draw must reach every outcome, or it tests less than it claims
    assert all(codes.get(c, 0) >= CASES // 20 for c in (0, 2, 3)), codes
