"""The benchmark's self-check passes against the current sources.

``perfbench/selfcheck.py`` runs every workload on tiny corpora, traced and
untraced, and checks that each layer the workload calls is timed. A change
to the calls ``chunkeval.cli`` makes, such as scoring two variants at once,
then fails here rather than leaving a layer's span reading zero. It writes
only under the git-ignored ``.perfbench/`` and takes a few seconds.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selfcheck_exits_zero():
    done = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
