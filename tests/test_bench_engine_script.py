"""The engine benchmark script's command line."""

import pathlib
import subprocess
import sys

SCRIPT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "scripts"
    / "bench_engine.py"
)


def test_help_exits_zero():
    """``--help`` renders every option's help text: a literal percent
    sign in one of them would crash argparse's formatter."""
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--help"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "--quick" in done.stdout
