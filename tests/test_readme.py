"""README's "complete loop on a small corpus" runs as written: every
command of its fenced block exits 0 and the last one prints the mAP."""

import pathlib
import re
import shlex
import subprocess
import sys

from testkit import child_env

README = pathlib.Path(__file__).parents[1] / "README.md"


def loop_commands():
    """The argument lists of the fenced block after "A complete loop on
    a small corpus:", with backslash-continued lines joined."""
    block = re.search(r"A complete loop on a small corpus:\n\n```\n(.*?)```",
                      README.read_text(encoding="utf-8"), re.S).group(1)
    return [shlex.split(line)
            for line in block.replace("\\\n", " ").splitlines()
            if line.strip()]


def test_readme_loop_runs(tmp_path):
    commands = loop_commands()
    assert len(commands) >= 2
    for argv in commands:
        assert argv[0] == "macforge", argv
        child = subprocess.run([sys.executable, "-m", "macforge", *argv[1:]],
                               cwd=tmp_path, env=child_env(),
                               capture_output=True, text=True)
        assert child.returncode == 0, (argv, child.stderr)
    assert re.fullmatch(r"mAP,[0-9.]+", child.stdout.strip().splitlines()[-1])
