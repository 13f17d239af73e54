"""The README's library quickstart and command lines run and print the values their comments state."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from curvecount.cli import CACHE_DIR_ENV, run

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_prints_its_commented_values():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    expected = [line.rsplit("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
    assert expected == ["2875", "609250", "11", "1280", "92288"]


def test_command_lines_exit_zero_and_print_their_commented_values(capsys, monkeypatch):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", README.read_text(), re.S).group(1)
    lines = [line.partition("#") for line in block.splitlines() if line.startswith("curvecount ")]
    for command, _, comment in lines:
        assert run(shlex.split(command)[1:]) == 0, command
        out = capsys.readouterr().out
        if comment.strip():
            assert out.splitlines()[0] == comment.strip(), command
    assert [comment.strip() for _, _, comment in lines if comment.strip()] == [
        "2875", "609250", "1280", "1275", "h0=0 rigid=true"
    ]
