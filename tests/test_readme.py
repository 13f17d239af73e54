"""The README's library quickstart runs and prints the values its comments state."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_prints_its_commented_values():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    expected = [line.rsplit("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
    assert expected == ["2875", "609250", "11", "1280", "92288"]
