"""README's Quick start block runs against the installed API."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_code():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quick_start_runs():
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start_code(), str(README), "exec"), namespace)
    printed = out.getvalue().splitlines()
    assert len(printed) == 3
    # the landing labels the comments state
    assert printed[0].endswith("|-2^H>_1")
    assert printed[2].endswith("|-3^H>_3")
    restored = namespace["restored"]
    assert restored.slot_count == 3
    assert abs(sum(abs(a) ** 2 for a in restored.amplitudes.values()) - 1) < 1e-9
