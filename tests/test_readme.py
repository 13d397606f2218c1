"""The README's library example runs as written."""

import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_prints_finite_numbers():
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                          flags=re.MULTILINE | re.DOTALL)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {"__name__": "__readme__"})
    numbers = [float(word) for word in out.getvalue().split()]
    # two lines: three XVA figures, then the two time-0 funding balances
    assert len(numbers) == 5
    assert all(math.isfinite(x) for x in numbers)
