"""Every exported name and every library name the README cites resolves."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import xvaband

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ["xvaband", *(f"xvaband.{m.name}" for m in pkgutil.iter_modules(xvaband.__path__))]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names what it does not define: {missing}"


def test_every_library_name_in_the_readme_resolves():
    # backticked spans outside the fenced blocks, each `xvaband.<module>.<name>`
    text = re.sub(r"^```.*?^```$", "", README.read_text(encoding="utf-8"),
                  flags=re.MULTILINE | re.DOTALL)
    cited = {ref for span in re.findall(r"`([^`]+)`", text)
             for ref in re.findall(r"\bxvaband\.(\w+)\.(\w+)", span)}
    assert cited
    missing = [f"xvaband.{module}.{name}" for module, name in sorted(cited)
               if not hasattr(importlib.import_module(f"xvaband.{module}"), name)]
    assert not missing, f"README names what the package does not define: {missing}"
