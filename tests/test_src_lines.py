"""tools/src_lines.py: the line count of the source by kind."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# One module of every kind: docstring lines 1-4 (line 2 is blank), 8 and
# 11-13; comments 6 and 15; blanks 5, 9 and 14; code 7, 10, 16 and 17.
MODULE = '''"""A module.

Its docstring has a blank line.
"""

# a comment
class A:
    """One line."""

    def f(self):
        """Two
        lines.
        """

        # indented comment
        x = "# not a comment"
        return x
'''


@pytest.fixture
def src_lines(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "src_lines", ROOT / "tools" / "src_lines.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_each_line_has_one_kind(src_lines, tmp_path):
    path = tmp_path / "module.py"
    path.write_text(MODULE)
    counts = src_lines.count(path.read_text())
    assert counts == {"code": 4, "docstring": 8, "comment": 2, "blank": 3}
    assert sum(counts.values()) == len(MODULE.splitlines())


def test_the_total_is_the_line_count_of_src(src_lines, capsys):
    assert src_lines.main() == 0
    total = capsys.readouterr().out.splitlines()[-1].split()
    assert total[0] == "total"
    lines = sum(len(path.read_text().splitlines())
                for path in (ROOT / "src").rglob("*.py"))
    assert int(total[-1].replace(",", "")) == lines
    assert sum(int(n.replace(",", "")) for n in total[1:-1]) == lines
