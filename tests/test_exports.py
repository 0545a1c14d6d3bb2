"""The package's public names: every entry of domdist.__all__ resolves, once,
and the README's library example runs against them."""

import re
from pathlib import Path

import domdist

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves():
    missing = [name for name in domdist.__all__ if not hasattr(domdist, name)]
    assert missing == []


def test_no_export_listed_twice():
    assert len(set(domdist.__all__)) == len(domdist.__all__)


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library example\n", 1)[1]
    code = re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.split() == ["2", "True"]
