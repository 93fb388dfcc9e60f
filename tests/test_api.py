"""The package namespace: the README's library example runs, __all__ resolves,
and the version matches the project metadata."""

import re
from pathlib import Path

import pytest

import spatialbsa

ROOT = Path(__file__).parent.parent
README = (ROOT / "README.md").read_text()


def test_readme_library_block_runs(capsys):
    section = README.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "1001"


def test_every_exported_name_resolves():
    for name in spatialbsa.__all__:
        assert getattr(spatialbsa, name) is not None, name
    assert len(set(spatialbsa.__all__)) == len(spatialbsa.__all__)


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert spatialbsa.__version__ == project["version"]
