"""The package namespace: the README's library example runs, and __all__ resolves."""

import re
from pathlib import Path

import spatialbsa

README = (Path(__file__).parent.parent / "README.md").read_text()


def test_readme_library_block_runs(capsys):
    section = README.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "1001"


def test_every_exported_name_resolves():
    for name in spatialbsa.__all__:
        assert getattr(spatialbsa, name) is not None, name
    assert len(set(spatialbsa.__all__)) == len(spatialbsa.__all__)
