"""The package namespace: the README's library example runs and the names it
cites exist, __all__ resolves, each name and submodule loads on first use
from the one table in __init__, the version matches the project metadata,
and no command loads the register, dataclasses or __future__."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spatialbsa
from spatialbsa import bsa, cli, qsdc, register, states

ROOT = Path(__file__).parent.parent
README = (ROOT / "README.md").read_text()


def test_readme_library_block_runs(capsys):
    section = README.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "1001"


# A code span that opens with a package module's name and one of its names.
README_NAME = re.compile(r"`(states|cavity|bsa|qsdc|register|cli)\.([A-Za-z_]\w*)")


def test_every_name_the_readme_cites_exists():
    cited = sorted(set(README_NAME.findall(README)))
    assert cited
    missing = [f"{module}.{name}" for module, name in cited
               if not hasattr(importlib.import_module(f"spatialbsa.{module}"), name)]
    assert missing == []


def test_every_exported_name_resolves():
    for name in spatialbsa.__all__:
        assert getattr(spatialbsa, name) is not None, name
    assert len(set(spatialbsa.__all__)) == len(spatialbsa.__all__)


def test_every_exported_name_is_its_home_modules_object():
    assert spatialbsa.__all__ == sorted(spatialbsa._HOMES)
    for name, home in spatialbsa._HOMES.items():
        module = importlib.import_module(f"spatialbsa.{home}")
        value = getattr(spatialbsa, name)
        assert value is getattr(module, name), name
        assert value.__module__ == module.__name__, name  # defined there, not re-exported
    assert register.Kind is bsa.Kind is states.Kind  # defined once, in states
    assert not hasattr(spatialbsa, "Kind")
    assert not hasattr(spatialbsa, "no_such_module")
    with pytest.raises(AttributeError, match="no attribute 'Kind'"):
        spatialbsa.Kind


# A bare import in a fresh interpreter: the package modules and numpy it has
# loaded, then each submodule looked up as an attribute, and whether loading
# them all has loaded dataclasses.
BARE_IMPORT = """
import json, sys
import spatialbsa
loaded = sorted(m for m in sys.modules if m.startswith("spatialbsa.") or m == "numpy")
names = ["bsa", "cavity", "cli", "qsdc", "register", "states"]
found = [getattr(spatialbsa, name) is sys.modules["spatialbsa." + name] for name in names]
print(json.dumps([loaded, found, "dataclasses" in sys.modules]))
"""


def test_bare_import_loads_nothing_and_submodules_resolve():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", BARE_IMPORT], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    loaded, found, dataclasses = json.loads(proc.stdout)
    assert loaded == []
    assert found == [True] * 6
    assert not dataclasses


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert spatialbsa.__version__ == project["version"]


# A fresh interpreter imports cli and builds its parser, noting whether that
# has loaded __future__, then runs one command through cli.main and prints its
# exit code, that note, and the package's modules, dataclasses and __future__
# as far as it has loaded them.
PROBE = """
import contextlib, io, json, sys
from spatialbsa import cli
cli.build_parser()
future = "__future__" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
extra = ("dataclasses", "__future__")
loaded = sorted(m for m in sys.modules if m.startswith("spatialbsa") or m in extra)
print(json.dumps([code, future, loaded]))
"""
COMMANDS = {
    "bsa": ["bsa", "psi-", "--lossy", "--trials", "5", "--seed", "1"],
    "sweep": ["sweep", "--steps", "3", "--seed", "1"],
    "qsdc": ["qsdc", "--message", "0110", "--pairs", "40", "--seed", "1"],
}


def test_no_command_loads_the_register():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for name, argv in COMMANDS.items():
        proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)],
                              capture_output=True, text=True, env=env, timeout=120, check=True)
        code, future, loaded = json.loads(proc.stdout)
        assert code == 0, name
        assert not future, name  # every annotation is evaluated where it is written
        assert "spatialbsa.register" not in loaded, (name, loaded)
        assert "dataclasses" not in loaded, (name, loaded)
        assert "__future__" not in loaded, (name, loaded)
        assert "spatialbsa.states" in loaded, (name, loaded)

    # Every name that lived in the register still resolves where it did.
    assert spatialbsa.QuantumRegister is register.QuantumRegister
    assert spatialbsa.make_bell is register.make_bell
    assert {"QuantumRegister", "make_bell", *spatialbsa.__all__} <= set(dir(spatialbsa))
    namespace = {}
    exec("from spatialbsa import *", namespace)
    assert namespace["QuantumRegister"] is register.QuantumRegister
    assert namespace["make_bell"] is register.make_bell
    assert spatialbsa.bsa.parity_qnd is bsa.parity_qnd
    with pytest.raises(AttributeError, match="no attribute 'Kind'"):
        spatialbsa.Kind
    # One object each, whichever module it is imported from (qsdc names no Bell state).
    for module in (bsa, cli, register, spatialbsa):
        assert module.BellState is states.BellState, module
    for module in (bsa, qsdc, cli, register, spatialbsa):
        assert module.ZeroNormError is states.ZeroNormError, module
