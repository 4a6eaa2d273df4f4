"""The package's public names, and the modules that importing it loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import beamauction
from beamauction import assignment, auction, baseline, model, sim

ROOT = Path(__file__).resolve().parent.parent


def test_public_names_are_the_modules_public_names():
    modules = (model, assignment, auction, baseline, sim)
    expected = sorted(name for module in modules for name in module.__all__)
    assert beamauction.__all__ == expected
    assert len(set(expected)) == len(expected) == 26
    for name in expected:
        assert hasattr(beamauction, name), name


def test_importing_the_package_loads_no_third_party_module_but_numpy():
    # Every command pays the import on start-up, so a test-only dependency
    # such as scipy or hypothesis must not be imported by the package.
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import beamauction, beamauction.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    top_level = {name.partition(".")[0] for name in json.loads(proc.stdout)}
    assert top_level - sys.stdlib_module_names == {"beamauction", "numpy"}
