"""The CLI starts without the modules only some suites need.

Importing ``qheis.cli``, and running the operator-algebra suites and
``braid``, loads no scipy module at all: numpy is the package's one
dependency until a suite needs scipy's special functions (``qspecial``)
or its linear algebra (the kz suites).  Each check runs in a fresh
interpreter, because this test process has already imported
``qheis.kz`` and scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import json, os, sys
HEAVY = ("qheis.kz", "scipy.integrate", "scipy.optimize", "scipy.linalg",
         "scipy.special", "scipy.sparse.csgraph", "scipy.sparse.linalg")

def loaded():
    return [m for m in HEAVY if m in sys.modules]

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import qheis.cli
seen = {"import": loaded(), "scipy at import": scipy_modules()}
for argv in (["sl2-fermi"], ["braid"], ["slN", "--cutoff", "3"]):
    qheis.cli.main(["suite", *argv, "--out", os.devnull])
seen["light suites"] = loaded()
for argv in (["sl2-bose"], ["soN-orbital"]):
    qheis.cli.main(["suite", *argv, "--out", os.devnull])
seen["scipy after the numpy-only suites"] = scipy_modules()
qheis.cli.main(["suite", "qspecial", "--out", os.devnull])
seen["qspecial"] = loaded()
qheis.cli.main(["suite", "kz-operator", "--cutoff", "3", "--out", os.devnull])
seen["kz-operator"] = loaded()
print(json.dumps(seen))
"""


def test_cli_loads_heavy_modules_only_for_the_suites_that_use_them():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["import"] == []
    assert seen["light suites"] == []
    assert seen["scipy at import"] == []
    assert seen["scipy after the numpy-only suites"] == []
    assert "scipy.special" in seen["qspecial"]
    assert "qheis.kz" not in seen["qspecial"]
    assert "scipy.integrate" not in seen["qspecial"]
    assert {"qheis.kz", "scipy.integrate"} <= set(seen["kz-operator"])
