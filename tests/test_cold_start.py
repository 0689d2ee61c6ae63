"""The CLI starts without the modules only some suites need.

Importing ``qheis.cli``, and running the operator-algebra suites,
``braid`` and ``kz-operator``, loads no scipy module at all: numpy is the
package's one dependency until a suite needs scipy's special functions
(``qspecial``, and ``kz-scalar`` through ``qspecial.gamma``).  ``qheis.kz``
binds scipy's ``solve_ivp`` and ``expm`` on their first lookup only.  Each
check runs in a fresh interpreter, because this test process has already
imported ``qheis.kz`` and scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

HEADER = """
import json, os, sys
HEAVY = ("qheis.kz", "scipy.integrate", "scipy.optimize", "scipy.linalg",
         "scipy.special", "scipy.sparse.csgraph", "scipy.sparse.linalg")

def loaded():
    return [m for m in HEAVY if m in sys.modules]

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def run(*argv):
    qheis.cli.main(["suite", *argv, "--out", os.devnull])
"""

CLI_PROBE = HEADER + """
import qheis.cli
seen = {"import": loaded(), "scipy at import": scipy_modules()}
for argv in (["sl2-fermi"], ["braid"], ["slN", "--cutoff", "3"]):
    run(*argv)
seen["light suites"] = loaded()
for argv in (["sl2-bose"], ["soN-orbital"]):
    run(*argv)
seen["scipy after the numpy-only suites"] = scipy_modules()
run("qspecial")
seen["qspecial"] = loaded()
print(json.dumps(seen))
"""

KZ_PROBE = HEADER + """
import qheis.kz
seen = {"scipy at import": scipy_modules()}
import qheis.cli
before = set(scipy_modules())
run("kz-operator", "--cutoff", "3")
seen["kz-operator adds"] = sorted(set(scipy_modules()) - before)
before = set(scipy_modules())
run("kz-scalar", "--n", "1")
seen["kz-scalar adds"] = sorted(set(scipy_modules()) - before)
print(json.dumps(seen))
"""

LOOKUP_PROBE = """
import json
import qheis.kz as kz
seen = {"bound at import": [n for n in ("solve_ivp", "expm") if n in vars(kz)]}
import scipy.integrate, scipy.linalg
seen["solve_ivp"] = kz.solve_ivp is scipy.integrate.solve_ivp
seen["expm"] = kz.expm is scipy.linalg.expm
seen["bound after lookup"] = [n for n in ("solve_ivp", "expm") if n in vars(kz)]
try:
    kz.no_such_name
    seen["other names"] = "found"
except AttributeError:
    seen["other names"] = "AttributeError"
print(json.dumps(seen))
"""


def probe(code: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_loads_heavy_modules_only_for_the_suites_that_use_them():
    seen = probe(CLI_PROBE)
    assert seen["import"] == []
    assert seen["light suites"] == []
    assert seen["scipy at import"] == []
    assert seen["scipy after the numpy-only suites"] == []
    assert "scipy.special" in seen["qspecial"]
    assert "qheis.kz" not in seen["qspecial"]
    assert "scipy.integrate" not in seen["qspecial"]


def test_kz_suites_load_scipy_special_at_most():
    seen = probe(KZ_PROBE)
    assert seen["scipy at import"] == []
    assert seen["kz-operator adds"] == []
    added = set(seen["kz-scalar adds"])
    assert "scipy.special" in added
    assert not {"scipy.integrate", "scipy.linalg", "scipy.optimize"} & added


def test_kz_binds_scipy_routines_on_first_lookup():
    assert probe(LOOKUP_PROBE) == {"bound at import": [], "solve_ivp": True, "expm": True,
                                   "bound after lookup": ["solve_ivp", "expm"],
                                   "other names": "AttributeError"}
