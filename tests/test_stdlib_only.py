"""The runtime needs nothing beyond the standard library.

A fresh interpreter with no site-packages on its path (`-I -S`) imports
measurekit from the source tree, builds, evaluates and draws one member of
every catalog family, which runs each family's compiled sources, and lists
the top-level modules it then holds that are not in the standard library.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROGRAM = """
import json, sys
sys.path.insert(0, sys.argv[1])
import measurekit as mk
from measurekit import catalog

members = [mk.Normal(0.3, 1.2), mk.make_negbinomial(r=2.0, p=0.4), mk.Uniform01(),
           mk.Bernoulli(0.3), mk.Poisson(2.0), mk.Exponential(1.5), mk.Dirac(1.0)]
for i, m in enumerate(members):
    mk.log_density(m, 1)
    mk.log_density(m, 1, wrt=mk.root_measure(m, 1))
    mk.sample(m, i)
outside = {name.partition(".")[0] for name in sys.modules} - set(sys.stdlib_module_names)
print(json.dumps({"families": sorted(type(m).__name__ for m in members),
                  "declared": sorted(catalog.FAMILIES),
                  "outside": sorted(outside - {"__main__", "measurekit"})}))
"""


def test_the_runtime_imports_only_the_standard_library():
    done = subprocess.run([sys.executable, "-I", "-S", "-c", PROGRAM, str(SRC)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["families"] == report["declared"]  # one member of every family
    assert report["outside"] == []
