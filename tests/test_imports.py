import json
import os
import subprocess
import sys
from pathlib import Path

import covdesign

LAZY = ("networkx", "scipy.integrate", "scipy.sparse", "scipy.sparse.csgraph", "multiprocessing")


def test_import_loads_no_enumeration_or_clustering_only_module():
    """`import covdesign` (and the CLI) must not pay for modules that only
    enumeration, Louvain or the Monte Carlo engine need (scipy's sparse
    matrices among them), nor for networkx or multiprocessing, which
    covdesign no longer uses."""
    src = str(Path(covdesign.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import json, sys, covdesign, covdesign.cli; "
            f"print(json.dumps([m for m in {LAZY!r} if m in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert json.loads(out.stdout) == []
