"""Regenerate perfbench/references.json from a full classification.

    python3 perfbench/make_references.py [--workers N]

The references hold only seed-invariant results: certificate hashes,
Dirichlet-Voronoi (DV) incidence hashes with their f-vectors, the mass and
the task count of a d = 3 run, and the hashes of the d = 4 run. They are
made once, at the commit recorded in the file, and the benchmark checks every
item against them. The d = 4 classification takes several minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from lcone.classify import Classifier, distinctness_check, mass_check  # noqa: E402
from lcone.exact import Rat  # noqa: E402
from lcone.scone import sym_dim  # noqa: E402


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def summarize(d: int, workers: int) -> dict:
    clf = Classifier(d, workers=workers)
    db = clf.classify()
    distinct, _ = distinctness_check(db)
    prim = db.by_dim[sym_dim(d)]
    return {
        "total": db.total(),
        "tasks": clf._completed,
        "mass": str(mass_check(db).total),
        "distinct": distinct,
        "primitive_cert_hashes": sorted(r.cert_hash for r in prim),
        "primitive_central": [list(r.cone.central.lower()) for r in
                              sorted(prim, key=lambda r: r.cert_hash)],
        "cert_hashes": sorted(r.cert_hash for r in db.records()),
        "dv": sorted([r.dv_hash, list(r.f_vector)] for r in db.records()),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()
    refs = {"made_by": {
        "command": "python3 perfbench/make_references.py "
                   f"--workers {args.workers}",
        "commit": git_commit(),
        "python": platform.python_version(),
        "rat": f"{Rat.__module__}.{Rat.__qualname__}",
    }}
    for d in (3, 4):
        t0 = time.perf_counter()
        refs[f"d{d}"] = summarize(d, args.workers)
        print(f"d = {d}: {refs[f'd{d}']['total']} classes in "
              f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
