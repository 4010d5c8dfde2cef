"""Time one set-up of a workload in a fresh process and print it as JSON.

Set-up is `import mcsd` plus the inputs a workload builds before its first
step, through public calls: `objectives.make_brockett` and
`bench.initial_points` for pca-*, `make_brockett(50, 3, 200, 7)` for
verify-full. numpy is imported first: its import is the dependency's, not
the program's. Usage: setup_probe.py SRC_DIR (pca CONFIG | verify)
"""

import json
import sys
import time

import numpy  # noqa: F401

src, kind = sys.argv[1], sys.argv[2]
sys.path.insert(0, src)
tic = time.perf_counter()
import mcsd  # noqa: E402,F401
from mcsd import bench, manifolds, objectives  # noqa: E402

if kind == "verify":
    objectives.make_brockett(50, 3, 200, 7)
else:
    cfg = bench.load_config(sys.argv[3])
    objectives.make_brockett(cfg.n, cfg.p, cfg.d, cfg.data_seed)
    bench.initial_points(cfg, manifolds.StiefelManifold(cfg.n, cfg.p))
print(json.dumps({"setup_s": time.perf_counter() - tic}))
