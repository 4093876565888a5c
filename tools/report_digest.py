#!/usr/bin/env python3
"""Print the sha256 of every benchmark op's serialized report.

    python3 tools/report_digest.py SRC

SRC is the ``src`` directory of the tree to test, the parent of its
``cstarlab`` package; any other directory exits 2.  The op lists and instance
seeds come from this repository's ``perfbench/workloads.py``; every op of the
three workloads runs once, at workload seed 3000 and pass 0.  Diff the output
of two trees to see which reports a change moves.
"""

import hashlib
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def reports(src):
    """Yield (label, serialized report or None, exception name or None) for
    every op, running cstarlab from the tree src."""
    sys.path[:0] = [str(Path(src).resolve()),
                    str(Path(__file__).resolve().parents[1] / "perfbench")]
    from cstarlab import instances, pipelines, serialize
    from workloads import WORKLOADS, op_seed

    for name, workload in WORKLOADS.items():
        for i, op in enumerate(workload.ops):
            seed = op_seed(name, 3000, 0, i)
            try:
                inst = instances.gen_instance(op.recipe, op.params, seed=seed)
                text = serialize.dumps(pipelines.run_pipeline(inst, op.pipeline, seed=seed))
            except Exception as exc:  # a failing op is a result too
                yield f"{name} #{i} {op.label}", None, type(exc).__name__
            else:
                yield f"{name} #{i} {op.label}", text, None


if __name__ == "__main__":
    if not (Path(sys.argv[1]) / "cstarlab" / "__init__.py").is_file():
        print(f"report_digest.py: {sys.argv[1]} is not the parent directory of the "
              "cstarlab package (for example src)", file=sys.stderr)
        sys.exit(2)
    for label, text, error in reports(sys.argv[1]):
        digest = f"raised {error}" if text is None else hashlib.sha256(text.encode()).hexdigest()
        print(f"{label}: {digest}")
