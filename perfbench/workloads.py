"""Workload definitions: fixed op lists over the cstarlab pipelines.

One op generates one instance from (recipe, profile, ambient N, eps, seed),
runs one pipeline on it and serializes the report, which is what one
``cstarlab <pipeline> --recipe ... --algebra ... --dim ... --eps 1e-6`` call
does.  Every op of a run gets its own instance seed, derived from the
workload seed, the pass index and the op index, so no work is shared between
repeats.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

EPS = 1e-6


@dataclass(frozen=True)
class Op:
    recipe: str
    algebra: str
    ambient: int
    pipeline: str

    @property
    def label(self) -> str:
        return f"{self.pipeline} {self.recipe} {self.algebra}/{self.ambient}"

    @property
    def params(self) -> dict:
        return {"algebra": self.algebra, "ambient": self.ambient, "eps": EPS}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple[Op, ...]
    # Seconds one pass of `ops` takes at reference speed (speed.py); a run
    # makes max(1, seconds // pass_s) passes, so the amount of work is a
    # fixed function of --seconds.
    pass_s: float
    # A small op list with the same pipelines, for the benchmark's self-tests.
    smoke: tuple[Op, ...]


LADDER_PROFILES = (("M2", 4), ("M2+M1", 4), ("diag3", 4), ("M2+M2", 6),
                   ("3,3", 8), ("2,2,2", 8))
LADDER_PIPELINES = ("iso", "unitary", "oz-perturb", "oz-embed")
DIST_PROFILES = (("M2", 4), ("M2+M1", 4), ("3,3", 8), ("2,2,2", 8))

WORKLOADS = {w.name: w for w in (
    Workload(
        name="ladder",
        why="desk-scale ladder of four pipelines on six block profiles; many "
            "calls on 4x4-8x8 matrices, so per-call overhead shows",
        ops=tuple(Op("conjugation", alg, n, p)
                  for alg, n in LADDER_PROFILES for p in LADDER_PIPELINES),
        pass_s=14.5,
        smoke=tuple(Op("conjugation", "M2", 4, p) for p in LADDER_PIPELINES),
    ),
    Workload(
        name="dist-sampled",
        why="sampled distance brackets: witness search and SVDs only, no "
            "cpmaps or averaging, so those layers must show no change here",
        ops=tuple(Op("conjugation", alg, n, "dist") for alg, n in DIST_PROFILES),
        pass_s=13.5,
        smoke=(Op("conjugation", "M2", 4, "dist"),),
    ),
    Workload(
        name="scale",
        why="larger algebras: iso on many blocks (2,2,2,2/8, averaging) and "
            "on a large ambient (M6 in M12, Wedderburn memory)",
        ops=(Op("conjugation", "2,2,2,2", 8, "iso"),
             Op("block-rotation", "6", 12, "iso")),
        pass_s=22.0,
        smoke=(Op("conjugation", "2,2", 4, "iso"),
               Op("block-rotation", "2", 4, "iso")),
    ),
)}

# The untimed op every process runs once before timing starts.
WARMUP = Op("conjugation", "M2", 4, "iso")


def op_seed(workload: str, seed: int, pass_index: int, op_index: int) -> int:
    """Instance seed of one op: a fixed function of the workload seed."""
    key = f"{workload}:{seed}:{pass_index}:{op_index}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:4], "big") >> 1


def passes_for(workload: Workload, seconds: float) -> int:
    return max(1, int(seconds // workload.pass_s))
