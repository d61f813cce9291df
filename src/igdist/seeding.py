"""Deterministic seed derivation for parallel Monte Carlo stages.

Every randomized stage owns substreams addressed by (master seed, stage
tag, block index), derived statelessly and bit-exactly on any platform.
`replicate_blocks` alone indexes them: iid replicates run in blocks of a
size fixed by the stage, block b on (seed, tag, b), so results never
depend on worker count.  A one-stream stage is block 0, (seed, tag).
`_generator` is the one place a seed becomes a numpy Generator.
"""

from __future__ import annotations

import functools

import numpy as np

from .model import _integer

_MASK = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK
    return h


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def derive_seed(master: int, tag: str, replicate: int = 0) -> int:
    """Mix (master, tag, replicate) into a 64-bit substream seed."""
    master = _integer(master, "seed")
    replicate = _integer(replicate, "replicate", 0)
    z = _splitmix64(master & _MASK)
    z = _splitmix64(z ^ _fnv1a64(tag.encode("utf-8")))
    z = _splitmix64(z ^ (replicate & _MASK))
    return z


def _generator(seed) -> np.random.Generator:
    """The stream of a sampler's `seed`: a numpy Generator passes
    through, to be advanced by the draw; anything else must be an
    integer >= 0 and seeds a fresh Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(_integer(seed, "seed", 0))


def _run_block(fn, seed: int, tag: str, block: int, count: int):
    return fn(_generator(derive_seed(seed, tag, block)), count)


def replicate_blocks(fn, reps: int, block: int, seed: int, tag: str) -> list:
    """`reps` replicates as argument-free jobs: job b returns fn(rng, count)
    for its count <= block replicates, rng on the substream (seed, tag, b).
    Join the jobs' results in job order."""
    reps = _integer(reps, "reps", 1)
    seed = _integer(seed, "seed")
    return [
        functools.partial(_run_block, fn, seed, tag, b, min(block, reps - lo))
        for b, lo in enumerate(range(0, reps, block))
    ]
