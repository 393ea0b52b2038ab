"""Counter-based random streams and deterministic block parallelism.

Every Monte Carlo routine in the package draws from Philox substreams
keyed by (seed, block index). Work is split into fixed-size blocks of
BLOCK samples; block b always uses substream b and blocks are always
reassembled in block order, so results are byte-identical for any
thread count. Workers receive runs, contiguous lists of blocks, so a
sampler can advance several blocks as one array while each block keeps
its own substream.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import InputError, TooLarge

# Fixed block size. Changing it changes every sampled result, so it is
# part of the reproducibility contract, not a tuning knob.
BLOCK = 1024

# Most blocks in one run. It bounds the memory a worker holds at once;
# results do not depend on it.
RUN_BLOCKS = 16

# Most samples one call may ask for: the most stochastic.ORBIT_GUARD lets an
# orbit sampler take. `map_blocks` lists one tuple per block before any work.
SAMPLE_GUARD = 10**9

THREADS_ENV = "TORAL_DECAY_THREADS"


def substream(seed, index):
    """Independent generator for block `index` of stream `seed`.

    Philox is counter-based: distinct (key, counter) pairs give
    independent streams, so substreams never share mutable state.
    """
    seed = int(seed)
    index = int(index)
    if seed < 0 or seed >= 2**64:
        raise InputError("seed must be a 64-bit unsigned integer")
    if index < 0:
        raise InputError("substream index must be nonnegative")
    # The block index occupies the top 64 bits of the 256-bit counter,
    # leaving the low bits free for in-stream advancement.
    return np.random.Generator(np.random.Philox(key=seed, counter=index << 192))


def uniform64(gen, size):
    """Uniform uint64 words built from two 32-bit draws.

    Generator.integers with high=2**64 is not portable across dtype
    handling corner cases; two 32-bit halves are.
    """
    a = gen.integers(0, 2**32, size=size, dtype=np.uint64)
    b = gen.integers(0, 2**32, size=size, dtype=np.uint64)
    return (a << np.uint64(32)) | b


def run_draw(seed, run, draw_block):
    """draw() for a run: its blocks stacked, each drawn by
    draw_block(gen, count) from its own substream, as a one-block run would."""
    blocks = [(substream(seed, block), stop - start) for block, start, stop in run]
    return lambda: np.concatenate([draw_block(gen, count) for gen, count in blocks])


def resolve_threads(threads=None):
    """Thread count: explicit argument, else TORAL_DECAY_THREADS, else the
    CPUs this process may run on (its affinity set where the OS reports
    one, which reflects pinning and cpuset limits; else the host's count)."""
    if threads is None:
        env = os.environ.get(THREADS_ENV)
        if env is not None:
            threads = env
        elif hasattr(os, "sched_getaffinity"):
            return max(1, len(os.sched_getaffinity(0)))
        else:
            return max(1, os.cpu_count() or 1)
    try:
        threads = int(threads)
    except (TypeError, ValueError):
        raise InputError("thread count must be an integer") from None
    if threads < 1:
        raise InputError("thread count must be >= 1")
    return threads


def block_ranges(total):
    """(block_index, start, stop) triples covering range(total)."""
    blocks = []
    b = 0
    while b * BLOCK < total:
        blocks.append((b, b * BLOCK, min((b + 1) * BLOCK, total)))
        b += 1
    return blocks


def check_samples(total):
    """TooLarge where `total` samples exceed SAMPLE_GUARD."""
    if total > SAMPLE_GUARD:
        raise TooLarge("%d samples exceed the sample guard %d" % (total, SAMPLE_GUARD))


def map_blocks(total, worker, threads):
    """Run `worker(run)` over block_ranges(total) cut into runs.

    A run is a contiguous list of (block_index, start, stop) triples in
    block order: one run per thread, at most RUN_BLOCKS blocks in a run,
    run lengths differing by at most one block. Returns the per-run
    results in block order regardless of the thread count or scheduling,
    so a worker whose output per sample does not depend on how blocks
    are grouped gives byte-identical results for any thread count.
    `check_samples` runs first, before the blocks are listed.
    """
    check_samples(total)
    blocks = block_ranges(total)
    if not blocks:
        return []
    threads = resolve_threads(threads)
    count = max(min(threads, len(blocks)), -(-len(blocks) // RUN_BLOCKS))
    size, extra = divmod(len(blocks), count)
    runs, start = [], 0
    for r in range(count):
        stop = start + size + (r < extra)
        runs.append(blocks[start:stop])
        start = stop
    if threads == 1 or len(runs) <= 1:
        return [worker(run) for run in runs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, runs))
