"""Counter-based random streams and deterministic block parallelism.

Every Monte Carlo routine in the package draws from Philox substreams
keyed by (seed, block index). Work is split into fixed-size blocks of
BLOCK samples; block b always uses substream b and blocks are always
reassembled in block order, so results are byte-identical for any
worker count. Workers receive runs, contiguous lists of blocks, so a
sampler can advance several blocks as one array while each block keeps
its own substream.

The runs of a call are cut into contiguous groups, at most one per
usable CPU. The calling process computes the first group and forked
worker processes compute the others, each sending its results back
through a pipe, so the workers never share an interpreter lock. Where
`os.fork` is missing or other threads are alive in the process, the
groups run in order in the calling process.
"""

import contextlib
import os
import pickle
import signal
import threading
import traceback

import numpy as np

from .errors import InputError, InternalError, TooLarge

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


def usable_cpus():
    """The CPUs this process may run on: its affinity set where the OS
    reports one, which reflects pinning and cpuset limits; else the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def resolve_threads(threads=None):
    """Worker count: explicit argument, else TORAL_DECAY_THREADS, else
    `usable_cpus()`."""
    if threads is None:
        threads = os.environ.get(THREADS_ENV)
        if threads is None:
            return usable_cpus()
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
    block order: one run per worker, at most RUN_BLOCKS blocks in a run,
    run lengths differing by at most one block. The runs are split into
    `run_groups`; the calling process runs the first group and a forked
    worker process each other group (see the module docstring). Returns
    the per-run results in block order regardless of the worker count,
    so a worker whose output per sample does not depend on how blocks
    are grouped gives byte-identical results for any worker count. A
    worker's results must pickle, and a worker process that fails or
    dies raises InternalError with its traceback. `check_samples` runs
    first, before the blocks are listed.
    """
    check_samples(total)
    blocks = block_ranges(total)
    if not blocks:
        return []
    threads = resolve_threads(threads)
    count = max(min(threads, len(blocks)), -(-len(blocks) // RUN_BLOCKS))
    runs = _cut(blocks, count)
    groups = run_groups(runs, threads)
    if len(groups) == 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [worker(run) for run in runs]
    return _forked(worker, groups)


def _cut(items, count):
    """`items` cut into `count` contiguous parts whose lengths differ by at most one."""
    size, extra = divmod(len(items), count)
    parts, start = [], 0
    for r in range(count):
        stop = start + size + (r < extra)
        parts.append(items[start:stop])
        start = stop
    return parts


def run_groups(runs, threads):
    """`runs` cut into min(threads, len(runs), usable_cpus()) contiguous groups,
    one for each process that computes them."""
    return _cut(runs, min(threads, len(runs), usable_cpus()))


def _forked(worker, groups):
    """[worker(run) for run in runs], the first group in this process and each
    other group in a forked child; every child is reaped before this returns."""
    children = []  # (pid, read end of its pipe) of each child not yet reaped
    try:
        for group in groups[1:]:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read)
                _child(worker, group, write)
            os.close(write)
            children.append((pid, read))
        results = [worker(run) for run in groups[0]]
        while children:
            pid, read = children[0]
            with open(read, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            os.close(children.pop(0)[1])
            results.extend(_child_results(data, status))
        return results
    finally:
        for pid, read in children:  # left only after an error: stop and reap them
            with contextlib.suppress(OSError):
                os.close(read)
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(OSError):
                os.waitpid(pid, 0)


def _child(worker, group, write):
    """Body of a forked worker: pickle (True, results) or (False, traceback)
    into the pipe `write`, then leave through os._exit, never returning."""
    code = 1
    try:
        try:
            data = pickle.dumps((True, [worker(run) for run in group]), pickle.HIGHEST_PROTOCOL)
            code = 0
        except BaseException:  # the parent raises it; this process only reports it
            data = pickle.dumps((False, traceback.format_exc()))
        with open(write, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(code)


def _child_results(data, status):
    """A child's results from its pipe bytes and wait status; InternalError
    with the child's traceback where it failed or died."""
    code = os.waitstatus_to_exitcode(status)
    try:
        ok, value = pickle.loads(data)
    except Exception:  # a child that died sent nothing whole
        ok, value = False, "(no result received)"
    if ok and code == 0:
        return value
    raise InternalError("worker process failed with exit code %d:\n%s" % (code, value))
