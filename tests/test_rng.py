"""Counter-based substreams and deterministic block mapping."""

import math
import os
import threading

import numpy as np
import pytest

from toraldecay import rng
from toraldecay.errors import InputError, InternalError, TooLarge


def test_substream_reproducible_and_independent():
    a = rng.substream(7, 0).random(5)
    b = rng.substream(7, 0).random(5)
    assert np.array_equal(a, b)
    c = rng.substream(7, 1).random(5)
    assert not np.array_equal(a, c)
    d = rng.substream(8, 0).random(5)
    assert not np.array_equal(a, d)


def test_substream_validation():
    with pytest.raises(InputError):
        rng.substream(-1, 0)
    with pytest.raises(InputError):
        rng.substream(2**64, 0)
    with pytest.raises(InputError):
        rng.substream(0, -1)


def test_uniform64_spans_high_bits():
    gen = rng.substream(0, 0)
    vals = rng.uniform64(gen, 4000)
    assert vals.dtype == np.uint64
    # both 32-bit halves are populated
    assert int(vals.max()) > 2**63
    assert np.any((vals & np.uint64(0xFFFFFFFF)) != 0)


def test_block_ranges_cover():
    assert rng.block_ranges(0) == []
    blocks = rng.block_ranges(2500)
    assert blocks[0] == (0, 0, 1024)
    assert blocks[-1] == (2, 2048, 2500)
    covered = sum(stop - start for _, start, stop in blocks)
    assert covered == 2500


def test_map_blocks_order_independent_of_threads():
    def worker(run):
        return [(block, stop - start) for block, start, stop in run]

    serial = [blk for run in rng.map_blocks(5000, worker, threads=1) for blk in run]
    parallel = [blk for run in rng.map_blocks(5000, worker, threads=8) for blk in run]
    assert serial == parallel
    assert [b for b, _ in serial] == sorted(b for b, _ in serial)
    # runs are contiguous, in block order, capped, and cover every block once
    for total in (1, 5000, 3 * rng.RUN_BLOCKS * rng.BLOCK + 1, 200 * rng.BLOCK):
        blocks = rng.block_ranges(total)
        for threads in range(1, 9):
            runs = rng.map_blocks(total, lambda run: run, threads)
            assert [blk for run in runs for blk in run] == blocks
            assert all(1 <= len(run) <= rng.RUN_BLOCKS for run in runs)
            want = max(min(threads, len(blocks)), math.ceil(len(blocks) / rng.RUN_BLOCKS))
            assert len(runs) == want
            assert max(map(len, runs)) - min(map(len, runs)) <= 1


def test_map_blocks_refuses_samples_past_the_guard_before_listing_blocks(monkeypatch):
    def unreachable(*args):
        raise AssertionError("called past the sample guard")

    monkeypatch.setattr(rng, "block_ranges", unreachable)
    with pytest.raises(TooLarge, match="sample guard"):
        rng.map_blocks(rng.SAMPLE_GUARD + 1, unreachable, 1)
    rng.check_samples(rng.SAMPLE_GUARD)


def test_resolve_threads(monkeypatch):
    assert rng.resolve_threads(3) == 3
    monkeypatch.setenv(rng.THREADS_ENV, "2")
    assert rng.resolve_threads() == 2
    monkeypatch.delenv(rng.THREADS_ENV)
    assert rng.resolve_threads() >= 1
    with pytest.raises(InputError):
        rng.resolve_threads(0)
    with pytest.raises(InputError):
        rng.resolve_threads("many")


def test_resolve_threads_counts_only_usable_cpus(monkeypatch):
    # a process pinned to one CPU gets one worker, however many the host has
    monkeypatch.delenv(rng.THREADS_ENV, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert rng.resolve_threads() == 1
    monkeypatch.setenv(rng.THREADS_ENV, "3")
    assert rng.resolve_threads() == 3


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _block_sizes(run):
    return [(block, stop - start) for block, start, stop in run]


def test_map_blocks_forks_at_most_one_child_per_spare_cpu(monkeypatch):
    runs = [[(b, 0, 1)] for b in range(200)]
    groups = rng.run_groups(runs, 10**6)
    assert len(groups) == min(len(runs), rng.usable_cpus())
    assert [run for group in groups for run in group] == runs
    assert len(rng.run_groups(runs, 1)) == 1
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(rng, "usable_cpus", lambda: 3)
    got = rng.map_blocks(200 * rng.BLOCK, _block_sizes, 10**6)
    assert [blk for run in got for blk in run] == _block_sizes(rng.block_ranges(200 * rng.BLOCK))
    assert len(forks) == 2
    _no_child_left()


def test_map_blocks_surfaces_a_failing_child_with_its_traceback(monkeypatch):
    monkeypatch.setattr(rng, "usable_cpus", lambda: 2)

    def worker(run):
        if run[0][0]:  # only the second run, which a child computes
            raise ValueError("no block %d" % run[0][0])
        return len(run)

    with pytest.raises(InternalError, match=r"(?s)Traceback.*ValueError: no block 3"):
        rng.map_blocks(5 * rng.BLOCK, worker, 2)
    _no_child_left()

    def dies(run):
        if run[0][0]:
            os._exit(7)
        return len(run)

    with pytest.raises(InternalError, match="exit code 7"):
        rng.map_blocks(5 * rng.BLOCK, dies, 2)
    _no_child_left()

    def parent_fails(run):
        if not run[0][0]:
            raise ValueError("in the calling process")
        return len(run)

    with pytest.raises(ValueError, match="calling process"):
        rng.map_blocks(5 * rng.BLOCK, parent_fails, 2)
    _no_child_left()


def test_map_blocks_runs_in_process_without_fork_or_with_threads_alive(monkeypatch):
    monkeypatch.setattr(rng, "usable_cpus", lambda: 2)
    blocks = rng.block_ranges(5 * rng.BLOCK)
    want = [_block_sizes(blocks[:3]), _block_sizes(blocks[3:])]  # two runs, one process

    def unreachable():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", unreachable)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert rng.map_blocks(5 * rng.BLOCK, _block_sizes, 2) == want
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    monkeypatch.delattr(os, "fork")
    assert rng.map_blocks(5 * rng.BLOCK, _block_sizes, 2) == want
