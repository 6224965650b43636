from __future__ import annotations

import importlib.util
import sys
import tracemalloc
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from deltaring import core, subsets


@pytest.fixture(autouse=True)
def empty_table_memos():
    """Every test starts from an empty registry of table memos, so a ring
    that a test makes computes its element sets instead of reading values
    that an earlier test computed on equal tables.  Rings made before keep
    the memos they hold."""
    subsets._TABLE_MEMOS.clear()


@pytest.fixture
def computed(monkeypatch):
    """The (ring label, memo key) of each value that `subsets._memo`
    computes, rather than reads, while the test runs, in order."""
    runs = []
    memo = subsets._memo

    def spy(ring, key, compute, shared=True):
        def run():
            runs.append((ring.label, key))
            return compute()
        return memo(ring, key, run, shared)

    monkeypatch.setattr(subsets, "_memo", spy)
    return runs


@pytest.fixture
def full_passes(monkeypatch):
    """The ("left" or "right", g) of each full distributivity pass,
    `core._left_pass` or `core._right_pass`, that the test runs, in order."""
    calls = []
    for side in ("left", "right"):
        real = getattr(core, f"_{side}_pass")

        def spy(add, mul, g, real=real, side=side):
            calls.append((side, g))
            return real(add, mul, g)

        monkeypatch.setattr(core, f"_{side}_pass", spy)
    return calls


def bench_pool():
    """bench/pool.py, which holds the benchmark's inspect pool."""
    spec = importlib.util.spec_from_file_location(
        "bench_pool", Path(__file__).parent.parent / "bench" / "pool.py")
    pool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pool)
    return pool


def traced_peak(fn, *args) -> int:
    """The peak of the memory traced while `fn(*args)` runs, in bytes;
    numpy reports its array buffers to `tracemalloc`.  Tracing is stopped
    on the way out, also when `fn` raises."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def cell_offset(text: str, table: str, i: int, j: int) -> int:
    """Where the token of cell (i, j) of `table` starts in the compact dump
    `text`."""
    at = text.index(f'"{table}":[[') + len(table) + 5
    for _ in range(i):
        at = text.index("],[", at) + 3
    for _ in range(j):
        at = text.index(",", at) + 1
    return at


def zmod_tables(m: int):
    add = [[(i + j) % m for j in range(m)] for i in range(m)]
    mul = [[(i * j) % m for j in range(m)] for i in range(m)]
    return add, mul


@pytest.fixture(scope="session")
def zmod():
    cache: dict[int, core.FiniteRing] = {}

    def build(m: int) -> core.FiniteRing:
        if m not in cache:
            add, mul = zmod_tables(m)
            cache[m] = core.validate_ring(add, mul, 0, 1, label=f"Z{m}")
        return cache[m]

    return build
