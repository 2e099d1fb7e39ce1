"""The whole-grid array pool of ``mixture.grid_buffer``.

A float array over a grid longer than ``mixture.EVAL_BLOCK`` comes from a
small pool, and a pooled array is handed out again only when the pool holds
its only reference. These tests pin both halves: no array (or view of one)
that a caller still holds is ever reused, and a dropped one is.
"""

import itertools
import mmap
import threading
import time
from unittest import mock

import numpy as np
import pytest

from mixorder import builtin_catalog, get_scenario, mixture, run_scenario
from mixorder.analysis import QUANTITIES, PairSample
from mixorder.mixture import EVAL_BLOCK, grid_buffer
from mixorder.scenarios import scenario_grid

N = 100001
#: every cached float array of a sample: its grid, its four curves and three ratios
FLOAT_SLOTS = ("x", "cdf_u", "cdf_v", "pdf_u", "pdf_v", "cdf_ratio", "pdf_ratio", "rhr_ratio")


def _full_sample(scenario_id, n=N):
    scenario = get_scenario(scenario_id)
    sample = PairSample(*scenario.mixtures(), scenario_grid(scenario, n))
    for slot in FLOAT_SLOTS:
        getattr(sample, slot)
    return sample


def test_two_live_samples_share_no_memory():
    samples = [_full_sample("EX4.2"), _full_sample("CE5.9")]
    arrays = [getattr(s, slot) for s in samples for slot in FLOAT_SLOTS]
    arrays += [column for s in samples for q in ("sf", "rhr") for column in QUANTITIES[q](s).values()]
    for a, b in itertools.combinations(arrays, 2):
        assert not np.shares_memory(a, b)


def test_held_columns_and_slices_keep_their_bits_after_every_scenario_runs():
    record = run_scenario(get_scenario("CE4.2"), N)  # an rh scenario: its column is cdf_ratio
    sample = _full_sample("EX5.7")
    held = [*record.curves.values(), sample.pdf_u[5:EVAL_BLOCK * 3], sample.rhr_ratio[::7]]
    want = [column.tobytes() for column in held]
    del sample
    for scenario in builtin_catalog():
        run_scenario(scenario, N)
    assert [column.tobytes() for column in held] == want


def test_a_dropped_sample_gives_its_curves_to_the_next():
    mixture._pool.clear()
    first = _full_sample("EX4.3")
    curves = {id(getattr(first, slot)) for slot in FLOAT_SLOTS[1:]}
    kept = first.x  # not pooled; holding it keeps the next grid from its memory
    del first
    second = _full_sample("EX4.3")
    assert {id(getattr(second, slot)) for slot in FLOAT_SLOTS[1:]} == curves
    assert not np.shares_memory(second.x, kept)


def test_a_held_array_or_view_is_not_reused():
    mixture._pool.clear()
    whole, part = grid_buffer((N,)), grid_buffer((N,))[10:20]
    fresh = grid_buffer((N,))
    assert not np.shares_memory(fresh, whole) and not np.shares_memory(fresh, part)
    del fresh
    assert grid_buffer((N,)) is mixture._pool[2]


def test_a_pooled_array_maps_pages_of_its_own():
    # not C heap memory, so holding it keeps no freed heap memory from the system
    assert isinstance(grid_buffer((N,)).base, mmap.mmap)
    assert grid_buffer((EVAL_BLOCK,)).base is None


def test_the_pool_keeps_at_most_its_size_and_one_shape():
    mixture._pool.clear()
    held = [grid_buffer((N,)) for _ in range(mixture._POOL_SIZE + 3)]
    assert [id(a) for a in mixture._pool] == [id(a) for a in held[-mixture._POOL_SIZE:]]
    other = grid_buffer((N + 1,))
    assert mixture._pool == [other]
    assert len({id(a) for a in held}) == len(held)


@pytest.mark.parametrize("n", [201, EVAL_BLOCK])
def test_grids_of_at_most_eval_block_points_never_touch_the_pool(n):
    grid_buffer((N,))
    before = [id(a) for a in mixture._pool]
    sample = _full_sample("EX5.7", n)
    columns = [*QUANTITIES["sf"](sample).values(), *QUANTITIES["rhr"](sample).values()]
    assert [id(a) for a in mixture._pool] == before
    arrays = [getattr(sample, slot) for slot in FLOAT_SLOTS] + columns
    assert not any(np.shares_memory(a, b) for a in arrays for b in mixture._pool)


def test_threads_never_hold_one_array_at_once():
    # more threads than cores take, hold and drop pooled arrays; the pool's
    # reference count is read slowly, so a second thread may look in between.
    # An array handed to two live holders at once is an error.
    held, guard, errors = set(), threading.Lock(), []
    read_counts = mixture._refcounts

    def slow_counts(arrays):
        counts = read_counts(arrays)
        time.sleep(1e-4)
        return counts

    def work():
        for _ in range(100):
            buf = grid_buffer((EVAL_BLOCK + 1,))
            with guard:
                if id(buf) in held:
                    errors.append(id(buf))
                held.add(id(buf))
            time.sleep(1e-4)
            with guard:
                held.discard(id(buf))

    mixture._pool.clear()
    threads = [threading.Thread(target=work) for _ in range(6)]
    with mock.patch.object(mixture, "_refcounts", slow_counts):
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(mixture._pool) <= mixture._POOL_SIZE
