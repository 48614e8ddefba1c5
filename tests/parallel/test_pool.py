"""Tests for the worker-count and work-dealing helpers."""

import pytest

from repro.parallel.pool import default_workers, round_robin_batches


class TestDefaultWorkers:
    def test_default_workers_positive(self):
        assert default_workers() >= 1


class TestRoundRobinBatches:
    def test_every_item_dealt_once_in_order(self):
        batches = round_robin_batches(list(range(7)), 3)
        assert batches == [(0, 3, 6), (1, 4), (2, 5)]
        assert sorted(i for b in batches for i in b) == list(range(7))

    def test_rejects_no_batches(self):
        with pytest.raises(ValueError):
            round_robin_batches([1, 2], 0)
