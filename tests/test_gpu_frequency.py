"""Frequency-table semantics: ordering, lookup, subsampling."""

import pytest

from repro.exceptions import ConfigurationError
from repro.gpu.frequency import FrequencyTable


def test_from_range_includes_endpoints():
    table = FrequencyTable.from_range(210, 1410, 15)
    assert table.min == 210
    assert table.max == 1410
    assert 1410 in table


def test_from_range_uneven_top_is_pinned():
    table = FrequencyTable.from_range(200, 333, 100)
    assert list(table) == [200, 300, 333]


def test_rejects_empty_and_nonpositive():
    with pytest.raises(ConfigurationError):
        FrequencyTable(())
    with pytest.raises(ConfigurationError):
        FrequencyTable((0, 100))


def test_deduplicates_and_sorts():
    table = FrequencyTable((300, 100, 300, 200))
    assert list(table) == [100, 200, 300]


def test_descending_order():
    table = FrequencyTable.from_range(100, 130, 15)
    assert table.descending() == [130, 115, 100]


def test_index_exact_only():
    table = FrequencyTable((100, 200))
    assert table.index(200) == 1
    with pytest.raises(ValueError):
        table.index(150)


def test_subsample_keeps_endpoints():
    table = FrequencyTable.from_range(210, 1410, 15)
    coarse = table.subsample(8)
    assert coarse.min == 210
    assert coarse.max == 1410
    assert len(coarse) < len(table)
    assert set(coarse).issubset(set(table))
