from array import array
from contextlib import contextmanager

import hypothesis.strategies as st
import pytest
from hypothesis import settings

from sytkit import weakorder
from sytkit.tableau import insertion_tableau

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


def words_of_size(n: int):
    return st.permutations(tuple(range(1, n + 1))).map(tuple)


@st.composite
def words(draw, min_n=1, max_n=7):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    return draw(words_of_size(n))


@st.composite
def tableaux(draw, min_n=1, max_n=7):
    return insertion_tableau(draw(words(min_n=min_n, max_n=max_n)))


@st.composite
def segments(draw, n: int):
    i = draw(st.integers(min_value=1, max_value=n - 1))
    j = draw(st.integers(min_value=i + 1, max_value=n))
    return (i, j)


class _BrokenSize:
    """A size record of the lift with its own column tables: every other
    field is read from the shared record, so the fields made from the
    tables (evacuation, the one-step tables, the moves) stay as the shared
    record makes them."""

    def __init__(self, shared, tables):
        self.shared, self.tables = shared, tables

    def __getattr__(self, name):
        return getattr(self.shared, name)


def broken_lift(size, x, t, wrong):
    """``weakorder._size`` with entry t of the size-``size`` table of the
    letter x + 1 changed to ``wrong``, in a copy: the shared entry is kept.
    Tests patch it in where a module reads ``_size``."""
    shared_size = weakorder._size
    shared = shared_size(size)
    tables = [array(weakorder._ID_TYPECODE, table) for table in shared.tables]
    tables[x][t] = wrong
    broken = _BrokenSize(shared, tables)
    return lambda m: broken if m == size else shared_size(m)


def table_faults(sizes=(3, 4)):
    """Every single-entry change of the column tables of the given sizes,
    as the arguments of :func:`broken_lift`."""
    return [
        (size, x, t, wrong)
        for size in sizes
        for x, table in enumerate(weakorder._size(size).tables)
        for t, right in enumerate(table)
        for wrong in range(len(weakorder._size(size).nodes))
        if wrong != right
    ]


@contextmanager
def fresh_sizes():
    """Every size record of the lift dropped (``weakorder._reset_sizes``),
    so each is made afresh where it is read; the records made before are
    put back after, and those made inside dropped with whatever a test
    changed in them."""
    kept = dict(weakorder._SIZES)
    weakorder._reset_sizes()
    try:
        yield
    finally:
        weakorder._reset_sizes()
        weakorder._SIZES.update(kept)


@pytest.fixture
def fresh_lift():
    """The test runs on size records made afresh (:func:`fresh_sizes`)."""
    with fresh_sizes():
        yield


def made(field):
    """The sizes whose records hold ``field`` already made, in order."""
    return sorted(k for k, size in weakorder._SIZES.items() if field in vars(size))
