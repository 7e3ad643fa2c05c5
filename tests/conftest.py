from array import array

import hypothesis.strategies as st
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


def broken_lift(size, x, t, wrong):
    """``weakorder._lifted`` with entry t of the size-``size`` table of the
    letter x + 1 changed to ``wrong``, in a copy: the shared entry is kept.
    Tests patch it in where a module reads ``_lifted``."""
    lifted = weakorder._lifted
    nodes, tables, ids_of = lifted(size)
    tables = [array(table.typecode, table) for table in tables]
    tables[x][t] = wrong
    return lambda m: (nodes, tables, ids_of) if m == size else lifted(m)


def table_faults(sizes=(3, 4)):
    """Every single-entry change of the column tables of the given sizes,
    as the arguments of :func:`broken_lift`."""
    return [
        (size, x, t, wrong)
        for size in sizes
        for x, table in enumerate(weakorder._lifted(size)[1])
        for t, right in enumerate(table)
        for wrong in range(len(weakorder._lifted(size)[0]))
        if wrong != right
    ]
