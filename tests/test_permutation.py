import __future__
import re
import types
from itertools import permutations
from math import comb

import pytest
from hypothesis import given

import sytkit
import sytkit.permutation as permutation
from conftest import words
from product_oracle import interleavings
from sytkit.permutation import (
    CAPS,
    ParseError,
    check_word,
    descents_left,
    evac_word,
    format_word,
    inverse,
    parse_word,
)
from sytkit.tableau import insertion_tableau, rsk
from word_oracle import (
    dual_knuth_move_word,
    inversions_left,
    knuth_neighbors,
    restrict_standardize,
    weak_covers,
)


def dual_moves(u):
    """Every single dual Knuth move of u, by triple start."""
    des = descents_left(u)
    return [
        dual_knuth_move_word(u, i)
        for i in range(1, len(u) - 1)
        if (i in des) != ((i + 1) in des)
    ]


# --- public names -------------------------------------------------------------

SYTKIT_NAMES = [
    "Cell", "Interval", "InvariantError", "KnuthClass", "ParseError", "PlacticSum",
    "Rows", "Shape", "SkewTableau", "TableauPoset", "VerificationReport", "Word",
    "all_standard_tableaux", "beside", "build_poset", "cached_poset",
    "check_monotone_descent", "check_monotone_shape", "corners", "descent_set",
    "descents_left", "dominance_leq", "dual_knuth_move", "evac_word", "evacuate",
    "format_skew", "format_tableau", "format_word", "induced_covers", "inner_tableau",
    "inner_translate", "insert", "insertion_tableau", "interval", "interval_product",
    "inverse", "is_hook", "jdt_slide", "jdt_slide_trace", "knuth_class", "leq", "over",
    "parse_skew", "parse_tableau", "parse_word", "partitions", "plactic_product",
    "poset_to_json", "product_interval", "rectify", "restrict", "reverse_insert",
    "row_word", "rsk", "shape_of", "standard_tableaux", "to_dot", "transpose",
    "verify_antisymmetry", "verify_descents_constant", "verify_dual_knuth_connectivity",
    "verify_evac_transpose_monotone", "verify_hook_eta", "verify_inner_tableau_translation",
    "verify_inner_translation_fails", "verify_interval_isomorphism",
    "verify_restriction_insertion", "verify_restriction_monotone", "verify_special_cases",
    "verify_structural",
]

PERMUTATION_NAMES = [
    "CAPS", "InvariantError", "ParseError", "Word", "check_int", "check_range",
    "check_word", "descents_left", "evac_word", "format_word", "inverse", "parse_word",
]


def public_names(module):
    """The names a module offers: not underscored, not a submodule, not the
    ``annotations`` flag of a ``from __future__`` import."""
    return sorted(
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and not isinstance(obj, types.ModuleType)
        and obj is not __future__.annotations
    )


def test_public_names_are_pinned():
    # the word-level oracles live in tests/word_oracle.py; a new export
    # must show up here as a deliberate change
    assert public_names(sytkit) == SYTKIT_NAMES
    assert public_names(permutation) == PERMUTATION_NAMES


# --- parsing / formatting ---------------------------------------------------

def test_parse_compact_and_commas():
    assert parse_word("52413") == (5, 2, 4, 1, 3)
    assert parse_word("5,2,4,1,3") == (5, 2, 4, 1, 3)
    assert parse_word("10,9,8,7,6,5,4,3,2,1") == (10, 9, 8, 7, 6, 5, 4, 3, 2, 1)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_word("12x3")
    assert err.value.position == 2
    with pytest.raises(ParseError) as err:
        parse_word("1,2,x,4")
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse_word("122")  # not a bijection


@pytest.mark.parametrize(
    "text, position",
    [("21\u00b3", 2), ("2\u0661", 1), ("\uff12\uff11", 0), ("2,1,\u00b3", 4), ("1,\u0662", 2), ("2, \u0663", 2)],
    ids=["compact-superscript", "compact-arabic-indic", "compact-fullwidth",
         "comma-superscript", "comma-arabic-indic", "comma-spaced"],
)
def test_parse_word_takes_ascii_digits_only(text, position):
    # str.isdigit and int take these digits too; the literal must refuse
    # each at its character or token, as a ParseError
    with pytest.raises(ParseError) as err:
        parse_word(text)
    assert err.value.position == position


def test_format_roundtrip():
    assert format_word((5, 2, 4, 1, 3)) == "52413"
    long = tuple(range(10, 0, -1))
    assert parse_word(format_word(long)) == long


def test_the_caps_are_pinned():
    # the other cap tests read their bounds from CAPS; this one keeps the
    # values fixed, so that moving a cap is a deliberate change
    assert permutation.CAPS == {"word": 10, "lift": 9, "order": 9}


def test_check_range_checks_the_integer_first():
    assert permutation.check_range(3, 1, 3, "n") == 3
    with pytest.raises(ValueError, match=r"^n must be in 1\.\.3$"):
        permutation.check_range(4, 1, 3, "n")
    with pytest.raises(ValueError, match=r"^k must be in 2\.\.3$"):
        permutation.check_range(1, 2, 3, "k")
    for bad in (True, 2.0, "2"):
        with pytest.raises(ValueError, match=f"^n must be an integer, got {re.escape(repr(bad))}$"):
            permutation.check_range(bad, 1, 3, "n")


def test_check_word_guards():
    with pytest.raises(ValueError):
        check_word(())
    with pytest.raises(ValueError):
        check_word(range(1, CAPS["word"] + 2))
    with pytest.raises(ValueError):
        check_word((1, 3))


# --- inversions and the weak order -------------------------------------------
# u <= w in the right weak order iff the left inversion set of u is contained
# in that of w

def test_inversions_identity_and_231():
    assert inversions_left((1, 2, 3)) == frozenset()
    assert inversions_left((2, 3, 1)) == frozenset({(1, 2), (1, 3)})


def test_inversion_count_extremes():
    n = 5
    assert len(inversions_left(tuple(range(1, n + 1)))) == 0
    assert len(inversions_left(tuple(range(n, 0, -1)))) == n * (n - 1) // 2


def test_weak_leq_examples():
    assert inversions_left(parse_word("34125")) <= inversions_left(parse_word("34215"))
    assert not inversions_left((2, 1, 3)) <= inversions_left((3, 1, 2))
    assert not inversions_left((3, 1, 2)) <= inversions_left((2, 1, 3))


def test_weak_order_axioms_exhaustive_n6():
    perms = list(permutations(range(1, 7)))
    invs = [inversions_left(u) for u in perms]
    ups = []
    for a in range(len(perms)):
        mask = 0
        for b in range(len(perms)):
            if invs[a] <= invs[b]:
                mask |= 1 << b
        ups.append(mask)
    for a in range(len(perms)):
        assert ups[a] >> a & 1  # reflexive
        rest = ups[a] & ~(1 << a)
        while rest:
            low = rest & -rest
            b = low.bit_length() - 1
            rest ^= low
            assert not (ups[b] >> a & 1)  # antisymmetric
            assert ups[b] & ~ups[a] == 0  # transitive


def test_weak_covers_examples():
    assert set(weak_covers((1, 2, 3))) == {(2, 1, 3), (1, 3, 2)}
    assert weak_covers((3, 2, 1)) == []
    assert parse_word("34215") in weak_covers(parse_word("34125"))


@given(words())
def test_weak_covers_increase_length_by_one(u):
    for w in weak_covers(u):
        assert len(inversions_left(w)) == len(inversions_left(u)) + 1
        assert inversions_left(u) < inversions_left(w)


# --- descents, segments -------------------------------------------------------

def test_descents_examples():
    assert descents_left((1, 2, 3, 4)) == frozenset()
    assert descents_left((2, 1, 3)) == frozenset({1})


def test_restrict_standardize_examples():
    w = parse_word("52413")
    assert restrict_standardize(w, 2, 5) == (4, 1, 3, 2)
    assert restrict_standardize(w, 1, 5) == w
    assert restrict_standardize(w, 1, 2) == (2, 1)
    with pytest.raises(ValueError):
        restrict_standardize(w, 3, 3)


@given(words(min_n=2))
def test_restrict_standardize_full_segment(u):
    assert restrict_standardize(u, 1, len(u)) == u


def test_segment_restriction_is_weak_order_monotone_n5():
    perms = list(permutations(range(1, 6)))
    invs = {u: inversions_left(u) for u in perms}
    pairs = [(u, w) for u in perms for w in perms if invs[u] < invs[w]]
    for u, w in pairs[::7]:  # sampled for speed; dense enough
        for i in range(1, 5):
            for j in range(i + 1, 6):
                assert inversions_left(restrict_standardize(u, i, j)) <= inversions_left(
                    restrict_standardize(w, i, j)
                )


# --- Knuth moves ---------------------------------------------------------------

def test_knuth_neighbors_examples():
    assert knuth_neighbors((2, 1, 3)) == [(2, 3, 1)]
    assert knuth_neighbors((1, 2, 3)) == []
    assert parse_word("34125") in knuth_neighbors(parse_word("31425"))


@given(words(min_n=3))
def test_knuth_neighbors_symmetric(u):
    for v in knuth_neighbors(u):
        assert u in knuth_neighbors(v)


@given(words(min_n=3, max_n=7))
def test_knuth_moves_fix_insertion_tableau(u):
    for v in knuth_neighbors(u):
        assert insertion_tableau(u) == insertion_tableau(v)


def test_knuth_and_dual_moves_exhaustive_n6():
    for u in permutations(range(1, 7)):
        for v in knuth_neighbors(u):
            assert insertion_tableau(u) == insertion_tableau(v)
        for v in dual_moves(u):
            assert rsk(u)[1] == rsk(v)[1]


def test_dual_knuth_neighbors_examples():
    assert dual_moves((2, 1, 3)) == [(3, 1, 2)]


@given(words(min_n=3))
def test_dual_knuth_is_knuth_on_inverses(u):
    got = dual_moves(u)
    assert got == [inverse(v) for v in knuth_neighbors(inverse(u))]


@given(words(min_n=3, max_n=6))
def test_dual_knuth_moves_fix_recording_tableau(u):
    for v in dual_moves(u):
        assert rsk(u)[1] == rsk(v)[1]


@given(words(min_n=3))
def test_dual_knuth_move_word_triple_route(u):
    des = descents_left(u)
    for i in range(1, len(u) - 1):
        if (i in des) != ((i + 1) in des):
            moved = dual_knuth_move_word(u, i)
            assert inverse(moved) in knuth_neighbors(inverse(u))
            assert dual_knuth_move_word(moved, i) == u
        else:
            with pytest.raises(ValueError):
                dual_knuth_move_word(u, i)


# --- reversal and complement ----------------------------------------------------

def test_transpose_and_evac_words():
    assert evac_word(parse_word("52413")) == parse_word("35241")


@given(words())
def test_word_involutions(u):
    assert evac_word(evac_word(u)) == u
    assert inverse(inverse(u)) == u


# --- shuffles: the riffles of the product oracle, the second word shifted ------

def test_shuffle_trivial():
    assert set(interleavings((1,), (2,))) == {(1, 2), (2, 1)}


def test_shuffle_example_preshifted():
    got = interleavings((3, 1, 2), (5, 4))
    assert len(got) == 10
    assert parse_word("31254") in got
    assert parse_word("53124") in got


@given(words(max_n=4), words(max_n=4))
def test_shuffle_count_and_distinct(u, w):
    got = interleavings(u, tuple(x + len(u) for x in w))
    assert len(got) == comb(len(u) + len(w), len(u))
    assert len(set(got)) == len(got)
    assert all(sorted(word) == list(range(1, len(word) + 1)) for word in got)


def test_interleavings_keep_orders():
    for word in interleavings((1, 3), (2, 4)):
        assert word.index(1) < word.index(3)
        assert word.index(2) < word.index(4)


# --- validation at the boundary ------------------------------------------------

@pytest.mark.parametrize(
    "word, letter",
    [((2.9, 1.0), "2.9"), ((2, 1.0), "1.0"), ((True, 2), "True"), (("2", 1), "'2'")],
    ids=["float", "integral-float", "bool", "str"],
)
def test_check_word_refuses_non_int_letters(word, letter):
    # the letters are not coerced: (2.9, 1.0) once came back as (2, 1)
    with pytest.raises(ValueError, match=f"word letters must be integers, got {re.escape(letter)}$"):
        check_word(word)


def test_restrict_standardize_checks_its_word():
    # (1, 1, 7) once restricted to (1, 1)
    with pytest.raises(ValueError, match=r"not a permutation of 1\.\.3"):
        restrict_standardize((1, 1, 7), 1, 2)
    with pytest.raises(ValueError, match="word letters must be integers"):
        restrict_standardize((2.0, 1, 3), 1, 2)


def test_dual_knuth_move_word_checks_its_word():
    # (3, 4, 5) once raised IndexError
    with pytest.raises(ValueError, match=r"not a permutation of 1\.\.3"):
        dual_knuth_move_word((3, 4, 5), 1)
    with pytest.raises(ValueError, match="word letters must be integers"):
        dual_knuth_move_word((1, 3.0, 2), 1)
