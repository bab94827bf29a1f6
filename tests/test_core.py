"""Domain types: alphabets, words, alignment columns, result records."""
import copy
import pickle
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nbhood import (
    DELETION,
    INSERTION,
    KIND_CONDENSED,
    KIND_FULL,
    MATCH,
    MISMATCH,
    Alignment,
    Alphabet,
    Column,
    NeighborhoodResult,
    RangeError,
    ValidationError,
    alphabet_of_size,
    canonical_sorted,
    make_alphabet,
    make_word,
)


def test_alphabet_rejects_malformed_specs():
    with pytest.raises(ValidationError):
        make_alphabet("")
    with pytest.raises(ValidationError):
        make_alphabet("aba")
    with pytest.raises(ValidationError):
        Alphabet(("ab",))
    for bad in ("-", "A", "!", " ", "0"):
        with pytest.raises(ValidationError):
            make_alphabet("a" + bad)


def test_alphabet_order_is_the_given_order():
    a = make_alphabet("cab")
    assert (a.rank("c"), a.rank("a"), a.rank("b")) == (0, 1, 2)
    assert "c" in a
    assert "z" not in a
    with pytest.raises(ValidationError):
        a.rank("z")


def test_alphabet_of_size_bounds():
    assert alphabet_of_size(3).spec() == "abc"
    assert alphabet_of_size(26).size == 26
    with pytest.raises(RangeError):
        alphabet_of_size(0)
    with pytest.raises(RangeError):
        alphabet_of_size(27)


def test_word_must_fit_alphabet():
    a = make_alphabet("ab")
    w = make_word("abba", a)
    assert len(w) == 4
    assert str(w) == "abba"
    # the set test passes a bad word to the letter loop, which names the
    # first bad letter
    for text, bad in (("abc", "c"), ("abzc", "z"), ("aab-", "-")):
        message = f"character {bad!r} of {text!r} is not in alphabet 'ab'"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            make_word(text, a)


def test_empty_word_is_allowed():
    assert len(make_word("", alphabet_of_size(2))) == 0


def test_subword_slicing():
    a = make_alphabet("ab")
    assert str(make_word("abba", a).sub(1, 3)) == "bb"


def test_canonical_order_prefers_prefixes_and_follows_ranks():
    # scrambled alphabet: rank order must win over codepoint order
    a = make_alphabet("ba")
    words = [make_word(t, a) for t in ("a", "b", "ba", "ab", "", "bb")]
    assert [str(w) for w in canonical_sorted(words)] == ["", "b", "bb", "ba", "a", "ab"]


@given(st.sampled_from(["ab", "ba"]), st.lists(st.text(alphabet="ab", max_size=4), unique=True))
def test_canonical_sorted_matches_rank_tuples(spec, texts):
    # over "ba", rank order is not code-point order
    a = make_alphabet(spec)
    out = canonical_sorted(make_word(t, a) for t in texts)
    assert [w.sort_key for w in out] == sorted(tuple(a.rank(c) for c in t) for t in texts)


def test_column_kinds():
    assert Column("a", "a").kind == MATCH
    assert Column("a", "b").kind == MISMATCH
    assert Column(None, "b").kind == INSERTION
    assert Column("a", None).kind == DELETION
    with pytest.raises(ValidationError):
        Column(None, None)


def test_alignment_cost_texts_and_rendering():
    al = Alignment(
        (
            Column("a", "a"),
            Column("l", "s"),
            Column(None, "s"),
            Column("i", "i"),
        )
    )
    assert al.cost == 2
    assert al.top_text == "ali"
    assert al.bottom_text == "assi"
    assert al.render() == "a l - i\na s s i"


def test_result_validates_order_count_and_member_length():
    a = alphabet_of_size(2)
    q = make_word("ab", a)
    ws = tuple(make_word(t, a) for t in ("a", "ab"))
    r = NeighborhoodResult(q, 1, KIND_FULL, 2, ws)
    assert r.count == 2
    with pytest.raises(ValidationError):
        NeighborhoodResult(q, 1, KIND_FULL, 3, ws)
    with pytest.raises(ValidationError):
        NeighborhoodResult(q, 1, KIND_FULL, 2, tuple(reversed(ws)))
    with pytest.raises(ValidationError):
        NeighborhoodResult(q, 1, KIND_FULL, 1, (make_word("aaaa", a),))
    with pytest.raises(ValidationError):
        NeighborhoodResult(q, 1, "outer", 2, ws)


def test_count_only_result_carries_no_words():
    a = alphabet_of_size(2)
    r = NeighborhoodResult(make_word("ab", a), 1, KIND_FULL, 9)
    assert r.words is None
    assert r.count == 9


def test_bare_string_alphabet_gets_build_guidance():
    with pytest.raises(ValidationError, match="make_alphabet"):
        make_word("ab", "ab")


def _listing(query, words, alphabet):
    members = tuple(make_word(t, alphabet) for t in words)
    return NeighborhoodResult(query, 2, KIND_FULL, len(members), members)


def test_result_order_is_rank_order_not_character_code_order():
    ba = make_alphabet("ba")
    q = make_word("ba", ba)
    # sorted by character code, but "b" ranks before "a" here
    with pytest.raises(ValidationError, match="not strictly increasing"):
        _listing(q, ("a", "ab", "b"), ba)
    assert _listing(q, ("", "b", "bb", "ba", "a", "ab"), ba).count == 6
    with pytest.raises(ValidationError, match="not strictly increasing"):
        _listing(q, ("b", "ba", "ba"), ba)


def test_result_members_are_ordered_by_their_own_alphabet():
    # the query is over "ab" but the members are over "ba"
    q = make_word("ab", make_alphabet("ab"))
    ba = make_alphabet("ba")
    assert _listing(q, ("b", "a"), ba).count == 2
    with pytest.raises(ValidationError, match="not strictly increasing"):
        _listing(q, ("a", "b"), ba)


@given(st.lists(st.text(alphabet="ab", max_size=3), max_size=6))
def test_result_order_check_is_the_rank_tuple_order(texts):
    ba = make_alphabet("ba")
    keys = [tuple(ba.rank(c) for c in t) for t in texts]
    increasing = all(a < b for a, b in zip(keys, keys[1:]))
    q = make_word("bab", ba)
    if increasing:
        assert _listing(q, texts, ba).count == len(texts)
    else:
        with pytest.raises(ValidationError, match="not strictly increasing"):
            _listing(q, texts, ba)


def _ab(text):
    return make_word(text, make_alphabet("ab"))


# per class: a builder of fresh equal values, values that differ from it in
# one constructor argument each, the repr a frozen dataclass printed, and
# the fields
VALUES = {
    "Alphabet": (
        lambda: make_alphabet("ab"),
        [make_alphabet("ba")],
        "Alphabet(symbols=('a', 'b'))",
        ["symbols", "_symbol_set", "_order"],
    ),
    "Word": (
        lambda: _ab("ab"),
        [_ab("ba"), make_word("ab", make_alphabet("abc"))],
        "Word(text='ab', alphabet=Alphabet(symbols=('a', 'b')))",
        ["text", "alphabet"],
    ),
    "Column": (
        lambda: Column("a", None),
        [Column("b", None), Column("a", "a")],
        "Column(top='a', bottom=None, kind='deletion')",
        ["top", "bottom", "kind"],
    ),
    "Alignment": (
        lambda: Alignment((Column("a", "a"), Column(None, "b"))),
        [Alignment((Column("a", "a"),))],
        "Alignment(columns=(Column(top='a', bottom='a', kind='match'), "
        "Column(top=None, bottom='b', kind='insertion')))",
        ["columns"],
    ),
    "NeighborhoodResult": (
        lambda: NeighborhoodResult(_ab("a"), 1, KIND_CONDENSED, 2, (_ab("a"), _ab("b"))),
        [
            NeighborhoodResult(_ab("b"), 1, KIND_CONDENSED, 2, (_ab("a"), _ab("b"))),
            NeighborhoodResult(_ab("a"), 2, KIND_CONDENSED, 2, (_ab("a"), _ab("b"))),
            NeighborhoodResult(_ab("a"), 1, KIND_FULL, 2, (_ab("a"), _ab("b"))),
            NeighborhoodResult(_ab("a"), 1, KIND_CONDENSED, 2),
            NeighborhoodResult(_ab("a"), 1, KIND_CONDENSED, 3),
        ],
        "NeighborhoodResult(query=Word(text='a', alphabet=Alphabet(symbols=('a', 'b'))), "
        "distance=1, kind='condensed', count=2, "
        "words=(Word(text='a', alphabet=Alphabet(symbols=('a', 'b'))), "
        "Word(text='b', alphabet=Alphabet(symbols=('a', 'b')))))",
        ["query", "distance", "kind", "count", "words"],
    ),
}


@pytest.mark.parametrize("name", VALUES)
def test_repr_is_the_dataclass_repr(name):
    build, _, text, _ = VALUES[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", VALUES)
def test_equality_is_by_class_and_fields(name):
    build, others, _, fields = VALUES[name]
    value, twin = build(), build()
    assert value is not twin
    assert value == twin and not value != twin
    for other in others:
        assert value != other and not value == other
    for foreign in (tuple(getattr(value, f) for f in fields), "ab", None):
        assert value != foreign and not value == foreign
        assert value.__eq__(foreign) is NotImplemented


@pytest.mark.parametrize("name", VALUES)
def test_equal_values_hash_equal_and_collapse_in_a_set(name):
    build, others, _, _ = VALUES[name]
    assert hash(build()) == hash(build())
    assert len({build(), build(), *others}) == 1 + len(others)


@pytest.mark.parametrize("name", VALUES)
def test_fields_cannot_be_assigned_or_deleted(name):
    build, _, _, fields = VALUES[name]
    value = build()
    for field in [*fields, "no_such_field"]:
        with pytest.raises(AttributeError, match=f"'{field}'"):
            setattr(value, field, None)
        with pytest.raises(AttributeError, match=f"'{field}'"):
            delattr(value, field)
    assert value == build()


@pytest.mark.parametrize("name", VALUES)
def test_pickle_and_deepcopy_round_trip(name):
    build, _, text, fields = VALUES[name]
    value = build()
    for back in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert back == value and repr(back) == text
        # methodcaller objects compare by identity, so _order is checked on a text
        assert all(getattr(back, f) == getattr(value, f) for f in fields if f != "_order")
        if name == "Alphabet":
            assert back._order("ba") == "\x01\x00"
