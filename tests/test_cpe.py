import copy
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vulngraph import cpe
from vulngraph.cpe import ANY, NA, WellFormedName
from vulngraph.errors import MalformedCpe

IE_STRING = "cpe:2.3:a:microsoft:internet_explorer:8.0.6001:beta:*:*:*:*:*:*"


def test_parse_internet_explorer_example():
    w = cpe.parse_formatted(IE_STRING)
    assert w.part == "a"
    assert w.vendor == "microsoft"
    assert w.product == "internet_explorer"
    assert w.version == "8.0.6001"
    assert w.update == "beta"
    for name in ("edition", "language", "sw_edition", "target_sw", "target_hw", "other"):
        assert getattr(w, name) is ANY


def test_parse_wildcard_identity():
    w = cpe.parse_formatted("cpe:2.3:a:v:p:*:*:*:*:*:*:*:*")
    assert w.version is ANY
    assert all(getattr(w, n) is ANY for n in ("version", "update", "edition", "other"))


def test_bind_reproduces_ie_string():
    w = cpe.parse_formatted(IE_STRING)
    assert cpe.bind_formatted(w) == IE_STRING


def test_bind_all_any_name():
    w = WellFormedName(part="a", vendor="v", product="p")
    assert cpe.bind_formatted(w) == "cpe:2.3:a:v:p:*:*:*:*:*:*:*:*"


def test_escaped_colon_roundtrip():
    # A literal colon must be written escaped and decode to a bare colon;
    # re-binding reproduces the escape exactly.
    s = r"cpe:2.3:a:v:p\:q:1.0:*:*:*:*:*:*:*"
    w = cpe.parse_formatted(s)
    assert w.product == "p:q"
    assert cpe.bind_formatted(w) == s


def test_escaped_star_is_a_literal_char():
    s = r"cpe:2.3:a:v:p\*:1.0:*:*:*:*:*:*:*"
    w = cpe.parse_formatted(s)
    assert w.product == "p*"
    assert cpe.bind_formatted(w) == s


def test_parse_lowercases():
    w = cpe.parse_formatted("cpe:2.3:a:Microsoft:Internet_Explorer:8.0:*:*:*:*:*:*:*")
    assert w.vendor == "microsoft"
    assert w.product == "internet_explorer"


def test_na_value():
    w = cpe.parse_formatted("cpe:2.3:a:v:p:1.0:-:*:*:*:*:*:*")
    assert w.update is NA
    assert cpe.bind_formatted(w).split(":")[6] == "-"


@pytest.mark.parametrize(
    "bad,offset",
    [
        ("cpe:2.3:a:v:p:*:*:*:*:*:*:*", 0),  # 12 fields
        ("cpe:2.3:a:v:p:*:*:*:*:*:*:*:*:*", 0),  # 14 fields
        ("cpe:2.2:a:v:p:*:*:*:*:*:*:*:*", 4),  # wrong version
        ("nope:2.3:a:v:p:*:*:*:*:*:*:*:*", 0),
    ],
)
def test_malformed_structure(bad, offset):
    with pytest.raises(MalformedCpe) as err:
        cpe.parse_formatted(bad)
    assert err.value.offset == offset


def test_illegal_part_reports_offset():
    with pytest.raises(MalformedCpe) as err:
        cpe.parse_formatted("cpe:2.3:x:v:p:*:*:*:*:*:*:*:*")
    assert err.value.offset == 8
    with pytest.raises(MalformedCpe):
        cpe.parse_formatted("cpe:2.3:-:v:p:*:*:*:*:*:*:*:*")  # part may not be NA


def test_illegal_escape_and_unescaped_special():
    with pytest.raises(MalformedCpe):
        cpe.parse_formatted(r"cpe:2.3:a:v:p\a:1:*:*:*:*:*:*:*")  # escaping a letter
    with pytest.raises(MalformedCpe):
        cpe.parse_formatted("cpe:2.3:a:v:p*:1:*:*:*:*:*:*:*")  # embedded bare star
    with pytest.raises(MalformedCpe):
        cpe.parse_formatted("cpe:2.3:a:v:p?:1:*:*:*:*:*:*:*")
    with pytest.raises(MalformedCpe):
        cpe.parse_formatted("cpe:2.3:a:v::1:*:*:*:*:*:*:*")  # empty product


_TAIL = ":1:*:*:*:*:*:*:*"


# Every error branch of the parser: input -> (message, offset).
@pytest.mark.parametrize(
    "bad,message,offset",
    [
        pytest.param("cpe:2.3:a:v:" + _TAIL, "empty attribute field", 12, id="empty-field"),
        pytest.param("cpe:2.3:a:v:p:1:*:*:*:*:*:*:x\\", "dangling escape", 29,
                     id="dangling-escape"),
        pytest.param("cpe:2.3:a:v:p\\a" + _TAIL, "illegal escape '\\a'", 13,
                     id="escaped-letter"),
        pytest.param("cpe:2.3:a:v:p\\7" + _TAIL, "illegal escape '\\7'", 13,
                     id="escaped-digit"),
        pytest.param("cpe:2.3:a:v:p\\ " + _TAIL, "illegal escape '\\ '", 13,
                     id="escaped-space"),
        pytest.param("cpe:2.3:a:v:p*" + _TAIL, "unescaped character '*'", 13,
                     id="bare-star"),
        pytest.param("cpe:2.3:a:v:p?" + _TAIL, "unescaped character '?'", 13,
                     id="bare-question-mark"),
        pytest.param("cpe:2.3:a:v:p q" + _TAIL, "unescaped character ' '", 13,
                     id="bare-space"),
        pytest.param("cpe:2.3:a:v:caf\u00e9" + _TAIL, "unescaped character '\u00e9'", 15,
                     id="non-ascii"),
        # Input is lower-cased before it is checked, and offsets count
        # characters of the lower-cased field.
        pytest.param("cpe:2.3:a:v:p\\Q" + _TAIL, "illegal escape '\\q'", 13,
                     id="upper-case-escape"),
        pytest.param("cpe:2.3:a:v:CAF\u00c9" + _TAIL, "unescaped character '\u00e9'", 15,
                     id="upper-case-non-ascii"),
        pytest.param("cpe:2.3:a:v:\u0130x" + _TAIL, "unescaped character '\u0307'", 13,
                     id="lowering-lengthens"),
        # An escape always takes the next character, so a backslash before a
        # separator merges two fields.
        pytest.param("cpe:2.3:a:v:p\\" + _TAIL, "expected 13 colon-separated fields, got 12",
                     0, id="escaped-colon-ends-field"),
        pytest.param("CPX:2.3:a:v:p" + _TAIL, "missing 'cpe' prefix", 0, id="prefix"),
        pytest.param("cpe:2.2:a:v:p" + _TAIL, "unsupported CPE version '2.2'", 4,
                     id="version"),
        pytest.param("cpe:2.3:x:v:p" + _TAIL, "illegal part 'x'", 8, id="part"),
    ],
)
def test_malformed_cpe_message_and_offset(bad, message, offset):
    with pytest.raises(MalformedCpe) as err:
        cpe.parse_formatted(bad)
    assert str(err.value) == f"{message} (offset {offset})"
    assert err.value.offset == offset


def _name(**over):
    base = dict(part="a", vendor="v", product="p", version="1.0", update="beta")
    base.update(over)
    return WellFormedName(**base)


def test_matches_wildcard_version():
    candidate = cpe.parse_formatted(IE_STRING)
    pattern = WellFormedName(part="a", vendor="microsoft", product="internet_explorer")
    assert cpe.matches(candidate, pattern)


def test_matches_vendor_mismatch():
    candidate = cpe.parse_formatted(IE_STRING)
    pattern = WellFormedName(part="a", vendor="mozilla", product="internet_explorer")
    assert not cpe.matches(candidate, pattern)


# Hand-enumerated attribute-match truth table: rows are the pattern value,
# columns the candidate value, for a single attribute (update).
@pytest.mark.parametrize(
    "pattern_val,candidate_val,expect",
    [
        (ANY, ANY, True),
        (ANY, NA, True),
        (ANY, "beta", True),
        (NA, ANY, False),
        (NA, NA, True),
        (NA, "beta", False),
        ("beta", ANY, False),
        ("beta", NA, False),
        ("beta", "beta", True),
        ("beta", "alpha", False),
    ],
)
def test_matches_truth_table(pattern_val, candidate_val, expect):
    candidate = _name(update=candidate_val)
    pattern = _name(update=pattern_val)
    assert cpe.matches(candidate, pattern) is expect


def test_matches_reflexive():
    w = cpe.parse_formatted(IE_STRING)
    assert cpe.matches(w, w)


def test_matches_monotone_widening():
    candidate = cpe.parse_formatted(IE_STRING)
    pattern = cpe.parse_formatted(IE_STRING)
    assert cpe.matches(candidate, pattern)
    # widening any attribute to ANY keeps the match
    for attr in cpe.ATTRIBUTE_NAMES:
        widened = pattern._replace(**{attr: ANY})
        assert cpe.matches(candidate, widened)


# Hand-ordered oracle table for the documented version rule: digit runs
# compare numerically and sort before letter runs, punctuation only
# separates, and a strict prefix sorts first.
ORDERED_PAIRS = [
    ("1.2", "1.10"),
    ("8.0.6001", "8.0.6002"),
    ("8.0.6002", "8.1"),
    ("1.0", "1.0rc1"),
    ("1.0", "1.0.0"),
    ("1.0.0", "1.0.1"),
    ("1.9", "1.10"),
    ("1.0a", "1.0b"),
    ("1.0.1", "1.0a"),
    ("0.9", "1.0rc1"),
    ("1.0rc1", "1.0rc2"),
    ("1.0rc1", "1.1"),
    ("2.0", "10.0"),
    ("4.8.2", "5.4.0"),
    ("1.0.1f", "1.0.2"),
    ("1.0.1", "1.0.1f"),
    ("alpha", "beta"),
    ("9", "10"),
    ("", "0"),
    ("1.2.8", "1.2.11"),
]


@pytest.mark.parametrize("lo,hi", ORDERED_PAIRS)
def test_compare_versions_oracle_table(lo, hi):
    assert cpe.compare_versions(lo, hi) == -1
    assert cpe.compare_versions(hi, lo) == 1


@pytest.mark.parametrize("same", ["2.0", "1.0.1f", "1-0", "1_0"])
def test_compare_versions_equal(same):
    assert cpe.compare_versions(same, same) == 0


def test_compare_versions_separator_insensitive():
    assert cpe.compare_versions("1-0", "1.0") == 0


_FIELDS = st.one_of(
    st.sampled_from(["*", "-"]),
    st.lists(st.sampled_from(["a", "Z", "0", ".", "_", "-", "\\-", "\\!", "\\*", "\\:"]),
             min_size=1, max_size=4).map("".join))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from("aohA*"), st.lists(_FIELDS, min_size=10, max_size=10))
def test_bindings_hold_each_name_read_as_its_binding(part, fields):
    raw = ":".join(["cpe:2.3", part, *fields])
    table = cpe.ParseTable()
    name = table[raw]
    plain = "\\" not in raw and raw == raw.lower()
    assert table.bindings() == ({name: raw} if plain else {})
    if plain:
        assert cpe.bind_formatted(name) == raw


_WFN_VALUES = st.one_of(st.just(ANY), st.just(NA), st.sampled_from(["1.0", "-", "a:b", "x*"]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from("aoh"), st.lists(_WFN_VALUES, min_size=10, max_size=10))
def test_equality_and_hash_agree_with_a_round_trip(part, values):
    name = WellFormedName(part, *values)
    again = cpe.parse_formatted(cpe.bind_formatted(name))
    assert again is not name
    assert again == name and not again != name
    assert hash(again) == hash(name)
    assert {name: 1}[again] == 1


def test_a_name_never_equals_its_plain_tuple():
    name = cpe.parse_formatted(IE_STRING)
    plain = tuple(name)
    assert isinstance(name, tuple) and plain == tuple(name)
    assert not name == plain and name != plain
    assert not plain == name and plain != name
    assert name not in {plain} and plain not in {name}
    assert name != cpe.bind_formatted(name)


@pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge],
                         ids=["lt", "le", "gt", "ge"])
def test_names_have_no_order(op):
    a = cpe.parse_formatted("cpe:2.3:a:v:p:1.0:*:*:*:*:*:*:*")
    b = cpe.parse_formatted("cpe:2.3:a:v:p:2.0:*:*:*:*:*:*:*")
    for left, right in ((a, b), (a, a), (a, tuple(b)), (tuple(a), b)):
        with pytest.raises(TypeError):
            op(left, right)
    with pytest.raises(TypeError):
        sorted([b, a])


def test_deepcopy_keeps_the_logical_values():
    name = cpe.parse_formatted("cpe:2.3:a:v:p:*:-:*:*:*:*:*:*")
    copied = copy.deepcopy(name)
    assert type(copied) is WellFormedName and copied == name
    assert copied.version is ANY and copied.update is NA
    assert copy.copy(name).version is ANY
