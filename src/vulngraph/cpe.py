"""CPE 2.3 formatted-string parsing, binding, matching and version ordering.

Every asset and system under test is identified by a CPE 2.3 name of the form

    cpe:2.3:part:vendor:product:version:update:edition:language:sw_edition:target_sw:target_hw:other

i.e. the literal prefix plus eleven attribute fields, colon separated.  A
literal is a run of unreserved characters (``a-z``, ``0-9``, ``.``, ``_``,
``-``) and escapes: a backslash followed by one ASCII punctuation character.
Input is lower-cased before it is checked.  Only the formatted-string binding
is supported (no 2.2 URI form).

Attribute values are one of:

* ``ANY``    -- the ``*`` wildcard,
* ``NA``     -- the explicit ``-`` (not applicable),
* a literal  -- stored decoded and lower-cased (names are case-insensitive).

Unescaped ``*``/``?`` inside a literal are rejected: the toolkit matches
names exactly or via whole-attribute wildcards, never via embedded globs.

Locally minted names (for assets without a published CPE) are ordinary names,
conventionally under vendor ``local``; nothing here treats them specially.

A :class:`WellFormedName` is a tuple of its eleven values, so hashing and
equality run in tuple's C code.  Equality never crosses types: a name equals
only another name, never the plain tuple of its values, and names have no
order.  Hot loops read its fields by position (``name[3]`` is the version),
about 4% faster than by name on Python 3.11 (the :mod:`graph` docstring
gives the measurement); the rest of the code reads them by name.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .errors import MalformedCpe


class _Logical:
    """Singleton marker for the two logical attribute values."""

    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self):
        return self._name

    def __deepcopy__(self, memo):
        return self

    def __copy__(self):
        return self


ANY = _Logical("ANY")
NA = _Logical("NA")

#: Attribute value: a logical marker or a decoded literal string.
AttrValue = _Logical | str

_ATTRIBUTES = (
    "part",
    "vendor",
    "product",
    "version",
    "update",
    "edition",
    "language",
    "sw_edition",
    "target_sw",
    "target_hw",
    "other",
)

_PARTS = ("a", "o", "h")

# The grammar of a literal attribute value: each character is unreserved, or
# a backslash escaping one ASCII punctuation character.  Parsing accepts
# exactly this; binding escapes every character that is not unreserved.
_UNRESERVED_CHAR = r"[a-z0-9._\-]"
_ESCAPED_CHAR = r"\\[!-/:-@\[-`{-~]"
_LITERAL = re.compile(rf"(?:{_UNRESERVED_CHAR}|{_ESCAPED_CHAR})*")
_RESERVED_CHAR = re.compile(rf"(?!{_UNRESERVED_CHAR}).", re.DOTALL)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)

# One field: everything up to a colon that no backslash escapes.  A backslash
# escapes whatever follows it, so only the last character of the whole
# string can be an unpaired backslash.
_FIELD = re.compile(r"[^\\:]*(?:\\.[^\\:]*)*\\?", re.DOTALL)

# A whole lower-cased name that parses: the prefix, then a part (``a``, ``o``,
# ``h`` or ``*``) and ten more fields, each ``*`` or a non-empty literal of the
# grammar above (so ``-`` too).  A literal matches as runs of unreserved
# characters between escapes, not one character at a time: a run, then
# escapes each followed by a run, or escapes first.  The branches start with
# different characters, so no field matches two ways.  A group holds its
# field undecoded.
_VALUE = (rf"(\*|{_UNRESERVED_CHAR}+(?:{_ESCAPED_CHAR}{_UNRESERVED_CHAR}*)*"
          rf"|(?:{_ESCAPED_CHAR}{_UNRESERVED_CHAR}*)+)")
_NAME = re.compile(rf"cpe:2\.3:([{''.join(_PARTS)}*])" + rf":{_VALUE}" * 10)
_LOGICAL = {"*": ANY, "-": NA}
# Builds a tuple subclass instance from a sequence in one C call, without the
# generated ``__new__``'s Python frame.
_new = tuple.__new__


class WellFormedName(namedtuple("WellFormedName", _ATTRIBUTES, defaults=(ANY,) * 8)):
    """The eleven attributes of a CPE 2.3 name, as a tuple in that order,
    each an :data:`AttrValue`; all but part, vendor and product default to
    ``ANY``.

    ``part`` is ``a`` (application), ``o`` (operating system) or ``h``
    (hardware); it may be ``ANY`` in a match pattern but never ``NA``.
    A name equals only another name with the same values, hashes as the
    tuple of its values and has no order.  :meth:`_replace` makes a copy
    with some fields changed.
    """

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is WellFormedName and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not (type(other) is WellFormedName and tuple.__eq__(self, other))

    __hash__ = tuple.__hash__

    def __lt__(self, other):
        raise TypeError("CPE names have no order")

    __le__ = __gt__ = __ge__ = __lt__

    def __str__(self):
        return bind_formatted(self)


def _split_fields(s: str) -> list[tuple[int, str]]:
    """Split on unescaped colons, keeping the offset of each field."""
    out = []
    start = 0
    while True:
        end = _FIELD.match(s, start).end()
        out.append((start, s[start:end]))
        if end == len(s):
            return out
        start = end + 1


def _decode_field(raw: str, offset: int) -> AttrValue:
    if raw == "*":
        return ANY
    if raw == "-":
        return NA
    if raw == "":
        raise MalformedCpe("empty attribute field", offset)
    lowered = raw.lower()
    end = _LITERAL.match(lowered).end()
    if end == len(lowered):
        return _ESCAPE.sub(r"\1", lowered) if "\\" in lowered else lowered
    # The longest valid prefix stops at the first character the grammar rejects.
    bad = lowered[end]
    if bad != "\\":
        raise MalformedCpe(f"unescaped character {bad!r}", offset + end)
    if end + 1 == len(lowered):
        raise MalformedCpe("dangling escape", offset + end)
    raise MalformedCpe(f"illegal escape '\\{lowered[end + 1]}'", offset + end)


def parse_formatted(s: str) -> WellFormedName:
    """Parse a CPE 2.3 formatted string into a :class:`WellFormedName`.

    Raises :class:`~vulngraph.errors.MalformedCpe` (carrying the character offset)
    on a bad prefix, wrong field count, illegal part value, empty field or
    illegal escape sequence.  One pattern match accepts a valid name; only a
    rejected one is walked field by field, to find the error and its offset.
    """
    lowered = s.lower()
    m = _NAME.fullmatch(lowered)
    if m is None:
        _raise_malformed(s)
    values = m.groups()
    if "\\" not in lowered:
        return _new(WellFormedName, map(_LOGICAL.get, values, values))
    return _new(WellFormedName, [_ESCAPE.sub(r"\1", v) if "\\" in v else _LOGICAL.get(v, v)
                                 for v in values])


def _raise_malformed(s: str):
    """Raise the :class:`MalformedCpe` for a string that ``_NAME`` rejects.

    The walk splits the fields and decodes them in order, so the error names
    the first thing wrong and its offset.  It accepts exactly the names
    ``_NAME`` matches; the last line only keeps a disagreement from letting
    a name through.
    """
    pieces = _split_fields(s)
    if len(pieces) != 13:
        raise MalformedCpe(f"expected 13 colon-separated fields, got {len(pieces)}", 0)
    if pieces[0][1].lower() != "cpe":
        raise MalformedCpe("missing 'cpe' prefix", 0)
    if pieces[1][1] != "2.3":
        raise MalformedCpe(f"unsupported CPE version {pieces[1][1]!r}", pieces[1][0])
    values = [_decode_field(raw, offset) for offset, raw in pieces[2:]]
    part = values[0]
    if part is NA or (isinstance(part, str) and part not in _PARTS):
        raise MalformedCpe(f"illegal part {pieces[2][1]!r}", pieces[2][0])
    raise MalformedCpe("not a CPE 2.3 formatted string", 0)


class ParseTable(dict):
    """Parsed names of one document load, keyed by the raw string.

    ``table[raw]`` parses ``raw`` on its first lookup only, so a document
    that repeats a name parses it once.  A malformed name raises
    :class:`~vulngraph.errors.MalformedCpe` and is not stored.  A table
    lives as long as the document it was made for; there is no process-wide
    one.
    """

    def __missing__(self, raw: str) -> WellFormedName:
        name = self[raw] = parse_formatted(raw)
        return name

    def bindings(self) -> BindTable:
        """A :class:`BindTable` that holds each name of this table whose raw
        string is already its binding, so that writing the names back binds
        only the others.  A raw string that parses, with no backslash and no
        upper-case letter, is its binding: each field is then ``*``, ``-`` or
        a run of unreserved characters, which binding writes unchanged."""
        return BindTable({name: raw for raw, name in self.items()
                          if "\\" not in raw and raw == raw.lower()})


class BindTable(dict):
    """Bound names of one document write, keyed by the parsed name.

    ``table[name]`` binds ``name`` on its first lookup only, so a document
    that repeats a name binds it once: the inverse of :class:`ParseTable`.
    """

    def __missing__(self, name: WellFormedName) -> str:
        text = self[name] = bind_formatted(name)
        return text


def _encode_value(value: AttrValue) -> str:
    if value is ANY:
        return "*"
    if value is NA:
        return "-"
    if value == "-":
        return "\\-"  # a bare hyphen field would read back as NA
    return _RESERVED_CHAR.sub(r"\\\g<0>", value)


def bind_formatted(w: WellFormedName) -> str:
    """Bind a WFN to its canonical lower-case formatted string.

    Inverse of :func:`parse_formatted`: ``parse_formatted(bind_formatted(w))``
    equals ``w`` for every valid WFN.
    """
    return "cpe:2.3:" + ":".join(map(_encode_value, w))


def matches(candidate: WellFormedName, pattern: WellFormedName) -> bool:
    """True when every pattern attribute subsumes the candidate's.

    Per attribute: ``ANY`` matches anything, ``NA`` matches only ``NA``, and a
    literal matches only the equal literal (values are already lower-cased).
    The candidate is expected to be concrete in part/vendor/product.
    """
    for pat, cand in zip(pattern, candidate):
        if pat is ANY:
            continue
        if pat is NA:
            if cand is not NA:
                return False
        elif cand != pat:
            return False
    return True


_TOKEN_RE = re.compile(r"[0-9]+|[a-z]+", re.IGNORECASE)


def version_key(text: str) -> tuple:
    """Sortable key for a version string.

    The string is cut into maximal digit runs and letter runs (punctuation
    only separates).  Digit runs compare numerically and order before letter
    runs; letter runs compare lexicographically; a key that is a strict
    prefix of another orders first.  So ``8.0.6001 < 8.0.6002 < 8.1`` and
    ``1.0 < 1.0rc1`` (the alphanumeric-after-numeric rule).
    """
    key = []
    for tok in _TOKEN_RE.findall(text):
        if tok.isdigit():
            key.append((0, int(tok), ""))
        else:
            key.append((1, 0, tok.lower()))
    return tuple(key)


def compare_versions(a: str, b: str) -> int:
    """Total order over version strings: -1, 0 or 1."""
    ka, kb = version_key(a), version_key(b)
    if ka < kb:
        return -1
    if ka > kb:
        return 1
    return 0
