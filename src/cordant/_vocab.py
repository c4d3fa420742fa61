"""Words and defaults that several layers share.

Search statuses, notion names, the default node budget, the table cap,
the worker and group checks, the JSON integer test, the indented JSON
writer and the base class of the result records live here, apart from
``search``, ``groups`` and ``certificates``, so that a construction's
default argument, the command-line parser or a decider can use them
without importing the search machinery or the certificate codec.
``search``, ``groups`` and ``certificates`` re-export what they share of
it.
"""

import json
from itertools import chain
from json.encoder import encode_basestring_ascii

from .errors import CapExceededError, InvalidSpecError

#: Default node budget for every search entry point.
DEFAULT_BUDGET = 10_000_000

#: Refuse to build dense Cayley tables for groups larger than this.
TABLE_CAP = 1024

STATUS_FOUND = "Found"
STATUS_NOT_EXISTS = "NotExists"
STATUS_UNKNOWN = "Unknown"

NOTION_EA_CORDIAL = "ea-cordial"
NOTION_A_CORDIAL = "a-cordial"
NOTION_A_ANTIMAGIC = "a-antimagic"
NOTION_A_STAR_ANTIMAGIC = "a-star-antimagic"

NOTIONS = (
    NOTION_EA_CORDIAL,
    NOTION_A_CORDIAL,
    NOTION_A_ANTIMAGIC,
    NOTION_A_STAR_ANTIMAGIC,
)

#: Older command-line spellings of two notions, still accepted.
NOTION_ALIASES = {
    "antimagic": NOTION_A_ANTIMAGIC,
    "astar-antimagic": NOTION_A_STAR_ANTIMAGIC,
}


def notion_name(text: str) -> str:
    """The notion ``text`` names: an alias resolved, anything else as is."""
    return NOTION_ALIASES.get(text, text)


def is_json_int(value) -> bool:
    """Whether a decoded JSON value is an integer (not a float, bool or null)."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_workers(workers: int) -> None:
    """Reject a worker count below one (ValueError, exit 2 on the CLI)."""
    if workers < 1:
        raise ValueError("workers must be at least 1")


def check_searchable(spec) -> None:
    """Reject the trivial group, where no search runs, and groups past
    the table cap, whose tables no search gets (exit 2 on the CLI), before
    anything the size of the group is built."""
    if spec.order < 2:
        raise InvalidSpecError("searches need a group with at least two elements")
    check_table_order(spec.order)


def check_table_order(order: int) -> None:
    """Reject dense Cayley tables for a group of more than ``TABLE_CAP``
    elements (CapExceededError)."""
    if order > TABLE_CAP:
        raise CapExceededError(
            f"refusing dense tables for order {order} > {TABLE_CAP}")


#: Sets a field of a record in its ``__init__``, past ``Record.__setattr__``.
#: Writing to the instance ``__dict__`` instead would turn the inline
#: attribute values into a dictionary and slow every later read of them.
set_field = object.__setattr__


class Record:
    """An immutable value made of named fields.

    A subclass lists its fields in ``_fields`` and sets each once, in its
    own ``__init__``, with ``set_field``; from then on assigning or
    deleting an attribute raises AttributeError.  Records compare equal
    when they are of one class with equal fields, hash by their fields
    and show as ``Name(field=value, ...)``.  Instances keep a plain
    ``__dict__``, so pickle and ``copy.deepcopy`` rebuild them without
    calling ``__init__``.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            [f"{name}={value!r}"
             for name, value in zip(self._fields, self._values())]))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def indented_json(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte.

    With any ``indent`` the json module leaves its C encoder for a
    pure-Python one.  Here integer lists and lists of integer lists, the
    bulk of a certificate, are written with ``str.join`` and
    ``%``-formatting; strings and keys go through the json module's own
    string encoder, ``None``, booleans and integers are spelled as it
    spells them, floats go through ``json.dumps`` one at a time, and
    anything else (a dict with non-string keys, an object json cannot
    encode) through ``json.dumps`` with its lines re-indented.
    JSON text holds no raw newline inside a string, so re-indenting only
    touches the layout.
    """
    return _indented(obj, "\n")


def _indented(obj, newline: str) -> str:
    """``obj`` written at the depth whose lines start with ``newline``."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        kinds = set(map(type, obj))
        if kinds == {int}:
            body = ("," + inner).join(map(str, obj))
        elif kinds <= {list, tuple} and \
                set(map(type, chain.from_iterable(obj))) <= {int}:
            body = _int_rows(obj, inner)
        else:
            body = ("," + inner).join([_indented(x, inner) for x in obj])
        return "[" + inner + body + newline + "]"
    if isinstance(obj, dict) and all(type(k) is str for k in obj):
        if not obj:
            return "{}"
        inner = newline + "  "
        return ("{" + inner + ("," + inner).join(
            [encode_basestring_ascii(k) + ": " + _indented(v, inner)
             for k, v in obj.items()]) + newline + "}")
    if obj is None or obj is True or obj is False:
        return _CONSTANTS[obj]
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return json.dumps(obj)
    return json.dumps(obj, indent=2).replace("\n", newline)


_CONSTANTS = {None: "null", True: "true", False: "false"}


def _int_rows(rows, newline: str) -> str:
    """Integer lists (or tuples), each written at the depth whose lines
    start with ``newline``, joined; rows of one length fill one ``%``
    template with every integer at once."""
    inner = newline + "  "
    sep = "," + inner
    lengths = set(map(len, rows))
    if len(lengths) == 1:
        (k,) = lengths
        row = "[" + inner + sep.join(["%d"] * k) + newline + "]" if k else "[]"
        return ("," + newline).join([row] * len(rows)) % tuple(
            chain.from_iterable(rows))
    return ("," + newline).join([
        "[" + inner + sep.join(map(str, row)) + newline + "]" if row else "[]"
        for row in rows])
