"""Words and defaults that several layers share.

Search statuses, notion names, the default node budget, the worker and
group checks and the indented JSON writer live here, apart from
``search`` and ``certificates``, so that a construction's default
argument, the command-line parser or a decider can use them without
importing the search machinery or the certificate codec.  ``search``
and ``certificates`` re-export the statuses and notion names.
"""

import json
from itertools import chain

from .errors import InvalidSpecError

#: Default node budget for every search entry point.
DEFAULT_BUDGET = 10_000_000

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


def check_workers(workers: int) -> None:
    """Reject a worker count below one (ValueError, exit 2 on the CLI)."""
    if workers < 1:
        raise ValueError("workers must be at least 1")


def check_searchable(spec) -> None:
    """Reject the trivial group: no search runs on it (exit 2 on the CLI)."""
    if spec.order < 2:
        raise InvalidSpecError("searches need a group with at least two elements")


def indented_json(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte.

    With any ``indent`` the json module leaves its C encoder for a
    pure-Python one.  Here integer lists and lists of integer lists, the
    bulk of a certificate, are written with ``str.join`` and
    ``%``-formatting; other scalars go through ``json.dumps`` one at a
    time, and anything else (a dict with non-string keys, an object json
    cannot encode) through ``json.dumps`` with its lines re-indented.
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
            [json.dumps(k) + ": " + _indented(v, inner)
             for k, v in obj.items()]) + newline + "}")
    if obj is None or isinstance(obj, (str, int, float)):
        return json.dumps(obj)
    return json.dumps(obj, indent=2).replace("\n", newline)


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
