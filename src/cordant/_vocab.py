"""Words and defaults that several layers share.

Search statuses, notion names, the default node budget and the worker
check live here, apart from ``search`` and ``certificates``, so that a
construction's default argument, the command-line parser or a decider
can use them without importing the search machinery or the certificate
codec.  ``search`` and ``certificates`` re-export them.
"""

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


def check_workers(workers: int) -> None:
    """Reject a worker count below one (ValueError, exit 2 on the CLI)."""
    if workers < 1:
        raise ValueError("workers must be at least 1")
