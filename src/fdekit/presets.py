"""Named matrices used throughout the package and CLI.

Each preset is the four-valued base with some named connectives added,
optionally restricted to a subset of the carrier.  The joint expansions
are the common matrices of the interdefinability results, so callers
never hand-build them.
"""

from __future__ import annotations

from functools import lru_cache

from .bd import bd_matrix, expand, named
from .errors import UnknownNameError
from .matrix import Matrix, restrict

# preset -> (the named connectives added to bd, in signature order; the
# carrier it is restricted to, or None)
_PRESETS = {
    "bd": ((), None),
    "bd-impl-bot": (("impl", "bot"), None),
    "bd-delta": (("delta",), None),
    "bd-circ": (("circ",), None),
    "bd-cons-det": (("cons", "det"), None),
    "bd-confl": (("confl",), None),
    "bd-b-n": (("impl", "B", "N"), None),
    "lp": ((), ("t", "f", "b")),
    "k3": ((), ("t", "f", "n")),
    "cl": ((), ("t", "f")),
    "cl-impl-bot": (("impl", "bot"), ("t", "f")),
    # joint expansions for the interdefinability results
    "bd-impl-bot-delta": (("impl", "bot", "delta"), None),
    "bd-impl-bot-circ": (("impl", "bot", "circ"), None),
    "bd-impl-bot-cons": (("impl", "bot", "cons"), None),
    "bd-impl-bot-det": (("impl", "bot", "det"), None),
    "bd-impl-bot-confl": (("impl", "bot", "confl"), None),
    "bd-delta-cons-det": (("delta", "cons", "det"), None),
    "bd-cons-det-circ": (("cons", "det", "circ"), None),
    "bd-impl-b-n-bot": (("impl", "B", "N", "bot"), None),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


@lru_cache(maxsize=None)
def preset(name: str) -> Matrix:
    try:
        added, carrier = _PRESETS[name]
    except KeyError:
        raise UnknownNameError(f"unknown preset {name!r}") from None
    m = expand(bd_matrix(), *map(named, added))
    return m if carrier is None else restrict(m, carrier)
