"""Per-property results with machine-checkable witnesses, and the error
raised when an invariant of the analysis fails."""

from __future__ import annotations

from dataclasses import dataclass

HOLDS = "HOLDS"
FAILS = "FAILS"
UNKNOWN = "UNKNOWN"

SD = "SD"
SPD = "SPD"
WD = "WD"
WPD = "WPD"


@dataclass(frozen=True)
class Verdict:
    property: str  # SD | SPD | WD | WPD
    status: str  # HOLDS | FAILS | UNKNOWN
    witness: dict | None = None
    notes: str = ""

    def to_json(self) -> dict:
        return {
            "property": self.property,
            "status": self.status,
            "witness": _jsonable(self.witness),
            "notes": self.notes,
        }


def _jsonable(obj):
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if type(obj) is tuple and len(obj) == 4 and type(obj[3]) is tuple:
        # an arc (source, event, target, weight) of a witness walk: its
        # weight entries print as a document writes them, "2" or "-1/2"
        return [*obj[:3], [str(x) for x in obj[3]]]
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = [_jsonable(x) for x in obj]
        if isinstance(obj, (set, frozenset)):
            items.sort(key=repr)
        return items
    if hasattr(obj, "to_json"):
        return obj.to_json()
    if hasattr(obj, "numerator") and hasattr(obj, "denominator"):
        return str(obj)
    return repr(obj)


class InternalError(RuntimeError):
    """An invariant of the analysis failed: a bug, never an input error."""
