"""Document format, serialization, and DOT export.

Automata travel as JSON with exact rational weights written as strings
("3", "-1/2"), read back as ints where integral and as Fractions
otherwise (model.make_weight).  Serialization is canonical (sorted
components, fixed key order), so parse followed by serialize is
byte-stable.
"""

from __future__ import annotations

import json
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Mapping

from .estimator import EstimatorAutomaton
from .model import Weight, WeightedAutomaton, exact, validate
from .selfcomp import SelfComposition

FORMAT_VERSION = 1
# a number with a fraction or an exponent is read exactly, from its own text
_DECODER = json.JSONDecoder(parse_float=Decimal)


class ParseError(ValueError):
    def __init__(self, message: str, context: str = ""):
        super().__init__(f"{context}: {message}" if context else message)
        self.context = context


def rational_to_str(x: int | Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def str_to_rational(text, context: str = "") -> int | Fraction:
    """An exact rational from a JSON weight entry: an int when it is
    integral ("3", 12, "6/2", 1.0, "1e400"), else a Fraction in lowest
    terms.  Integers, as ints or as ASCII decimal strings with an optional
    "-", skip Fraction's string parser; everything else is read by it."""
    digits = text.removeprefix("-") if type(text) is str else ""
    try:
        if type(text) is int or (digits.isascii() and digits.isdecimal()):
            return int(text)
        return exact(Fraction(str(text)))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r} ({exc})", context) from exc


def _weight_in(entries, context: str, k) -> Weight:
    """The weight at context, a tuple of k rationals in make_weight's
    form; its dimension is left to validate when k itself is not a
    positive integer."""
    if not isinstance(entries, (list, tuple)):
        raise ParseError(f"weight must be a list, got {entries!r}", context)
    if type(k) is int and k > 0 and len(entries) != k:
        raise ParseError(f"weight has dimension {len(entries)}, expected {k}", context)
    return tuple([str_to_rational(x, f"{context}[{i}]") for i, x in enumerate(entries)])


def _list_in(document: Mapping, key: str) -> list:
    value = document.get(key, [])
    if not isinstance(value, list):
        raise ParseError(f"must be a list, got {value!r}", key)
    return value


def _known_keys(entry: Mapping, keys: set[str], context: str = "") -> None:
    """Reject a key of entry outside keys, at its JSON path."""
    if not keys.issuperset(entry):
        key = next(key for key in entry if key not in keys)
        raise ParseError(f"unknown key, expected one of {', '.join(sorted(keys))}",
                         f"{context}.{key}" if context else str(key))


def _entries(document: Mapping, key: str, keys: set[str]):
    """(JSON path, entry) for each entry of the list document[key], an
    object with no key outside keys."""
    for i, entry in enumerate(_list_in(document, key)):
        context = f"{key}[{i}]"
        if type(entry) is not dict and not isinstance(entry, Mapping):
            raise ParseError(f"entry must be an object, got {entry!r}", context)
        _known_keys(entry, keys, context)
        yield context, entry


def _name_in(value, context: str, key: str | int, optional: bool = False):
    """value, the name at context[key] (an index) or context.key, that keys
    a mapping: not a JSON array, object or boolean (true would merge with
    the name "True"), and not null or missing unless optional (a label,
    silent when it is)."""
    if type(value) is not str and (type(value) is bool or not isinstance(value, int) and (
            isinstance(value, (list, Mapping)) or value is None and not optional)):
        path = f"{context}[{key}]" if type(key) is int else f"{context}.{key}"
        raise ParseError(f"must be a name, got {value!r}", path)
    return value


def parse(document: Mapping) -> WeightedAutomaton:
    """Decode an automaton document (already JSON-decoded) and validate it."""
    if not isinstance(document, Mapping):
        raise ParseError("document must be an object")
    _known_keys(document, {"format_version", "k", "states", "initial", "events", "transitions"})
    version = document.get("format_version", FORMAT_VERSION)
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version!r}")
    k = document.get("k")
    parsed: dict[tuple[str, ...], Weight] = {}

    def weight_in(entries, context: str) -> Weight:
        """_weight_in, each distinct list of string entries parsed once, to
        one tuple that validate keeps.  A list is kept only after it has
        parsed, so every error keeps its JSON path; other entries are never
        looked up, as (True,) == (1,)."""
        if type(entries) is not list or not all(type(x) is str for x in entries):
            return _weight_in(entries, context, k)
        key = tuple(entries)
        weight = parsed.get(key)
        if weight is None:
            weight = parsed[key] = _weight_in(entries, context, k)
        return weight

    raw = {
        "k": k,
        "states": [_name_in(q, "states", i) for i, q in enumerate(_list_in(document, "states"))],
        "initial": {},
        "events": {},
        "transitions": [],
    }
    # a repeated entry must agree with the first, as repeated transitions
    # must; names are keyed by str, as validate keys them
    for ctx, entry in _entries(document, "initial", {"state", "weight"}):
        state = str(_name_in(entry.get("state"), ctx, "state"))
        weight = weight_in(entry.get("weight"), f"{ctx}.weight")
        first = raw["initial"].setdefault(state, weight)
        if first != weight:
            raise ParseError(f"initial state {state!r} repeated with another weight, first "
                             f"{[rational_to_str(x) for x in first]}", f"{ctx}.state")
    for ctx, entry in _entries(document, "events", {"name", "label"}):
        name = str(_name_in(entry.get("name"), ctx, "name"))
        label = _name_in(entry.get("label"), ctx, "label", optional=True)
        first = raw["events"].setdefault(name, label)
        if first != label:
            raise ParseError(f"event {name!r} repeated with another label, first {first!r}",
                             f"{ctx}.name")
    for ctx, entry in _entries(document, "transitions", {"from", "event", "to", "weight"}):
        raw["transitions"].append((
            _name_in(entry.get("from"), ctx, "from"), _name_in(entry.get("event"), ctx, "event"),
            _name_in(entry.get("to"), ctx, "to"),
            weight_in(entry.get("weight"), f"{ctx}.weight"),
        ))
    return validate(raw)


def serialize(a: WeightedAutomaton) -> dict:
    """Canonical document for an automaton; loses nothing."""
    return {
        "format_version": FORMAT_VERSION,
        "k": a.k,
        "states": sorted(a.states),
        "initial": [
            {"state": q, "weight": [rational_to_str(x) for x in w]}
            for q, w in sorted(a.initial.items())
        ],
        "events": [
            {"name": e, "label": l} for e, l in sorted(a.events.items())
        ],
        "transitions": [
            {"from": s, "event": e, "to": d,
             "weight": [rational_to_str(x) for x in w]}
            for (s, e, d, w) in sorted(a.transitions)
        ],
    }


def dumps(document: dict) -> str:
    return json.dumps(document, indent=2, sort_keys=False) + "\n"


def loads(text: str) -> WeightedAutomaton:
    """Decode and validate an automaton document.  A weight written as 1.5
    is exactly 3/2, and a long literal keeps every digit.  A document
    nested deeper than the decoder recurses is malformed too."""
    try:
        document = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: line {exc.lineno}, column {exc.colno}") from exc
    except RecursionError as exc:
        raise ParseError("malformed JSON: nested too deeply") from exc
    return parse(document)


# ---------------------------------------------------------------------
# structure documents
# ---------------------------------------------------------------------


def _weight_label(w) -> str:
    if isinstance(w, tuple):
        return "(" + ",".join(str(x) for x in w) + ")"
    return str(w)


def estimator_to_json(est: EstimatorAutomaton, scale: int = 1) -> dict:
    def name(x):
        return sorted(x)

    return {
        "format_version": FORMAT_VERSION,
        "kind": est.kind,
        "k": est.k,
        "scale": scale,
        "exact": est.exact,
        "initial": name(est.initial),
        "states": sorted((name(x) for x in est.states)),
        "transitions": [
            {
                "from": name(x),
                "symbol": symbol,
                "weight": _weight_label(weight),
                "to": name(target),
                "cell": cell.to_json() if cell is not None else None,
            }
            for x in sorted(est.successors, key=sorted)
            for symbol, weight, target, cell in est.successors[x]
        ],
    }


def selfcomp_to_json(cc: SelfComposition, scale: int = 1) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "scale": scale,
        "initial": sorted(map(list, cc.initial)),
        "states": sorted(map(list, cc.states)),
        "complete": not cc.unknown_queries,
        "transitions": [
            {"from": list(s), "events": list(events), "to": list(target)}
            for s in sorted(cc.successors) for events, target in cc.successors[s]
        ],
    }


# ---------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _dot(name: str, nodes: Iterable[tuple[str, bool]],
         edges: Iterable[tuple[str, str, str]]) -> str:
    """A left-to-right DOT digraph: nodes as (name, initial), an initial
    one drawn as a double circle, and edges as (source, target, label)."""
    lines = [f'digraph "{name}" {{', "  rankdir=LR;"]
    lines += [f'  "{_dot_escape(v)}" [shape={"doublecircle" if initial else "circle"}];'
              for v, initial in nodes]
    lines += [f'  "{_dot_escape(s)}" -> "{_dot_escape(d)}" [label="{_dot_escape(label)}"];'
              for s, d, label in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def automaton_to_dot(a: WeightedAutomaton) -> str:
    def label(e, w):
        shown = a.label(e) if a.label(e) is not None else "~"
        return f"{e}:{shown}/{','.join(map(rational_to_str, w))}"

    return _dot("automaton", ((q, q in a.initial) for q in sorted(a.states)),
                ((s, d, label(e, w)) for s, e, d, w in sorted(a.transitions)))


def selfcomp_to_dot(cc: SelfComposition) -> str:
    def node(p):
        return f"{p[0]},{p[1]}"

    return _dot("selfcomp", ((node(s), s in cc.initial) for s in sorted(cc.states)),
                ((node(s), node(target), f"({events[0]},{events[1]})")
                 for s in sorted(cc.successors) for events, target in cc.successors[s]))


def estimator_to_dot(est: EstimatorAutomaton) -> str:
    def node(x):
        return "{" + ",".join(sorted(x)) + "}"

    def label(symbol, weight, cell):
        shown = f" in {cell}" if cell is not None and not cell.is_finite() else ""
        return f"({symbol},{_weight_label(weight)}){shown}"

    return _dot(est.kind, ((node(x), x == est.initial) for x in sorted(est.states, key=sorted)),
                ((node(x), node(target), label(symbol, weight, cell))
                 for x in sorted(est.successors, key=sorted)
                 for symbol, weight, target, cell in est.successors[x]))
