"""Line-oriented text and CSV formats for the lab's artifacts.

All formats are plain decimal text, one record per line, with rationals
carried as numerator/denominator pairs so nothing is lost to rounding.
Parsers validate every line and report positions in errors.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .catalog import LeftCEReal
from .core import ApproximationTrace, CostLedger, EnumerationTrace
from .errors import ParseError, WeightOverflow
from .machine import RequestSet, kc_add


def dump_schedule(rs: RequestSet) -> str:
    """Request schedule as `stage r y` triples, one per line."""
    return "".join(f"{stage} {r} {y}\n" for r, y, stage in rs.entries)


def load_schedule(text: str) -> RequestSet:
    """The request set of `stage r y` lines, each checked as it is added, so
    an out-of-order stage or the weight's first excess names its line."""
    rs = RequestSet()
    for no, line in _lines(text):
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(no, f"expected `stage r y`, got {line!r}")
        stage, r, y = (_nat(no, p) for p in parts)
        try:
            rs = kc_add(rs, r, y, stage)
        except (ValueError, WeightOverflow) as exc:
            raise ParseError(no, str(exc)) from exc
    return rs


def dump_trace(a: ApproximationTrace) -> str:
    out = [f"horizon {a.horizon}"]
    if a.initial:
        out.append("initial " + " ".join(str(x) for x in sorted(a.initial)))
    out.extend(f"{s} {x} {v}" for s, x, v in a.events)
    return "\n".join(out) + "\n"


def load_trace(text: str, enumeration: bool = False) -> ApproximationTrace:
    horizon = None
    initial: list[int] | None = None
    events = []
    for no, line in _lines(text):
        parts = line.split()
        if parts[0] == "horizon":
            if horizon is not None or len(parts) != 2:
                raise ParseError(no, "misplaced horizon line")
            horizon = _nat(no, parts[1])
        elif parts[0] == "initial":
            if initial is not None:
                raise ParseError(no, "repeated initial line")
            initial = [_nat(no, p) for p in parts[1:]]
        else:
            if len(parts) != 3:
                raise ParseError(no, f"expected `s x v`, got {line!r}")
            s, x, v = (_nat(no, p) for p in parts)
            events.append((s, x, v))
    if horizon is None:
        raise ParseError(1, "missing horizon line")
    cls = EnumerationTrace if enumeration else ApproximationTrace
    try:
        return cls(horizon, events, initial or ())
    except ValueError as exc:
        raise ParseError(1, str(exc)) from exc


def dump_real(b: LeftCEReal) -> str:
    """The stage values as `s num den` lines in lowest terms, each text formatted once per value."""
    texts = {u: " {} {}\n".format(*Fraction(u, b.den).as_integer_ratio()) for u in set(b.units)}
    return "".join(f"{s}{texts[u]}" for s, u in enumerate(b.units))


def load_real(text: str, cap: Fraction = Fraction(1)) -> LeftCEReal:
    seq = []
    for no, line in _lines(text):
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(no, f"expected `s num den`, got {line!r}")
        s, num, den = (_nat(no, p) for p in parts)
        if s != len(seq):
            raise ParseError(no, f"stages must be consecutive, got {s}")
        if den == 0:
            raise ParseError(no, "zero denominator")
        seq.append(Fraction(num, den))
    try:
        return LeftCEReal.of(seq, cap)
    except ValueError as exc:
        raise ParseError(1, str(exc)) from exc


def dump_ledger_csv(ledger: CostLedger) -> str:
    out = ["stage,x,amount_num,amount_den"]
    out.extend(
        f"{s},{x},{a.numerator},{a.denominator}" for s, x, a in ledger.charges
    )
    return "\n".join(out) + "\n"


def dump_wishes_csv(wishes: Iterable) -> str:
    out = ["born,x,alpha_num,alpha_den,u,removed,holder"]
    for w in wishes:
        removed = "" if w.removed is None else str(w.removed)
        holder = "" if w.holder is None else str(w.holder)
        out.append(
            f"{w.born},{w.x},{w.alpha.numerator},{w.alpha.denominator},"
            f"{w.u},{removed},{holder}"
        )
    return "\n".join(out) + "\n"


def dump_events_csv(a: ApproximationTrace) -> str:
    out = ["stage,x,value"]
    out.extend(f"{s},{x},{v}" for s, x, v in a.events)
    return "\n".join(out) + "\n"


def _lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield no, line


def _nat(no: int, token: str) -> int:
    try:
        value = int(token)
    except ValueError as exc:
        raise ParseError(no, f"not a decimal natural: {token!r}") from exc
    if value < 0:
        raise ParseError(no, f"negative value: {token}")
    return value
