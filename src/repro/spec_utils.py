"""Shared helpers for the frozen problem-spec dataclasses.

:class:`~repro.api.ScheduleRequest` carries a params mapping and the
(TL, STCL) limit fields that :meth:`repro.api.Workbench.solve_soc`
takes as arguments.  The hashing and validation rules live here once so
the two cannot drift; this module sits below ``repro.api`` and
``repro.engine`` in the import graph, so either may import it at module
level.
"""

from __future__ import annotations

import math
import numbers
from typing import Any, Mapping

from .errors import RequestError


class FrozenParams(dict):
    """An immutable params mapping for the frozen spec dataclasses.

    ``frozen=True`` only blocks attribute assignment; a plain-dict
    params field could still be mutated in place, silently changing the
    spec's hash and equality.  This dict subclass blocks every mutator
    (nested values are not deep-frozen — treat them as read-only).  It
    pickles and deep-copies via reconstruction, and ``json.dumps`` /
    ``dataclasses.asdict`` treat it as the dict it is.
    """

    def _immutable(self, *args, **kwargs):
        raise TypeError(
            "spec params are immutable; build a new request with "
            "dataclasses.replace(spec, params={...}) instead"
        )

    __setitem__ = _immutable
    __delitem__ = _immutable
    clear = _immutable
    pop = _immutable
    popitem = _immutable
    setdefault = _immutable
    update = _immutable

    def __reduce__(self):
        # Default dict-subclass pickling restores items via the (now
        # blocked) __setitem__; rebuild through the constructor instead.
        return (type(self), (dict(self),))


def freeze_value(value: Any) -> Any:
    """A hashable stand-in for a JSON-ish value (dicts/lists frozen)."""
    if isinstance(value, dict):
        return tuple(
            sorted((key, freeze_value(item)) for key, item in value.items())
        )
    if isinstance(value, (list, tuple)):
        return tuple(freeze_value(item) for item in value)
    return value


def hashable_params(params: Mapping[str, Any]) -> tuple:
    """A canonical hashable view of a params mapping.

    The spec dataclasses are frozen but hold a plain-dict params field,
    which would make the generated ``__hash__`` raise; their explicit
    ``__hash__`` implementations substitute this view.
    """
    return tuple(sorted((key, freeze_value(value)) for key, value in params.items()))


def validate_limit_fields(
    *,
    tl_c: float | None,
    tl_headroom: float | None,
    stcl: float | None,
    stcl_headroom: float | None,
    stc_scale: float | None = None,
) -> None:
    """Enforce the (TL, STCL) field rules of requests and ``solve_soc``.

    Exactly one of the TL pair; ``tl_headroom`` strictly above 1; at
    most one of the STCL pair, each strictly positive; every limit a
    finite number (no temperature reaches a NaN or infinite TL, so such
    a limit would commit any schedule); ``stc_scale``, when given, a
    finite positive number (a NaN scale rejects every core, an infinite
    one admits every session).  Whether an STCL is *required* depends
    on the solver's capability flag and is checked by the caller.

    Raises
    ------
    RequestError
        Naming the first rule a field breaks.
    """
    if (tl_c is None) == (tl_headroom is None):
        raise RequestError("exactly one of tl_c / tl_headroom is required")
    limits = {
        "tl_c": tl_c,
        "tl_headroom": tl_headroom,
        "stcl": stcl,
        "stcl_headroom": stcl_headroom,
    }
    for name, value in limits.items():
        if value is not None and not is_finite_number(value):
            raise RequestError(f"{name} must be a finite number, got {value!r}")
    if stc_scale is not None and not is_positive_number(stc_scale):
        raise RequestError(
            f"stc_scale must be a finite positive number, got {stc_scale!r}"
        )
    if tl_headroom is not None and tl_headroom <= 1.0:
        raise RequestError(
            f"tl_headroom must be > 1 (TL at or below the singleton "
            f"peak is infeasible), got {tl_headroom!r}"
        )
    if stcl is not None and stcl_headroom is not None:
        raise RequestError("at most one of stcl / stcl_headroom may be set")
    if stcl is not None and stcl <= 0.0:
        raise RequestError(f"stcl must be positive, got {stcl!r}")
    if stcl_headroom is not None and stcl_headroom <= 0.0:
        raise RequestError(f"stcl_headroom must be positive, got {stcl_headroom!r}")


def is_finite_number(value: Any) -> bool:
    """True for a finite real number; booleans and non-numbers are not."""
    if isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except TypeError:
        return False


def is_positive_number(value: Any) -> bool:
    """True for a finite real number strictly above zero."""
    if type(value) is float:
        # Comparisons alone (NaN fails both): every SoC build checks
        # each core's powers and test time this way.
        return 0.0 < value < math.inf
    return is_finite_number(value) and value > 0.0


def is_integer(value: Any) -> bool:
    """True for an integral number that is not a boolean."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)
