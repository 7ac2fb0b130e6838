"""The session model's former pricing kernel, kept as a reference.

Every core is priced from scratch against a ``bytearray`` mask of the
active cores: the conductances of the neighbour paths that survive
(M3 keeps passive neighbours, M2 drops active ones) in neighbour order,
then the fixed ones, then ``1.0 / conductance``, and the STC term
``P * Rth * P * W`` (``inf`` without multiplying when no path is left).
:class:`ReferencePricing` reproduces the growth pass, the singleton
STCs and the three name-keyed evaluators on that kernel, reading the
same per-core paths as the model it mirrors.
:class:`~repro.core.session_model.SessionThermalModel` must return the
same floats, sessions and errors bit for bit.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping, Sequence, Union

from repro.core.session_model import SessionThermalModel
from repro.errors import SchedulingError

_ByIndex = Union[Sequence[float], Mapping[int, float]]


class ReferencePricing:
    """The bytearray pricing kernel over one model's paths and powers."""

    def __init__(self, model: SessionThermalModel) -> None:
        config = model.config
        self._soc = model.soc
        self._neighbours = model._neighbours
        self._fixed = model._fixed
        self._power = [core.test_power_w for core in model.soc]
        self._keeps_path = (config.ground_passive, not config.drop_active_active)
        self._scale = config.stc_scale

    def _pricer(
        self, power: _ByIndex, weights: _ByIndex
    ) -> Callable[[int, bytearray], float]:
        neighbours = self._neighbours
        fixed = self._fixed
        keeps_path = self._keeps_path
        inf = math.inf

        def price(i: int, active: bytearray) -> float:
            conductance = 0.0
            for j, g in neighbours[i]:
                if keeps_path[active[j]]:
                    conductance += g
            for g in fixed[i]:
                conductance += g
            if conductance == 0.0:
                return inf
            rth = 1.0 / conductance
            if rth == inf:
                return inf
            p = power[i]
            return p * rth * p * weights[i]

        return price

    def _indices(self, cores: Sequence[str]) -> list[int]:
        floorplan = self._soc.floorplan
        for core in cores:
            if core not in floorplan:
                raise SchedulingError(f"unknown core {core!r}")
        return [floorplan.index_of(core) for core in cores]

    def _active_mask(self, indices: Iterable[int]) -> bytearray:
        active = bytearray(len(self._power))
        for i in indices:
            active[i] = 1
        return active

    def grow_session(
        self, candidates: Iterable[int], stcl: float, weights: Sequence[float]
    ) -> list[int]:
        price = self._pricer(self._power, weights)
        neighbours = self._neighbours
        active = bytearray(len(neighbours))
        session = []
        for core in candidates:
            if active[core]:
                raise SchedulingError(
                    f"core {self._soc.core_names[core]!r} is already part of "
                    f"the session"
                )
            if not price(core, active) / self._scale <= stcl:
                continue
            active[core] = 1
            for neighbour, _ in neighbours[core]:
                if (
                    active[neighbour]
                    and not price(neighbour, active) / self._scale <= stcl
                ):
                    active[core] = 0
                    break
            else:
                session.append(core)
        return session

    def singleton_stcs(
        self, cores: Iterable[int], weights: Sequence[float] | None = None
    ) -> list[float]:
        if weights is None:
            weights = [1.0] * len(self._power)
        price = self._pricer(self._power, weights)
        alone = bytearray(len(self._power))
        return [price(i, alone) / self._scale for i in cores]

    def equivalent_resistance(self, core: str, active: Iterable[str]) -> float:
        active_list = list(active)
        if core not in active_list:
            raise SchedulingError(
                f"core {core!r} must be part of the active set it is "
                f"evaluated against"
            )
        (i,) = self._indices([core])
        unit = {i: 1.0}
        price = self._pricer(unit, unit)
        return price(i, self._active_mask(self._indices(active_list)))

    def _terms(
        self, active: Iterable[str], weights: Mapping[str, float] | None
    ) -> list[tuple[str, float]]:
        names = list(active)
        indices = self._indices(names)
        by_index = {
            i: 1.0 if weights is None else weights.get(name, 1.0)
            for name, i in zip(names, indices)
        }
        price = self._pricer(self._power, by_index)
        mask = self._active_mask(indices)
        return [(name, price(i, mask)) for name, i in zip(names, indices)]

    def session_thermal_characteristic(
        self, active: Iterable[str], weights: Mapping[str, float] | None = None
    ) -> float:
        active_list = list(active)
        if len(set(active_list)) != len(active_list):
            raise SchedulingError(f"duplicate cores in session: {active_list}")
        worst = 0.0
        for _, contribution in self._terms(active_list, weights):
            if math.isinf(contribution):
                return math.inf
            worst = max(worst, contribution)
        return worst / self._scale

    def core_contributions(
        self, active: Iterable[str], weights: Mapping[str, float] | None = None
    ) -> dict[str, float]:
        return {
            core: contribution / self._scale
            for core, contribution in self._terms(active, weights)
        }
