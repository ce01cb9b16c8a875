"""Declarative scenario grids: experiment families as data, not loops.

Every figure/table of the paper is a Cartesian sweep over a handful of
axes (scheme label × flow count, scheme × node speed, ...).
:func:`scenario_grid` is the one grid expander: a figure, an example or a
script states its grid declaratively and hands the configs to
:class:`~repro.experiments.parallel.SweepRunner`:

.. code-block:: python

    configs, keys = scenario_grid(
        base_config,
        {
            "scheme_label": ("D", "A", "R16"),
            "n_flows": Axis((1, 3, 5), bind=lambda cfg, n:
                            replace(cfg, topology=fig5a_topology(n_flows=n))),
        },
    )

Axes are swept in declaration order with the last axis fastest (exactly
like nested for-loops).  A plain sequence axis whose name is a
:class:`~repro.experiments.runner.ScenarioConfig` field binds with
``dataclasses.replace``; an :class:`Axis` can carry a custom ``bind``
(for values that construct topologies, mobility specs, active flow
lists, ...) and a custom ``key`` (the label the result tables use — e.g.
the *length* of an active-flow tuple).

``keys`` come back as one tuple per config (scalars for one-axis grids,
``()`` for the lone config of a grid with no axes), which is what the
figure reductions of :mod:`repro.experiments.figures` zip against the
sweep results.
"""

from __future__ import annotations

import dataclasses
from itertools import product
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments.runner import ScenarioConfig
from repro.phy.params import PhyParams
from repro.spec import SCENARIO_FIELDS


@dataclasses.dataclass(frozen=True)
class Axis:
    """One sweep dimension: its values plus how they bind and label.

    ``bind(config, value)`` returns the config with the value applied
    (default: ``dataclasses.replace`` on the field named like the axis);
    ``key(value)`` is the table label for the grid cell (default: the
    value itself).
    """

    values: Sequence
    bind: Optional[Callable[[ScenarioConfig, object], ScenarioConfig]] = None
    key: Optional[Callable[[object], object]] = None


def _as_axis(name: str, axis: Union[Axis, Sequence]) -> Axis:
    if isinstance(axis, Axis):
        return axis
    if name not in SCENARIO_FIELDS:
        raise TypeError(
            f"axis {name!r} is not a ScenarioConfig field; pass an Axis with "
            f"an explicit bind for derived axes"
        )
    return Axis(values=tuple(axis))


def scenario_grid(
    base: ScenarioConfig,
    axes: Mapping[str, Union[Axis, Sequence]],
) -> Tuple[List[ScenarioConfig], List[object]]:
    """Expand ``base`` over ``axes``; returns ``(configs, keys)``.

    ``keys[i]`` is the tuple of per-axis labels for ``configs[i]``
    (unwrapped to a scalar when there is a single axis), in the same
    declaration order as ``axes``.  No axes expand to ``([base], [()])``.
    """
    named: Dict[str, Axis] = {name: _as_axis(name, axis) for name, axis in axes.items()}
    names = list(named)
    configs: List[ScenarioConfig] = []
    keys: List[object] = []
    for combo in product(*(named[name].values for name in names)):
        config = base
        key_parts = []
        for name, value in zip(names, combo):
            axis = named[name]
            if axis.bind is not None:
                config = axis.bind(config, value)
            else:
                config = dataclasses.replace(config, **{name: value})
            key_parts.append(axis.key(value) if axis.key is not None else value)
        configs.append(config)
        keys.append(key_parts[0] if len(key_parts) == 1 else tuple(key_parts))
    return configs, keys


def propagation_axis(
    names: Sequence[str],
    params: Optional[Mapping[str, Dict[str, object]]] = None,
    key: Optional[Callable] = None,
) -> Axis:
    """An axis sweeping the PHY's propagation model by registered name.

    Each value is a name in :data:`repro.phy.registry.PROPAGATION_MODELS`;
    ``params`` optionally maps a name to its ``propagation_params`` dict
    (e.g. ``{"rician": {"k_factor": 8}}``).  The bound config keeps its
    existing PHY profile (or the default) with only the propagation
    fields replaced, so rate/threshold sweeps compose with this axis.
    """
    model_params = dict(params or {})

    def bind(config: ScenarioConfig, name: str) -> ScenarioConfig:
        phy = config.phy if config.phy is not None else PhyParams()
        phy = dataclasses.replace(
            phy, propagation=name, propagation_params=model_params.get(name)
        )
        return dataclasses.replace(config, phy=phy)

    return Axis(values=tuple(names), bind=bind, key=key)


def topology_axis(values: Sequence, build: Callable, key: Optional[Callable] = None) -> Axis:
    """An axis whose values parameterise the *topology* (built once per value).

    ``build(value)`` constructs the :class:`TopologySpec`; construction is
    memoised up front so a multi-scheme grid reuses one spec object per
    value instead of regenerating it for every scheme.
    """
    built = {value: build(value) for value in values}
    return Axis(
        values=tuple(values),
        bind=lambda config, value: dataclasses.replace(config, topology=built[value]),
        key=key,
    )
