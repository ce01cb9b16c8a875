"""The paper's figures as data: one table of grids, reductions and claims.

:data:`FIGURES` maps each experiment name that ``python -m
repro.experiments run`` and ``report`` take to a :class:`Figure`:

* its **grid**: from a seed and a simulated duration (plus keyword
  arguments that narrow it to some cells) to scenario configs, each keyed
  by the block, row and column it fills;
* one **reduction** of the results to titled ``{row: {column: value}}``
  blocks, which the CLI prints as text tables;
* the **title** that ``list`` prints;
* its **claims**: the orderings the paper reports, each a predicate over
  the blocks of the cells it reads (:class:`Claim`).

Tier-1 (``tests/experiments/test_claims.py``) checks every claim at its
own seed; CI's ``claims`` job (``.github/scripts/claims.py``) checks each
at :data:`CLAIM_SEEDS` seeds against its quorum.  Both go through
:func:`evaluate`, which runs the union of the cells they read as one
sweep, so a cell two claims share simulates once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments import (
    ablation,
    collisions,
    congestion,
    corpus,
    fading,
    hops,
    longlived,
    mobility,
    motivation,
    roofnet,
    voip,
    web,
    wigle,
)
from repro.experiments.parallel import SweepRunner, config_digest
from repro.experiments.runner import ScenarioConfig, ScenarioResult

#: One rendered table: ``{row label: {column: value}}``.
Table = Dict[object, Dict[object, float]]
#: A figure's reduced results: ``{block title: table}``, in print order.
Blocks = Dict[str, Table]
#: A grid's configs, each with the ``(block title, row, ...)`` key it fills.
Grid = Tuple[List[ScenarioConfig], List[tuple]]

#: How many seeds the claims job checks each claim at, from the claim's own up.
CLAIM_SEEDS = 10


@dataclass(frozen=True)
class Claim:
    """An ordering the paper reports, checked on one seed's reduced values.

    ``holds(*tables, tolerance)`` gets the figure's blocks, in order, for
    the cells ``cells`` (grid keyword arguments) narrows its grid to,
    simulated for ``duration_s``.  ``tolerance`` is the margin the
    predicate allows, in its own units.  Tier-1 checks the claim at
    ``seed``; the claims job at :data:`CLAIM_SEEDS` seeds from ``seed`` up,
    and fails when it holds at fewer than ``quorum`` of them.  A quorum is
    the number of those seeds the claim held at when it was measured, less
    one, so one seed may flip before the job fails.
    """

    name: str
    holds: Callable[..., bool]
    duration_s: float
    cells: Mapping[str, object] = field(default_factory=dict)
    tolerance: float = 0.0
    seed: int = 1
    quorum: int = CLAIM_SEEDS - 1


@dataclass(frozen=True)
class Figure:
    """One runnable figure or table: grid, reduction, title and claims."""

    title: str
    #: ``grid(seed=, duration_s=, **cells)``: the configs and their keys.
    grid: Callable[..., Grid]
    #: ``reduce(keys, results)``: the blocks the configs' results fill.
    reduce: Callable[[Sequence[tuple], Sequence[ScenarioResult]], Blocks]
    #: The simulated duration ``run`` uses when none is given.
    duration_s: float
    #: The heading ``list`` files the figure under.
    group: str = "paper figures"
    claims: Tuple[Claim, ...] = ()

    def blocks(
        self, runner: SweepRunner, seed: int, duration_s: Optional[float] = None, **cells
    ) -> Blocks:
        """Run (or fetch) the grid at ``seed`` through ``runner`` and reduce it."""
        if duration_s is None:
            duration_s = self.duration_s
        configs, keys = self.grid(seed=seed, duration_s=duration_s, **cells)
        return self.reduce(keys, runner.run(configs))


# ----------------------------------------------------------------------
# Grids: a figure module's grid, its keys filed under block titles
# ----------------------------------------------------------------------
def _block(title: str, grid: Callable[..., tuple], **fixed) -> Callable[..., Grid]:
    """``grid`` (called with ``fixed`` too) as one block titled ``title``."""

    def titled(**cells) -> Grid:
        configs, keys = grid(**fixed, **cells)
        return configs, [(title, *key) if isinstance(key, tuple) else (title, key)
                         for key in keys]

    return titled


def _panels(
    title: str, grid: Callable[..., tuple], axis: str, values: Sequence, **fixed
) -> Callable[..., Grid]:
    """One block per value of ``grid``'s keyword ``axis``, titled ``title.format(value)``.

    The ``panels`` keyword narrows the values.
    """

    def panelled(panels: Sequence = values, **cells) -> Grid:
        configs: List[ScenarioConfig] = []
        keys: List[tuple] = []
        for value in panels:
            block = _block(title.format(value), grid, **{axis: value}, **fixed)
            block_configs, block_keys = block(**cells)
            configs += block_configs
            keys += block_keys
        return configs, keys

    return panelled


def _corpus_grid(seed: int, duration_s: float, sample: int = corpus.CORPUS_SAMPLE) -> Grid:
    title = f"Corpus — sampled registry cross-product (sample seed {seed})"
    return _block(title, corpus.corpus_grid)(seed=seed, duration_s=duration_s, sample=sample)


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------
def _cells(value: Callable[[ScenarioResult], float]):
    """The reduction putting ``value(result)`` at each ``(block, row, column)`` key."""

    def reduce(keys: Sequence[tuple], results: Sequence[ScenarioResult]) -> Blocks:
        blocks: Blocks = {}
        for (title, row, column), result in zip(keys, results):
            blocks.setdefault(title, {}).setdefault(row, {})[column] = value(result)
        return blocks

    return reduce


def _rows(values: Callable[[ScenarioResult], Dict[str, float]]):
    """The reduction putting the columns ``values(result)`` at each ``(block, row)`` key."""

    def reduce(keys: Sequence[tuple], results: Sequence[ScenarioResult]) -> Blocks:
        blocks: Blocks = {}
        for (title, row), result in zip(keys, results):
            blocks.setdefault(title, {})[row] = values(result)
        return blocks

    return reduce


def _measured_flow(result: ScenarioResult):
    """The flow a cell measures: its first active flow, or flow 1 when all are active."""
    active = result.config.active_flows
    flow_id = active[0] if active else 1
    return next(flow for flow in result.flows if flow.flow_id == flow_id)


def _total_mbps(result: ScenarioResult) -> float:
    return result.total_throughput_mbps


def _measured_mbps(result: ScenarioResult) -> float:
    return _measured_flow(result).throughput_mbps


def _mean_mos(result: ScenarioResult) -> float:
    """Mean MoS over the calls; a run that scored none counts as the worst."""
    qualities = list(result.voip_quality.values())
    return sum(quality.mos for quality in qualities) / len(qualities) if qualities else 1.0


def _reduce_congestion(keys: Sequence[tuple], results: Sequence[ScenarioResult]) -> Blocks:
    """Two blocks per topology: the measured flow's Mb/s and its retransmitted segments."""
    blocks: Blocks = {}
    for (topology, transport, label), result in zip(keys, results):
        flow = _measured_flow(result)
        for title, value in (
            (f"Congestion — flow-1 Mb/s per transport ({topology})", flow.throughput_mbps),
            (f"Congestion — flow-1 retransmitted segments ({topology})",
             float(flow.retransmissions)),
        ):
            blocks.setdefault(title, {}).setdefault(transport, {})[label] = value
    return blocks


# ----------------------------------------------------------------------
# Claim predicates: each takes a figure's tables, then the tolerance
# ----------------------------------------------------------------------
#: The schemes Fig. 3 and Fig. 4 compare RIPPLE (R16) against.
OTHERS = ("S", "D", "R1", "A")
ROUTE_SETS = ("ROUTE0", "ROUTE1", "ROUTE2")


def _r16_beats_the_rest(*flow_counts: int):
    """R16 above the best of S, D, R1 and A at each flow count."""
    return lambda t, tol: all(
        t["R16"][n] > max(t[label][n] for label in OTHERS) for n in flow_counts
    )


def _within(low: float, high: float, ratio: Callable[[Table, object], float], columns=None):
    """``ratio(table, column)`` inside [low, high] at each column (default: all of R16's)."""
    return lambda t, tol: all(low <= ratio(t, n) <= high for n in columns or t["R16"])


def _beats_d(row: str, *columns):
    """``row`` above D at each of ``columns``."""
    return lambda t, tol: all(t[row][column] > t["D"][column] for column in columns)


def _r16_at_least_d(t: Table, tol: float) -> bool:
    """R16 at least D in every column but at most ``tol`` of them."""
    return sum(t["R16"][column] < t["D"][column] for column in t["D"]) <= tol


def _r16_moves_traffic(t: Table, tol: float) -> bool:
    return sum(t["R16"].values()) > 0


def _falls(rows: Sequence[str], near, far):
    """Each row's value at column ``far`` below its value at column ``near``."""
    return lambda t, tol: all(t[row][far] < t[row][near] for row in rows)


def _spr_beats_opportunistic(t: Table, tol: float) -> bool:
    return t["SPR"]["Mb/s"] > max(t["preExOR"]["Mb/s"], t["MCExOR"]["Mb/s"])


def _opportunistic_reorder(t: Table, tol: float) -> bool:
    """preExOR and MCExOR each re-order more than ``tol`` % of TCP segments."""
    return min(t["preExOR"]["reorder %"], t["MCExOR"]["reorder %"]) > tol


def _spr_barely_reorders(t: Table, tol: float) -> bool:
    return t["SPR"]["reorder %"] < tol


def _mos_in_range(t: Table, tol: float) -> bool:
    """Every scheme's MoS with ten calls on the E-model's 1.0-4.5 scale."""
    return all(1.0 <= t[label][10] <= 4.5 for label in ("D", "A", "R16"))


def _more_calls_no_better(t: Table, tol: float) -> bool:
    """No scheme's MoS with twenty calls above its MoS with ten, by more than ``tol``."""
    return all(t[label][20] <= t[label][10] + tol for label in ("D", "A", "R16"))


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
def _longlived(title: str, bit_error_rate: float, claims: Tuple[Claim, ...]) -> Figure:
    """Fig. 3 or Fig. 4: one panel per route set, at one BER."""
    return Figure(
        title=title,
        grid=_panels(
            f"{{}} (BER {bit_error_rate:g}) — total Mb/s vs active flows",
            longlived.longlived_panel_grid,
            "route_set",
            ROUTE_SETS,
            bit_error_rate=bit_error_rate,
        ),
        reduce=_cells(_total_mbps),
        duration_s=1.0,
        claims=claims,
    )


_ROUTE0 = dict(panels=("ROUTE0",))
_HOPS_2_4_6 = dict(hop_counts=(2, 4, 6))
_CALLS_10_20 = dict(flow_groups=(10, 20))

FIGURES: Dict[str, Figure] = {
    # Section II: SPR 6.7 Mb/s, preExOR 5.9, MCExOR 5.85 over 10 s, and
    # 26.58 % / 27.9 % of TCP segments re-ordered under preExOR / MCExOR.
    "motivation": Figure(
        title="Section II: SPR vs preExOR vs MCExOR",
        grid=_block("Section II motivation", motivation.motivation_grid),
        reduce=_rows(
            lambda result: {
                "Mb/s": result.total_throughput_mbps,
                "reorder %": 100.0 * result.reordering_ratio,
            }
        ),
        duration_s=1.0,
        claims=(
            Claim("spr_beats_opportunistic", _spr_beats_opportunistic, 0.4),
            Claim("spr_beats_opportunistic", _spr_beats_opportunistic, 0.6),
            Claim("opportunistic_schemes_reorder", _opportunistic_reorder, 0.4, tolerance=5.0),
            Claim("opportunistic_schemes_reorder", _opportunistic_reorder, 0.6, tolerance=5.0),
            Claim("spr_barely_reorders", _spr_barely_reorders, 0.4, tolerance=3.0, quorum=7),
            Claim("spr_barely_reorders", _spr_barely_reorders, 0.6, tolerance=3.0),
            Claim("all_schemes_make_progress",
                  lambda t, tol: min(row["Mb/s"] for row in t.values()) > tol, 0.4,
                  tolerance=0.5),
            # RIPPLE keeps three competing flows in order: a late arrival is
            # a TCP retransmission, far below preExOR's and MCExOR's 26-28 %.
            Claim("r16_keeps_three_flows_in_order", lambda t, tol: t["R16"]["reorder %"] < tol,
                  0.3, dict(schemes=("R16",), active_flows=(1, 2, 3)), tolerance=5.0, seed=3,
                  quorum=8),
        ),
    ),
    # Fig. 3: RIPPLE on top in every panel, with "100 %-300 % gains over
    # the other approaches" (R16 over the best of S, D, R1 and A); R1
    # "slightly higher" than DCF; S the worst; "a significantly lower
    # throughput is achieved on ROUTE2".
    "fig3": _longlived(
        "Long-lived TCP, BER 1e-6, ROUTE0/1/2",
        1e-6,
        (
            *(Claim(f"r16_beats_the_rest.{route.lower()}", _r16_beats_the_rest(1, 2, 3), 0.5,
                    dict(panels=(route,)))
              for route in ROUTE_SETS),
            Claim("r16_gain_over_the_rest",
                  _within(2.0, 4.0, lambda t, n: t["R16"][n] / max(t[lab][n] for lab in OTHERS)),
                  0.5, _ROUTE0, quorum=8),
            Claim("r16_over_d", _within(6.0, 9.5, lambda t, n: t["R16"][n] / t["D"][n], (1,)),
                  0.5, _ROUTE0),
            Claim("r1_over_d", _within(1.3, 1.9, lambda t, n: t["R1"][n] / t["D"][n], (1,)),
                  0.5, _ROUTE0),
            Claim("a_beats_d", _beats_d("A", 1), 0.5, _ROUTE0),
            *(Claim(f"direct_route_far_below_d.{route.lower()}",
                    lambda t, tol: t["S"][1] < tol * t["D"][1], 0.5, dict(panels=(route,)),
                    tolerance=0.5)
              for route in ROUTE_SETS),
            Claim("direct_route_below_d",
                  lambda t, tol: all(t["S"][n] < t["D"][n] for n in (1, 2)), 0.5, _ROUTE0),
            Claim("route2_below_route0",
                  lambda route0, route2, tol: route2["R16"][1] < route0["R16"][1], 0.3,
                  dict(panels=("ROUTE0", "ROUTE2"), scheme_labels=("R16",), flow_sets=((1,),))),
        ),
    ),
    # Fig. 4: RIPPLE keeps its lead when noise corrupts ~8 % of packets.
    "fig4": _longlived(
        "Long-lived TCP, BER 1e-5, ROUTE0/1/2",
        1e-5,
        (
            *(Claim(f"r16_beats_the_rest.{route.lower()}", _r16_beats_the_rest(1, 3), 0.5,
                    dict(panels=(route,), flow_sets=((1,), (1, 2, 3))))
              for route in ROUTE_SETS),
            Claim("r16_beats_d_and_a", lambda t, tol: t["R16"][1] > max(t["D"][1], t["A"][1]),
                  0.3, dict(_ROUTE0, scheme_labels=("D", "A", "R16"), flow_sets=((1,),))),
        ),
    ),
    # Fig. 6(a): RIPPLE above AFR above DCF at every flow count.
    "fig6a": Figure(
        title="Regular collisions (parallel flows)",
        grid=_block("Fig. 6(a) — total Mb/s vs parallel flows",
                    collisions.regular_collisions_grid),
        reduce=_cells(_total_mbps),
        duration_s=1.0,
        claims=(
            Claim("r16_beats_d", _beats_d("R16", 1, 3, 5), 0.4, dict(flow_counts=(1, 3, 5))),
            Claim("a_beats_d", _beats_d("A", 1, 3, 5), 0.4, dict(flow_counts=(1, 3, 5))),
            Claim("r16_beats_d", _beats_d("R16", 1, 3), 0.25, dict(flow_counts=(1, 3))),
        ),
    ),
    # Fig. 6(b): hidden load throttles flow 1 under every scheme; RIPPLE
    # leads while the hidden load is light.
    "fig6b": Figure(
        title="Hidden collisions (hidden UDP load)",
        grid=_block("Fig. 6(b) — flow-1 Mb/s vs hidden flows",
                    collisions.hidden_collisions_grid),
        reduce=_cells(_measured_mbps),
        duration_s=1.0,
        claims=(
            Claim("hidden_load_throttles_flow1", _falls(("D", "A", "R16"), 0, 7), 0.4,
                  dict(hidden_counts=(0, 3, 7))),
            Claim("r16_leads_without_hidden_load", _beats_d("R16", 0), 0.4,
                  dict(hidden_counts=(0, 3, 7))),
            Claim("hidden_load_throttles_flow1", _falls(("D", "R16"), 0, 6), 0.3,
                  dict(hidden_counts=(0, 6))),
        ),
    ),
    # Fig. 7(a): throughput falls with path length and RIPPLE stays on top.
    "fig7a": Figure(
        title="2-7 hop line, no cross traffic",
        grid=_block("Fig. 7 — flow-1 Mb/s vs hops (no cross traffic)", hops.hops_grid,
                    cross_traffic=False),
        reduce=_cells(_measured_mbps),
        duration_s=1.0,
        claims=(
            Claim("throughput_falls_with_distance", _falls(("D", "A", "R16"), 2, 6), 0.4,
                  _HOPS_2_4_6),
            Claim("r16_at_least_d", _r16_at_least_d, 0.4, _HOPS_2_4_6),
            Claim("throughput_falls_with_distance", _falls(("D", "R16"), 2, 5), 0.3,
                  dict(hop_counts=(2, 5))),
            Claim("r16_beats_d", _beats_d("R16", 2, 5), 0.3, dict(hop_counts=(2, 5))),
        ),
    ),
    # Fig. 7(b): a saturating cross flow on the middle relay hurts the short
    # lines most; RIPPLE keeps its lead on the shorter paths.
    "fig7b": Figure(
        title="2-7 hop line, with cross traffic",
        grid=_block("Fig. 7 — flow-1 Mb/s vs hops (with cross traffic)", hops.hops_grid,
                    cross_traffic=True),
        reduce=_cells(_measured_mbps),
        duration_s=1.0,
        claims=(
            Claim("every_scheme_moves_traffic",
                  lambda t, tol: all(sum(row.values()) > 0 for row in t.values()), 0.4,
                  _HOPS_2_4_6),
            Claim("r16_at_least_d", _r16_at_least_d, 0.4, _HOPS_2_4_6, tolerance=1, quorum=8),
        ),
    ),
    # Fig. 8: RIPPLE carries more web traffic than DCF, and about AFR's.
    "fig8": Figure(
        title="Short web transfers",
        grid=_block("Fig. 8 — web traffic", web.web_grid),
        reduce=_rows(
            lambda result: {
                "Mb/s": result.total_throughput_mbps,
                "segments": float(sum(flow.packets_received for flow in result.flows)),
            }
        ),
        duration_s=2.0,
        claims=(
            Claim("r16_beats_d", _beats_d("R16", "Mb/s"), 1.0),
            Claim("r16_beats_d", _beats_d("R16", "Mb/s"), 0.5),
            Claim("r16_near_a", lambda t, tol: t["R16"]["Mb/s"] > tol * t["A"]["Mb/s"], 1.0,
                  tolerance=0.8),
        ),
    ),
    # Table III (BER 1e-6, calls 1..10 / 1..20 / 1..30): DCF 4.13 / 1.56 /
    # 1.20, AFR 4.12 / 1.42 / 1.01, RIPPLE 4.14 / 2.82 / 2.09.
    "table3": Figure(
        title="VoIP MoS, both BER points",
        grid=_panels("Table III — mean MoS (BER {:g})", voip.voip_grid, "bit_error_rate",
                     (1e-6, 1e-5)),
        reduce=_cells(_mean_mos),
        duration_s=2.0,
        claims=(
            *(claim
              for channel, ber in (("clear", 1e-6), ("noisy", 1e-5))
              for claim in (
                  Claim(f"mos_in_range.{channel}", _mos_in_range, 1.5,
                        dict(_CALLS_10_20, panels=(ber,))),
                  Claim(f"more_calls_no_better.{channel}", _more_calls_no_better, 1.5,
                        dict(_CALLS_10_20, panels=(ber,)), tolerance=0.2),
                  Claim(f"r16_near_d_and_a_under_load.{channel}",
                        lambda t, tol: t["R16"][20] >= max(t["D"][20], t["A"][20]) - tol, 1.5,
                        dict(_CALLS_10_20, panels=(ber,)), tolerance=0.1),
              )),
            Claim("mos_in_range.clear", _mos_in_range, 1.0,
                  dict(panels=(1e-6,), flow_groups=(10,))),
            Claim("r16_at_least_d.clear", lambda t, tol: t["R16"][10] >= t["D"][10], 1.0,
                  dict(panels=(1e-6,), flow_groups=(10,))),
        ),
    ),
    # Fig. 10: RIPPLE matches or beats DCF on the measured pairs (up to
    # ~200 % gains), at both PHY rates.  Three of the eight pairs.
    "fig10": Figure(
        title="Wigle topology per-pair throughput",
        grid=_block("Fig. 10 — Wigle per-pair Mb/s", wigle.wigle_grid),
        reduce=_cells(_measured_mbps),
        duration_s=1.0,
        claims=tuple(
            Claim(f"r16_at_least_d.{rate:g}mbps{'_hidden' if hidden else ''}", _r16_at_least_d,
                  0.4, dict(data_rate_mbps=rate, hidden_traffic=hidden, max_flows=3),
                  tolerance=2 if hidden else 1)
            for rate in (6.0, 216.0)
            for hidden in (False, True)
        ),
    ),
    # Fig. 12: RIPPLE outperforms DCF and AFR on multi-hop pairs (up to
    # ~300 % gains), with and without hidden terminals.
    "fig12": Figure(
        title="Roofnet topology per-pair throughput",
        grid=_block("Fig. 12 — Roofnet per-pair Mb/s", roofnet.roofnet_grid),
        reduce=_cells(_measured_mbps),
        duration_s=1.0,
        claims=(
            Claim("r16_moves_traffic.no_hidden", _r16_moves_traffic, 0.4,
                  dict(hop_counts=(3, 4)), seed=7),
            Claim("r16_at_least_d.no_hidden", _r16_at_least_d, 0.4, dict(hop_counts=(3, 4)),
                  tolerance=1, seed=7),
            Claim("r16_moves_traffic.hidden", _r16_moves_traffic, 0.4,
                  dict(hidden_terminals=True, hop_counts=(3, 4)), seed=7, quorum=6),
            Claim("r16_at_least_d.hidden", _r16_at_least_d, 0.4,
                  dict(hidden_terminals=True, hop_counts=(3, 4)), tolerance=1, seed=7, quorum=3),
            # All six pairs: R16 >= D on all but at most one.
            Claim("r16_at_least_d.all_pairs", _r16_at_least_d, 0.4, dict(schemes=("D", "R16")),
                  tolerance=1, seed=7, quorum=8),
        ),
    ),
    "ablation-aggregation": Figure(
        title="RIPPLE max-aggregation sweep",
        grid=_block("Ablation — Mb/s vs max aggregation", ablation.aggregation_ablation_grid),
        reduce=_cells(_total_mbps),
        duration_s=1.0,
        group="ablations",
        claims=(
            Claim("aggregation_helps", lambda t, tol: min(t["R"][4], t["R"][16]) > t["R"][1], 0.4,
                  dict(levels=(1, 4, 16))),
        ),
    ),
    "ablation-forwarders": Figure(
        title="RIPPLE forwarder-cap sweep",
        grid=_block("Ablation — Mb/s vs max forwarders", ablation.forwarder_ablation_grid),
        reduce=_cells(_measured_mbps),
        duration_s=1.0,
        group="ablations",
        claims=(
            # One forwarder cannot cover a 6-hop path; the paper's default 5 must help.
            Claim("five_forwarders_beat_one", lambda t, tol: t["R16"][5] > t["R16"][1], 0.4,
                  dict(forwarder_counts=(1, 3, 5), n_hops=6)),
        ),
    ),
    "mobility-tcp": Figure(
        title="TCP throughput vs node speed (random waypoint)",
        grid=_block("Mobility — TCP Mb/s vs node speed (m/s, random waypoint)",
                    mobility.mobility_tcp_grid),
        reduce=_cells(_total_mbps),
        duration_s=1.0,
        group="mobility",
    ),
    "mobility-voip": Figure(
        title="VoIP MoS vs node speed (random waypoint)",
        grid=_block("Mobility — mean VoIP MoS vs node speed (m/s, random waypoint)",
                    mobility.mobility_voip_grid),
        reduce=_cells(_mean_mos),
        duration_s=2.0,
        group="mobility",
    ),
    "fading": Figure(
        title="D/R16 line throughput per propagation model",
        grid=_block("Fading — flow-1 Mb/s per propagation model (4-hop line)",
                    fading.fading_grid),
        reduce=_cells(_measured_mbps),
        duration_s=1.0,
        group="components",
    ),
    "congestion": Figure(
        title="Transport x MAC grid (reno/tahoe/newreno/cubic)",
        grid=_panels("{}", congestion.congestion_grid, "topology", ("line", "roofnet")),
        reduce=_reduce_congestion,
        duration_s=1.0,
        group="components",
    ),
    "corpus": Figure(
        title="Seeded sample of the registry cross-product "
        "(axes: topology x mac x routing x traffic x transport x phy x mobility)",
        grid=_corpus_grid,
        reduce=_rows(
            lambda result: {
                "Mb/s": result.total_throughput_mbps,
                "events": float(result.events_processed),
            }
        ),
        duration_s=corpus.CORPUS_DURATION_S,
        group="corpus",
    ),
}

#: Every claim of :data:`FIGURES` by id, ``<figure>.<claim>@<duration>s``.
CLAIMS: Dict[str, Tuple[Figure, Claim]] = {
    f"{name}.{claim.name}@{claim.duration_s:g}s": (figure, claim)
    for name, figure in FIGURES.items()
    for claim in figure.claims
}


def evaluate(
    claim_ids: Sequence[str], runner: SweepRunner, seeds: int = 1
) -> Dict[str, List[bool]]:
    """Whether each claim holds at its seed and the ``seeds - 1`` after it.

    The union of the cells the claims read runs as one sweep, so
    ``runner`` fans it all out at once and a cell two claims share
    simulates once.
    """
    grids: Dict[Tuple[str, int], Grid] = {}
    for claim_id in claim_ids:
        figure, claim = CLAIMS[claim_id]
        for seed in range(claim.seed, claim.seed + seeds):
            grids[claim_id, seed] = figure.grid(
                seed=seed, duration_s=claim.duration_s, **claim.cells
            )
    cells = {config_digest(config): config for configs, _ in grids.values() for config in configs}
    results = dict(zip(cells, runner.run(list(cells.values()))))
    verdicts: Dict[str, List[bool]] = {claim_id: [] for claim_id in claim_ids}
    for (claim_id, _seed), (configs, keys) in grids.items():
        figure, claim = CLAIMS[claim_id]
        blocks = figure.reduce(keys, [results[config_digest(config)] for config in configs])
        verdicts[claim_id].append(bool(claim.holds(*blocks.values(), claim.tolerance)))
    return verdicts
