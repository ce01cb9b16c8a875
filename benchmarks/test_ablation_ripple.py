"""A1 — Ablations: RIPPLE's aggregation limit and forwarder-list cap.

Not a paper figure; quantifies two of RIPPLE's design choices:
how much of RIPPLE's gain comes from aggregation (interpolating between the
paper's R1 and R16 bars) and how sensitive it is to the maximum number of
forwarders (Section III-B4 defaults to 5 and discusses up to 7).
"""

from repro.experiments.ablation import run_aggregation_ablation, run_forwarder_ablation


def test_aggregation_ablation(benchmark, run_once):
    result = run_once(run_aggregation_ablation, levels=(1, 4, 16), duration_s=0.4, seed=1)
    for level, value in result.throughput_mbps.items():
        benchmark.extra_info[f"agg{level}_mbps"] = round(value, 2)
    assert result.throughput_mbps[16] > result.throughput_mbps[1]
    assert result.throughput_mbps[4] > result.throughput_mbps[1]


def test_forwarder_ablation(benchmark, run_once):
    result = run_once(
        run_forwarder_ablation, forwarder_counts=(1, 3, 5), n_hops=6, duration_s=0.4, seed=1
    )
    for count, value in result.throughput_mbps.items():
        benchmark.extra_info[f"fwd{count}_mbps"] = round(value, 2)
    # With only one forwarder allowed the 6-hop path cannot be covered;
    # allowing the paper's default of 5 must help.
    assert result.throughput_mbps[5] > result.throughput_mbps[1]
