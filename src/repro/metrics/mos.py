"""VoIP quality metrics: the E-model R-factor and Mean Opinion Score.

Section IV-E of the paper gives both formulas explicitly:

* R-factor (from [6]):
  ``R = 94.2 - 0.024 d - 0.11 (d - 177.3) H(d - 177.3) - 11 - 40 log10(1 + 10 e)``
  where ``d`` is the mouth-to-ear delay in milliseconds (coding + network +
  buffering), ``e`` the total loss rate (network losses plus packets that
  arrive too late), and ``H`` the Heaviside step function.

* MoS from R:
  ``1`` if ``R < 0``; ``4.5`` if ``R > 100``; otherwise
  ``1 + 0.035 R + 7e-6 R (R - 60)(100 - R)``.

The paper aims for a 177 ms mouth-to-ear budget of which 52 ms is allowed
in the wireless segment; packets delayed beyond the wireless budget count
as lost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.serialization import Wire

#: Mouth-to-ear delay budget used in the paper (milliseconds).
MOUTH_TO_EAR_DELAY_MS = 177.0
#: Portion of the budget allowed for the wireless segment (milliseconds).
WIRELESS_DELAY_BUDGET_MS = 52.0


def heaviside(x: float) -> float:
    """H(x) = 1 if x > 0 else 0 (as defined in the paper)."""
    return 1.0 if x > 0 else 0.0


def r_factor(delay_ms: float, loss_rate: float) -> float:
    """E-model transmission rating for a given delay (ms) and loss rate (0..1)."""
    if loss_rate < 0 or loss_rate > 1:
        raise ValueError(f"loss_rate must be within [0, 1], got {loss_rate}")
    d = float(delay_ms)
    e = float(loss_rate)
    return (
        94.2
        - 0.024 * d
        - 0.11 * (d - 177.3) * heaviside(d - 177.3)
        - 11.0
        - 40.0 * math.log10(1.0 + 10.0 * e)
    )


def mos_from_r(r: float) -> float:
    """Map an R-factor to a 1..4.5 Mean Opinion Score (paper's piecewise formula).

    The polynomial dips fractionally below 1 for tiny positive R; since MoS is
    defined on [1, 5] the result is clamped at 1 (the "impossible" grade).
    """
    if r < 0:
        return 1.0
    if r > 100:
        return 4.5
    return max(1.0, 1.0 + 0.035 * r + 7e-6 * r * (r - 60.0) * (100.0 - r))


def mos(delay_ms: float, loss_rate: float) -> float:
    """Convenience: MoS directly from delay and loss."""
    return mos_from_r(r_factor(delay_ms, loss_rate))


@dataclass(frozen=True)
class VoipQuality(Wire):
    """Summary of one VoIP flow's perceived quality."""

    delay_ms: float
    loss_rate: float
    r_factor: float
    mos: float


def evaluate_voip(
    on_time: int,
    packets_sent: int,
    mouth_to_ear_ms: float = MOUTH_TO_EAR_DELAY_MS,
) -> VoipQuality:
    """Score a VoIP flow from how many of its packets arrived on time.

    ``on_time`` counts the packets whose one-way wireless delay was within
    :data:`WIRELESS_DELAY_BUDGET_MS` (the UDP receiver counts them).
    Packets that never arrived, plus packets that arrived after the wireless
    delay budget, count as losses (Section IV-E).  The mouth-to-ear delay
    used in the R-factor is the fixed budget — coding, de-jitter buffering
    and the wired segment are assumed to consume the rest, as in the paper's
    setup which *aims* for a 177 ms mouth-to-ear delay.
    """
    if packets_sent <= 0:
        return VoipQuality(mouth_to_ear_ms, 1.0, r_factor(mouth_to_ear_ms, 1.0), 1.0)
    losses = packets_sent - on_time
    loss_rate = min(1.0, max(0.0, losses / packets_sent))
    rating = r_factor(mouth_to_ear_ms, loss_rate)
    return VoipQuality(
        delay_ms=mouth_to_ear_ms,
        loss_rate=loss_rate,
        r_factor=rating,
        mos=mos_from_r(rating),
    )
