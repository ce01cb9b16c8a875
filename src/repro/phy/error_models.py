"""Independent and identically distributed bit-error model.

Section IV: "We use a widely used independent and identically distributed
(i.i.d.) BER model ... we use a BER of 1e-5 and 1e-6 to simulate a 'noisy'
and a 'clear' channel state respectively."

The granularity matters: with packet aggregation (AFR and RIPPLE) a MAC
frame carries several upper-layer packets each protected by its own CRC,
so bit errors corrupt individual *sub-packets* while the rest of the frame
survives.  The channel (:meth:`repro.phy.channel.WirelessChannel.apply_bit_errors`)
therefore draws errors per sub-packet, and separately for the MAC header,
whose corruption loses the whole frame, each against this model's
:meth:`BitErrorModel.success_probability`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List


@lru_cache(maxsize=4096)
def _block_success_probability(bit_error_rate: float, bits: int) -> float:
    """``(1 - BER)^bits``, memoised.

    The channel evaluates this once per sub-packet per decoded frame, but a
    scenario only ever uses a handful of distinct ``(BER, bits)`` pairs
    (the paper's two BER operating points times a few frame layouts), so
    the ``pow`` — one of the hot-path's few transcendental operations — is
    worth caching process-wide.
    """
    return float((1.0 - bit_error_rate) ** bits)


@dataclass(slots=True)
class FrameErrorResult:
    """Outcome of pushing one frame through the bit-error model.

    ``slots=True``: one result is allocated per decoded frame, on the
    delivery hot path.
    """

    header_ok: bool
    subpacket_ok: List[bool]


@dataclass(frozen=True, slots=True)
class BitErrorModel:
    """i.i.d. per-bit error model: BER 1e-6 is the paper's clear channel, 1e-5 its noisy one."""

    bit_error_rate: float = 1e-6

    def success_probability(self, bits: int) -> float:
        """Probability that a block of ``bits`` is received without any bit error."""
        if bits <= 0:
            return 1.0
        if self.bit_error_rate <= 0:
            return 1.0
        return _block_success_probability(self.bit_error_rate, bits)
