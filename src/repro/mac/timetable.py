"""The timing table: frame airtimes and exchange timeouts, looked up.

Every data and ACK transmission needs its frame's airtime, and every data
frame sets the time its sender waits for the answer: DCF's ACK timeout or
RIPPLE's mTXOP timeout.  preExOR and MCExOR space their ACK slots, and
size their ACK windows, by the airtime of a plain ACK.  Each is a pure
function of a few numbers fixed for the run (the PLCP header, a rate,
SIFS, the slot, the frame's bits and forwarder count), so the MACs look
them up here instead of recomputing them per frame.  Like the block success probabilities of
:mod:`repro.phy.error_models`, the table is process-wide and bounded, and
it keeps nothing on any station.

Every entry is keyed by the rate the MAC's ``phy`` holds at send time,
never by bits alone: rate adaptation (:mod:`repro.mac.rate_adapt`)
swaps ``mac.phy`` at every rate step.

The references are :meth:`~repro.mac.frames.MacFrame.airtime_ns`,
:meth:`~repro.mac.timing.MacTiming.ack_timeout_ns`,
:meth:`~repro.mac.timing.MacTiming.ack_airtime_ns` and
:meth:`~repro.core.ripple.RippleMac.mtxop_timeout_ns`, which stay as they
were; ``tests/mac/test_timetable.py`` holds the table to them.
"""

from __future__ import annotations

from functools import lru_cache

from repro.mac.frames import FrameKind, MacFrame
from repro.mac.timing import MacTiming, ack_bits
from repro.phy.params import PhyParams
from repro.sim.units import transmission_time_ns

#: Entries each lookup keeps; a run uses a few dozen.
TABLE_SIZE = 1024


def frame_airtime_ns(frame: MacFrame, phy: PhyParams) -> int:
    """``frame.airtime_ns(phy)``: data frames at the data rate, ACKs at the basic rate."""
    bits = frame.header_bits
    for subpacket in frame.subpackets:
        bits += subpacket.bits
    rate_bps = phy.basic_rate_bps if frame.kind is FrameKind.ACK else phy.data_rate_bps
    return _airtime_ns(phy.phy_header_ns, rate_bps, bits)


def ack_timeout_ns(timing: MacTiming, phy: PhyParams) -> int:
    """``timing.ack_timeout_ns(phy)``: how long a DCF sender waits for its ACK."""
    return _ack_timeout_ns(timing.sifs_ns, timing.slot_ns, phy.phy_header_ns, phy.basic_rate_bps)


def ack_airtime_ns(phy: PhyParams) -> int:
    """``timing.ack_airtime_ns(phy)``: a plain ACK, no forwarder list, at the basic rate."""
    return _airtime_ns(phy.phy_header_ns, phy.basic_rate_bps, ack_bits())


def mtxop_timeout_ns(timing: MacTiming, phy: PhyParams, frame: MacFrame) -> int:
    """``RippleMac.mtxop_timeout_ns(frame)`` of a MAC holding ``timing`` and ``phy``."""
    return _mtxop_timeout_ns(
        timing.sifs_ns,
        timing.slot_ns,
        phy.phy_header_ns,
        phy.data_rate_bps,
        phy.basic_rate_bps,
        len(frame.forwarder_list),
        frame.total_bits,
    )


@lru_cache(maxsize=TABLE_SIZE)
def _airtime_ns(header_ns: int, rate_bps: float, bits: int) -> int:
    return header_ns + transmission_time_ns(bits, rate_bps)


@lru_cache(maxsize=TABLE_SIZE)
def _ack_timeout_ns(sifs_ns: int, slot_ns: int, header_ns: int, basic_rate_bps: float) -> int:
    return sifs_ns + _airtime_ns(header_ns, basic_rate_bps, ack_bits()) + 2 * slot_ns


@lru_cache(maxsize=TABLE_SIZE)
def _mtxop_timeout_ns(
    sifs_ns: int,
    slot_ns: int,
    header_ns: int,
    data_rate_bps: float,
    basic_rate_bps: float,
    forwarders: int,
    data_bits: int,
) -> int:
    n = forwarders
    data_airtime = _airtime_ns(header_ns, data_rate_bps, data_bits)
    ack_airtime = _airtime_ns(header_ns, basic_rate_bps, ack_bits(n))
    total = n * (sifs_ns + n * slot_ns + data_airtime)
    total += sifs_ns + ack_airtime
    total += n * (sifs_ns + max(0, n - 1) * slot_ns + ack_airtime)
    return total + (n + 2) * slot_ns
