"""Time units for the simulator.

All simulation time is kept as integer **nanoseconds**.  Integer time
makes event ordering exact and reproducible, which matters because the
protocols under study (Section III of the paper) are defined in terms of
precise timing relationships such as ``i * T_slot + T_SIFS``: two events
that the protocol defines to be simultaneous must compare equal, and two
events separated by one slot must never be reordered by floating-point
round-off.

Helper constructors (:func:`us`, :func:`ms`, :func:`seconds`) convert
human-friendly quantities into integer nanoseconds, rounding to the
nearest nanosecond.  Conversion back to floating-point seconds is only
done at the reporting boundary (:func:`ns_to_seconds`).
"""

from __future__ import annotations

MICROSECOND: int = 1_000
MILLISECOND: int = 1_000_000
SECOND: int = 1_000_000_000


def us(value: float) -> int:
    """Convert microseconds to integer nanoseconds (rounded)."""
    return int(round(value * MICROSECOND))


def ms(value: float) -> int:
    """Convert milliseconds to integer nanoseconds (rounded)."""
    return int(round(value * MILLISECOND))


def seconds(value: float) -> int:
    """Convert seconds to integer nanoseconds (rounded)."""
    return int(round(value * SECOND))


def ns_to_seconds(value: int) -> float:
    """Convert integer nanoseconds back to floating-point seconds."""
    return value / SECOND


def transmission_time_ns(bits: int | float, rate_bps: float) -> int:
    """Airtime of ``bits`` at ``rate_bps`` in integer nanoseconds (rounded up).

    Rounding up guarantees a transmission never finishes "early", which keeps
    the MAC timing conservative in the same way NS-2's PHY does.
    """
    if rate_bps <= 0:
        raise ValueError(f"rate_bps must be positive, got {rate_bps}")
    exact = bits * SECOND / rate_bps
    return int(-(-exact // 1))  # ceiling without math.ceil on floats near ints
