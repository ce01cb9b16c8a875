"""bench/speed.py: scaling wall times by the kernel samples around them."""

import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import speed  # noqa: E402


def _speedometer(samples):
    """A Speedometer holding ``samples`` of (end time, kernel seconds)."""
    meter = speed.Speedometer()
    meter._ends = [end for end, _kernel in samples]
    meter._kernel_s = [kernel for _end, kernel in samples]
    return meter


def test_a_span_is_scaled_by_the_kernel_samples_inside_it():
    ref = speed.REFERENCE_KERNEL_S
    slow = [(0.01 * i, 2 * ref) for i in range(100)]  # 0.00 .. 0.99 s at half speed
    fast = [(1.0 + 0.01 * i, ref) for i in range(100)]  # 1.00 .. 1.99 s at full speed
    meter = _speedometer(slow + fast)
    assert meter.scaled((0.2, 0.6)) == pytest.approx(0.2)
    assert meter.scaled((1.2, 1.6)) == pytest.approx(0.4)
    assert meter.slowdown() == pytest.approx(1.5)


def test_a_short_span_borrows_the_nearest_samples():
    ref = speed.REFERENCE_KERNEL_S
    meter = _speedometer([(0.01 * i, ref * (1 + i)) for i in range(40)])
    # No sample ends inside the span: the window widens one sample each way
    # at a time, to the ten samples ending at 0.16 .. 0.25 s.
    start, end = 0.2001, 0.2002
    assert meter.kernel_s(start, end) == pytest.approx(ref * 21.5)
    assert meter.scaled((start, end)) == pytest.approx((end - start) / 21.5)


def test_sampling_runs_only_inside_the_block():
    with speed.Speedometer(period_s=0.002) as meter:
        deadline = time.perf_counter() + 0.05
        while time.perf_counter() < deadline:
            speed.kernel()
    taken = len(meter._ends)
    time.sleep(0.01)
    assert taken > 0 and len(meter._ends) == taken
