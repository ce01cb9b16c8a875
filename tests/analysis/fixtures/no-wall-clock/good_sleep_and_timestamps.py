# fixture-module: repro/service/fixture.py
"""Good: sleeping and converting given timestamps read no clock."""

import time
from datetime import datetime, timedelta
from time import sleep


def back_off(attempt, stamp_s):
    sleep(0.01)
    time.sleep(0.01 * attempt)
    return datetime.fromtimestamp(stamp_s) + timedelta(seconds=attempt)
