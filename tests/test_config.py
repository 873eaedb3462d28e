import dataclasses
import time

import pytest

import itlc
from itlc.config import Deadline


def test_caps_fields():
    assert [f.name for f in dataclasses.fields(itlc.Caps)] == [
        "max_moments", "max_valuations", "max_systems", "timeout", "jobs"]


def test_deadline_trips_once_its_time_has_passed():
    with pytest.raises(itlc.CapExceeded, match=r"^type enumeration passed the 0 s timeout$"):
        Deadline(0).check("type enumeration")
    deadline = itlc.Caps(timeout=0.05).deadline()
    deadline.check("early")
    time.sleep(0.1)
    with pytest.raises(itlc.CapExceeded, match="late passed the 0.05 s timeout"):
        deadline.check("late")


def test_a_nan_timeout_is_refused():
    # monotonic() >= nan is always false, so such a deadline would never trip
    with pytest.raises(ValueError, match="NaN"):
        itlc.Caps(timeout=float("nan"))
    with pytest.raises(ValueError, match="NaN"):
        Deadline(float("nan"))


@pytest.mark.parametrize("field", ["max_moments", "max_valuations", "max_systems", "jobs"])
def test_counts_below_one_are_refused(field):
    for value in (0, -1):
        with pytest.raises(ValueError, match=f"^{field} must be at least 1, got {value}$"):
            itlc.Caps(**{field: value})
    assert getattr(itlc.Caps(**{field: 1}), field) == 1
