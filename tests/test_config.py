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


def _recording(log):
    """A deadline that never trips and logs what each check names."""
    class Recording(Deadline):
        def check(self, what):
            log.append(what)

    return Recording(None)


def test_every_checks_before_the_first_item_and_every_256th():
    log = []
    for item in _recording(log).every(range(1000), "loop"):
        log.append(item)
    assert [x for x in log if x != "loop"] == list(range(1000))
    assert [log[i + 1] for i, x in enumerate(log) if x == "loop"] == [0, 256, 512, 768]


def test_every_over_nothing_checks_nothing():
    log = []
    assert list(_recording(log).every([], "loop")) == [] and log == []


def test_every_reads_a_list_that_grows_while_it_is_read():
    log = []
    queue = [0]
    for item in _recording(log).every(queue, "loop"):
        log.append(item)
        if item < 599:
            queue.append(item + 1)
    assert [x for x in log if x != "loop"] == list(range(600))
    assert [log[i + 1] for i, x in enumerate(log) if x == "loop"] == [0, 256, 512]


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
