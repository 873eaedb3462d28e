"""Resource caps for the search procedures.

Every long-running search accepts a Caps value and stops cleanly when a
limit is reached, reporting incompleteness instead of guessing.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .errors import CapExceeded


@dataclass(frozen=True)
class Caps:
    """Limits for enumeration and search; a count below 1 raises ValueError.

    max_moments     accepted irreducible moments before enumeration is cut off;
                    generation also stops after examining 4x as many candidates
    max_valuations  open valuations of the atoms on one system, for a valid
                    call and for each system a countermodel search evaluates;
                    more raise CapExceeded before any is tried
    max_systems     labelled systems the countermodel search reaches, the
                    isomorphic copies it skips included
    timeout         wall-clock seconds for a single decide, enumerate, extract,
                    valid or countermodel call; deadline() starts its clock,
                    and every loop of the call that can grow superlinearly
                    checks it (None: no limit; NaN raises ValueError)
    jobs            accepted for compatibility and ignored: profiles are
                    searched in order on one thread, since threads gave
                    no speed-up under the interpreter lock
    """

    max_moments: int = 50_000
    max_valuations: int = 2**20
    max_systems: int = 200_000
    timeout: float | None = None
    jobs: int = 1

    def __post_init__(self):
        for name in ("max_moments", "max_valuations", "max_systems", "jobs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.timeout != self.timeout:
            raise ValueError("timeout must be a number of seconds, not NaN")

    def deadline(self) -> Deadline:
        return Deadline(self.timeout)


class Deadline:
    """The end of one call's timeout; check(what) raises CapExceeded once it
    has passed, naming the loop that noticed.  Without a timeout it never
    trips; a NaN timeout, which no clock reading passes, raises ValueError."""

    __slots__ = ("timeout", "_end")

    def __init__(self, timeout: float | None):
        if timeout != timeout:
            raise ValueError("timeout must be a number of seconds, not NaN")
        self.timeout = timeout
        self._end = None if timeout is None else time.monotonic() + timeout

    def check(self, what: str) -> None:
        if self._end is not None and time.monotonic() >= self._end:
            raise CapExceeded(f"{what} passed the {self.timeout} s timeout")

    def every(self, items, what: str):
        """Yield the items, checking under what before the first and before
        every 256th one after it: the cadence of every loop over cheap
        steps.  A list that grows while it is read is read to its end."""
        items = iter(items)
        for first in items:
            self.check(what)
            yield first
            yield from itertools.islice(items, 255)


DEFAULT_CAPS = Caps()
NO_DEADLINE = Deadline(None)
