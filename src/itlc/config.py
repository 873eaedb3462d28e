"""Resource caps for the search procedures.

Every long-running search accepts a Caps value and stops cleanly when a
limit is reached, reporting incompleteness instead of guessing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Caps:
    """Limits for enumeration and search.

    max_moments     accepted irreducible moments before enumeration is cut off
    max_candidates  candidate grafts examined before enumeration is cut off
                    (defaults to 4x max_moments)
    max_height      tallest moment generated; None means the structural bound
                    #Sigma + 1, which never truncates the enumeration
    max_valuations  evaluation budget for exhaustive valuation search
    max_systems     systems examined during countermodel search
    timeout         wall-clock seconds for a single decide/search call
    jobs            accepted for compatibility and ignored: profiles are
                    searched in order on one thread, since threads gave
                    no speed-up under the interpreter lock
    """

    max_moments: int = 50_000
    max_candidates: int | None = None
    max_height: int | None = None
    max_valuations: int = 2**20
    max_systems: int = 200_000
    timeout: float | None = None
    jobs: int = 1

    def candidate_budget(self) -> int:
        return self.max_candidates if self.max_candidates is not None else 4 * self.max_moments

    def deadline(self) -> float | None:
        return None if self.timeout is None else time.monotonic() + self.timeout


DEFAULT_CAPS = Caps()
