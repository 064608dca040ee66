"""Matrix arbiter (the CryoBus arbitration mechanism, Fig. 19 step 2).

A matrix arbiter keeps one bit per ordered pair (i, j): ``1`` means
requester ``i`` currently beats ``j``. The winner of a round is the
requester that beats every other active requester; it then yields
priority to everyone (least-recently-served discipline), which makes the
arbiter starvation-free -- a property the test suite checks exhaustively
and by hypothesis.

The matrix starts as a total order (lower index wins) and the LRS update
only moves the winner below everyone else, so it stays a total order
forever: the order in which requesters were last served. It is stored as
that order -- one last-served stamp per requester -- so the winner is
simply the active requester served longest ago, and
:meth:`MatrixArbiter.priority_snapshot` renders the equivalent matrix.
"""

from __future__ import annotations

from typing import Iterable, List, Optional


class MatrixArbiter:
    """Least-recently-served matrix arbiter over ``n`` requesters."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("arbiter needs at least one requester")
        self.n = n
        # Last-served stamps: a lower stamp beats a higher one. Negative
        # initial stamps encode the starting order (lower index wins).
        self._served: List[int] = list(range(-n, 0))
        self._clock = 0

    def grant(self, requests: Iterable[int]) -> Optional[int]:
        """Pick a winner among ``requests`` and rotate its priority.

        Returns ``None`` when nothing is requested; otherwise the
        requester that beats every other one, which then drops to the
        lowest priority.
        """
        active = requests if isinstance(requests, (set, frozenset)) else set(requests)
        if not active:
            return None
        low, high = min(active), max(active)
        if low < 0 or high >= self.n:
            raise ValueError(f"requester {low if low < 0 else high} out of range")
        winner = min(active, key=self._served.__getitem__)
        self._served[winner] = self._clock
        self._clock += 1
        return winner

    def priority_snapshot(self) -> List[List[bool]]:
        """The priority matrix: ``[i][j]`` is True when ``i`` beats ``j``."""
        served = self._served
        return [[served[i] < served[j] for j in range(self.n)] for i in range(self.n)]
