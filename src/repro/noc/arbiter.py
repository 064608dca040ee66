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

A requester raises its request line with :meth:`MatrixArbiter.request`
and keeps it raised until it wins a :meth:`MatrixArbiter.grant`. The
raised lines wait in a heap keyed by stamp: a stamp changes only when
its requester wins, and the winner leaves the heap, so the heap's top is
always the active requester served longest ago and a grant is one pop.
A heap entry is the one int ``stamp * n + requester``: stamps are
distinct, so it orders as the stamp does.
"""

from __future__ import annotations

import heapq
from typing import List, Optional


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
        self._raised = [False] * n
        self._waiting: List[int] = []  # stamp * n + requester

    def request(self, requester: int) -> None:
        """Raise ``requester``'s request line; a raised line stays
        raised until the requester wins a grant."""
        if not 0 <= requester < self.n:
            raise ValueError(f"requester {requester} out of range")
        if not self._raised[requester]:
            self._raised[requester] = True
            heapq.heappush(self._waiting, self._served[requester] * self.n + requester)

    def grant(self) -> Optional[int]:
        """Pick a winner among the raised requests and rotate its priority.

        Returns ``None`` when nothing is requested; otherwise the
        requester that beats every other one, which then drops to the
        lowest priority and lowers its request line.
        """
        if not self._waiting:
            return None
        winner = heapq.heappop(self._waiting) % self.n
        self._raised[winner] = False
        self._served[winner] = self._clock
        self._clock += 1
        return winner

    def priority_snapshot(self) -> List[List[bool]]:
        """The priority matrix: ``[i][j]`` is True when ``i`` beats ``j``."""
        served = self._served
        return [[served[i] < served[j] for j in range(self.n)] for i in range(self.n)]
