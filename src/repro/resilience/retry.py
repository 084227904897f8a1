"""The typed deadline error the serving layer routes without string matching.

:class:`DeadlineExceededError` is a ``TimeoutError`` subclass, so generic
timeout handling still works, and it carries the budget and the actual
wait: the microbatched service raises it for a request that outlived its
``deadline_ms`` before the model ran, and the TCP front end maps it to the
``deadline`` wire error.
"""

from __future__ import annotations

__all__ = ["DeadlineExceededError"]


class DeadlineExceededError(TimeoutError):
    """A request (or operation) outlived its deadline.

    Carries the budget and the actual wait so telemetry and error
    responses can report *how late* the work was, not just that it was.
    """

    def __init__(self, waited_seconds: float, budget_seconds: float, what: str = "request"):
        self.waited_seconds = float(waited_seconds)
        self.budget_seconds = float(budget_seconds)
        super().__init__(
            f"{what} exceeded its {budget_seconds * 1000:.1f} ms deadline "
            f"(waited {waited_seconds * 1000:.1f} ms); the caller should treat "
            "the work as abandoned"
        )
