"""The typed deadline error: a ``TimeoutError`` that says how late the work was."""

from __future__ import annotations

import pytest

from repro.resilience.retry import DeadlineExceededError


class TestDeadline:
    def test_typed_timeout_subclass_with_context(self):
        error = DeadlineExceededError(0.25, 0.1, what="scrub")
        assert isinstance(error, TimeoutError)
        assert error.waited_seconds == pytest.approx(0.25)
        assert error.budget_seconds == pytest.approx(0.1)
        assert "scrub" in str(error)
