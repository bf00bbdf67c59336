"""Per-request identity and budget: the tracing handle of the serving layer.

A :class:`RequestContext` travels with one request through
:class:`~repro.serve.service.SolverService`: the request id and tenant are
stamped onto every telemetry span the request opens (including the
solver phase spans of its cold solve or repair), and the deadline is the
request's absolute time budget.

Contexts are cheap frozen dataclasses; callers that do not pass one get an
auto-numbered context (``req-000001`` …) so traces always correlate, and
the JSONL request protocol (:mod:`repro.serve.requests`) maps the wire
fields ``rid`` / ``tenant`` onto them.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["RequestContext", "next_request_id"]

_REQUEST_IDS = itertools.count(1)


def next_request_id() -> str:
    """The next auto-assigned request id for this process."""
    return f"req-{next(_REQUEST_IDS):06d}"


@dataclass(frozen=True)
class RequestContext:
    """Identity and budget of one service request.

    Attributes
    ----------
    request_id:
        Correlates every span, metric label, and response of the request.
    tenant:
        Free-form namespace owner (multi-tenant deployments; empty for
        single-tenant use).
    deadline:
        Absolute ``time.perf_counter()`` instant the request must answer
        by, or ``None`` for unbounded.  Absolute (not a duration) so the
        budget survives being handed between service internals without
        double-counting elapsed time.
    """

    request_id: str
    tenant: str = ""
    deadline: Optional[float] = None

    @classmethod
    def create(
        cls,
        request_id: Optional[str] = None,
        tenant: str = "",
        timeout: Optional[float] = None,
    ) -> "RequestContext":
        """Build a context, auto-numbering the id and converting a relative
        ``timeout`` (seconds from now) into the absolute deadline."""
        return cls(
            request_id=request_id or next_request_id(),
            tenant=tenant,
            deadline=None if timeout is None else time.perf_counter() + timeout,
        )

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline (negative when blown); ``None`` if
        unbounded."""
        if self.deadline is None:
            return None
        return self.deadline - time.perf_counter()

    def expired(self) -> bool:
        """Whether the deadline has already passed."""
        return self.deadline is not None and time.perf_counter() >= self.deadline

    def trace_fields(self) -> Dict[str, object]:
        """The span-stamp fields (request id always, tenant when set)."""
        fields: Dict[str, object] = {"request": self.request_id}
        if self.tenant:
            fields["tenant"] = self.tenant
        return fields

    def __repr__(self) -> str:
        tenant = f" tenant={self.tenant!r}" if self.tenant else ""
        return f"<RequestContext {self.request_id}{tenant}>"
