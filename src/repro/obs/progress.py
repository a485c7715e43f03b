"""The campaign progress event stream.

:func:`repro.campaign.runner.run_campaign` publishes :class:`ProgressEvent`
records to an :class:`EventStream`, which both forwards each event to the
active trace recorder (as a ``campaign.progress`` trace event) and fans it
out to any subscribers (the CLI's stderr progress lines are one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

from . import trace


@dataclass(frozen=True)
class ProgressEvent:
    """One progress notification: a name plus free-form fields."""

    name: str
    fields: Dict[str, Any] = field(default_factory=dict)


class EventStream:
    """Publish/subscribe fan-out for progress events, trace-backed.

    Subscribers run synchronously on the emitting thread, in subscription
    order; ``emit`` also records the event on the active trace recorder so
    a ``--obs-trace`` file carries the full progress history for free.
    """

    def __init__(self, record_trace: bool = True) -> None:
        self._subscribers: List[Callable[[ProgressEvent], None]] = []
        self._record_trace = record_trace

    def subscribe(self, fn: Callable[[ProgressEvent], None]) -> Callable[[], None]:
        """Add a subscriber; returns a zero-argument unsubscribe handle."""
        self._subscribers.append(fn)

        def unsubscribe() -> None:
            try:
                self._subscribers.remove(fn)
            except ValueError:
                pass

        return unsubscribe

    def emit(self, name: str, /, **fields: Any) -> ProgressEvent:
        """Publish one event to the trace recorder and every subscriber."""
        event = ProgressEvent(name=name, fields=dict(fields))
        if self._record_trace:
            trace.event(name, **fields)
        for fn in list(self._subscribers):
            fn(event)
        return event


__all__ = ["EventStream", "ProgressEvent"]
