"""Module-level span helpers: ``with span(...)`` and ``@timed``.

Thin conveniences over the hook: both resolve :func:`get_telemetry` at
*call* time, so code instrumented at import time follows whatever sink is
installed when it actually runs.  With telemetry disabled, ``span``
returns the shared null context manager and ``timed`` adds one attribute
check per call -- no registry traffic.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, TypeVar

from repro.telemetry.hook import get_telemetry

__all__ = ["span", "timed"]

F = TypeVar("F", bound=Callable)


def span(name: str, **labels):
    """Context manager timing a block into ``span_seconds{span=name}``."""
    return get_telemetry().span(name, **labels)


def timed(name: str | None = None, **labels) -> Callable[[F], F]:
    """Decorator recording each call's wall-clock duration as a span.

    The span name defaults to the function's qualified name::

        @timed("harness.run_cell")
        def run_cell(...): ...
    """

    def decorate(fn: F) -> F:
        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tel = get_telemetry()
            if not tel.enabled:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tel.observe_span(
                    span_name, time.perf_counter() - start, **labels
                )

        return wrapper  # type: ignore[return-value]

    return decorate
