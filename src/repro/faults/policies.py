"""Resilience policies: bounded retries with deterministic backoff.

A :class:`RetryPolicy` drives an *attempt factory* — a callable returning
a fresh process generator per attempt — so every retry is a brand-new
request (new ``req_id``): a timed-out attempt's late completion can never
be mistaken for its retry's.  Backoff is exponential in virtual
nanoseconds, so it is exactly reproducible and costs nothing on the host.

Wired into :class:`~repro.mods.generic_fs.GenericFS` /
:class:`~repro.mods.generic_kvs.GenericKVS` (pass ``retry=``) and the
kernel baseline (:class:`repro.kernel.interfaces.IoInterface`) so
fault-tolerance comparisons stay apples-to-apples.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional, Tuple, Type

from ..errors import (
    MediaError,
    QueueFull,
    RetriesExhausted,
    TimeoutError,
    WorkerCrashed,
)

__all__ = ["RetryPolicy", "DEFAULT_RETRYABLE"]

#: transient failures a retry can plausibly outlive; module bugs
#: (FsError, LabStorError, ...) are not retried
DEFAULT_RETRYABLE: Tuple[Type[BaseException], ...] = (
    MediaError,
    QueueFull,
    TimeoutError,
    WorkerCrashed,
)


class RetryPolicy:
    """Bounded retries + per-op timeout, deterministic in virtual time."""

    def __init__(
        self,
        *,
        max_attempts: int = 4,
        backoff_ns: int = 20_000,
        backoff_factor: int = 2,
        max_backoff_ns: int = 5_000_000,
        timeout_ns: Optional[int] = None,
        retry_on: Tuple[Type[BaseException], ...] = DEFAULT_RETRYABLE,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self.backoff_ns = backoff_ns
        self.backoff_factor = backoff_factor
        self.max_backoff_ns = max_backoff_ns
        #: per-attempt deadline handed to :meth:`LabStorClient.call`
        self.timeout_ns = timeout_ns
        self.retry_on = retry_on
        self.retries = 0
        self.gave_up = 0

    def backoff(self, retry_index: int) -> int:
        """Virtual-ns delay before retry number ``retry_index`` (0-based)."""
        return min(
            self.max_backoff_ns,
            self.backoff_ns * self.backoff_factor ** retry_index,
        )

    def run(self, env, attempt: Callable[[int], Generator]):
        """Process generator: drive ``attempt(n)`` until it returns,
        retrying retryable failures with backoff; raises
        :class:`RetriesExhausted` once the budget is spent."""
        last: Optional[BaseException] = None
        for n in range(self.max_attempts):
            if n:
                delay = self.backoff(n - 1)
                if delay:
                    yield env.timeout(delay)
            try:
                return (yield from attempt(n))
            except self.retry_on as exc:  # noqa: PERF203 - the seam is the point
                last = exc
                if n + 1 == self.max_attempts:
                    continue  # budget spent: this failure is a giveup, not a retry
                self.retries += 1
                env.tracer.fault(env.now, "fault.retry",
                                 attempt=n + 1, error=type(exc).__name__)
        self.gave_up += 1
        env.tracer.fault(env.now, "fault.giveup",
                         attempts=self.max_attempts, error=type(last).__name__)
        raise RetriesExhausted(
            f"gave up after {self.max_attempts} attempts; last error: {last!r}"
        ) from last
