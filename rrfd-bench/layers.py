"""Layer timers installed from outside the program.

Every layer is timed by wrapping its public entry points in the module or
class where the caller looks them up, so the program under test is not
edited.  Synchronous wrappers keep a span stack: a layer's *self* time is
its wall time minus the part covered by nested wrapped calls, so self
times add up without double counting.  Coroutine wrappers time only the
steps the coroutine actually executes (not the time it sits suspended),
or, for a waiting metric, the whole await.

A :class:`LayerClock` owns the accumulators; :meth:`LayerClock.patch`
records every replaced attribute and :meth:`LayerClock.restore` puts the
originals back.
"""

from __future__ import annotations

import functools
import types
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable


class LayerClock:
    """Self-time and call-count accumulators for named layers."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.bytes: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []
        self._patched: list[tuple[Any, str, Any]] = []

    # ---------------------------------------------------------- wrappers

    def timed(self, layer: str, fn: Callable, *, count_bytes: bool = False) -> Callable:
        """A synchronous wrapper charging ``fn``'s self time to ``layer``."""
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        sizes = self.bytes

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                nested = stack.pop()
                self_s[layer] += elapsed - nested
                calls[layer] += 1
                if stack:
                    stack[-1] += elapsed
            if count_bytes:
                sizes[layer] += len(result)
            return result

        return wrapper

    def timed_steps(self, layer: str, fn: Callable) -> Callable:
        """A coroutine wrapper charging only executed steps to ``layer``.

        The wrapped coroutine is driven step by step; time spent suspended
        (waiting on a socket, say) is not charged.
        """
        self_s = self.self_s
        calls = self.calls

        @types.coroutine
        def drive(coro: Any) -> Any:
            send_value: Any = None
            error: BaseException | None = None
            try:
                while True:
                    started = perf_counter()
                    try:
                        if error is None:
                            yielded = coro.send(send_value)
                        else:
                            yielded = coro.throw(error)
                    except StopIteration as stop:
                        self_s[layer] += perf_counter() - started
                        return stop.value
                    self_s[layer] += perf_counter() - started
                    try:
                        send_value, error = (yield yielded), None
                    except BaseException as exc:  # relayed into the coroutine
                        send_value, error = None, exc
            finally:
                coro.close()

        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[layer] += 1
            return await drive(fn(*args, **kwargs))

        return wrapper

    def timed_await(self, layer: str, fn: Callable) -> Callable:
        """A coroutine wrapper charging the whole await (a waiting metric)."""
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            started = perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                self_s[layer] += perf_counter() - started
                calls[layer] += 1

        return wrapper

    # ---------------------------------------------------------- patching

    def patch(self, owner: Any, name: str, replacement: Callable) -> None:
        """Replace ``owner.name``; :meth:`restore` undoes it."""
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)


def subclasses_defining(base: type, name: str) -> list[type]:
    """``base`` and every loaded subclass that defines ``name`` itself."""
    found: list[type] = []
    todo = [base]
    seen: set[type] = set()
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if name in cls.__dict__:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found
