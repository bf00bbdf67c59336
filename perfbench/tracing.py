"""Timers wrapped around the program's public calls from outside, for traced runs."""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple


class Calls:
    """Durations of wrapped calls by layer name; appends are safe from any thread."""

    def __init__(self) -> None:
        self.seconds: Dict[str, List[float]] = defaultdict(list)

    def wrap(self, layer: Any, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Time ``fn``; ``layer`` may be a function of the result naming the layer."""

        def timed(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            name = layer(result) if callable(layer) else layer
            self.seconds[name].append(time.perf_counter() - start)
            return result

        return timed

    def total(self, layer: str) -> float:
        return sum(self.seconds.get(layer, ()))

    def take(self, layer: str) -> float:
        """Total seconds in ``layer`` so far, then forget them."""
        return sum(self.seconds.pop(layer, ()))

    def mean_ms(self, layer: str) -> float:
        values = self.seconds.get(layer, ())
        return 1000.0 * sum(values) / len(values) if values else 0.0


class Patches:
    """Install timing wrappers on attributes, and undo them."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, name: str, calls: Calls, layer: Any) -> None:
        """Time calls to ``owner.name``; a name the program no longer has reads 0."""
        current = getattr(owner, name, None)
        if current is None:
            return
        self._undo.append((owner, name, owner.__dict__[name] if isinstance(owner, type) else current))
        setattr(owner, name, calls.wrap(layer, current))

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)
