"""Bounded short-term working buffer with priority-aware eviction."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class BufferItem:
    priority: int
    payload: Any
    incident: str | None
    seq: int


class ShortTermBuffer:
    """Holds at most `capacity` items; evicts lowest priority first,
    oldest first within equal priority."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._items: list[BufferItem] = []  # in seq order: push appends, removal keeps order
        self._seq = 0

    def __len__(self) -> int:
        return len(self._items)

    def push(self, payload: Any, priority: int = 0, incident: str | None = None) -> BufferItem:
        item = BufferItem(priority=int(priority), payload=payload, incident=incident, seq=self._seq)
        self._seq += 1
        self._items.append(item)
        while len(self._items) > self.capacity:
            victim = min(self._items, key=lambda it: (it.priority, it.seq))
            self._items.remove(victim)
        return item

    def snapshot(self, incident: str | None = None) -> tuple[BufferItem, ...]:
        """Current contents in insertion order, optionally incident-scoped."""
        if incident is None:
            return tuple(self._items)
        return tuple(it for it in self._items if it.incident == incident)

    def evict_incident(self, incident: str) -> int:
        before = len(self._items)
        self._items = [it for it in self._items if it.incident != incident]
        return before - len(self._items)
