"""Episodic memory: incident episodes embedded as transparent vectors.

The embedding is deliberately interpretable rather than learned: one slot
per vocabulary symptom, then two normalized scalars (duration, max alert
severity) and one slot per record category. Normalizers are powers of two,
so every coordinate is a dyadic rational and cosine similarities compare
bit-for-bit across implementations that sum in any order.

Retrieval is exact cosine top-k with a total tie order; forgetting
tombstones episodes in place so the audit trail survives. Live episodes
are grouped by their exact vector, each group kept in tie order, so a
search scores each distinct vector once and merges the groups: its cost
follows the number of distinct vectors and k, not the length of the
history. Insertion does no grouping work: the next search or tombstone
files the episodes inserted since the last one into their groups.
"""
from __future__ import annotations

import bisect
import heapq
import json
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from ..config import (
    EMBED_CATEGORIES,
    EMBED_DURATION_CAP,
    EMBED_SEVERITY_SCALE,
    SYMPTOM_VOCAB,
    category_of_attribute,
)

EPISODIC_FORMAT = "opsloop-episodic"
EPISODIC_VERSION = 1


@dataclass(eq=False)
class Episode:
    """One closed incident as remembered by the agent."""

    episode_id: str
    start_tick: int
    end_tick: int
    affected_service: str
    symptom_attributes: frozenset[str]
    entities: frozenset[str]
    max_severity: int
    root_cause_label: str | None
    actions: tuple[tuple[str, str, bool], ...]  # (action, target, success)
    resolved: bool
    ticks_to_resolve: int | None
    feature_vector: np.ndarray = field(repr=False, default=None)

    def to_dict(self) -> dict:
        return {
            "episode_id": self.episode_id,
            "start_tick": self.start_tick,
            "end_tick": self.end_tick,
            "affected_service": self.affected_service,
            "symptom_attributes": sorted(self.symptom_attributes),
            "entities": sorted(self.entities),
            "max_severity": self.max_severity,
            "root_cause_label": self.root_cause_label,
            "actions": [list(a) for a in self.actions],
            "resolved": self.resolved,
            "ticks_to_resolve": self.ticks_to_resolve,
            "feature_vector": [float(x) for x in self.feature_vector],
        }

    @classmethod
    def from_dict(cls, row: dict) -> "Episode":
        return cls(
            episode_id=row["episode_id"],
            start_tick=row["start_tick"],
            end_tick=row["end_tick"],
            affected_service=row["affected_service"],
            symptom_attributes=frozenset(row["symptom_attributes"]),
            entities=frozenset(row["entities"]),
            max_severity=row["max_severity"],
            root_cause_label=row["root_cause_label"],
            actions=tuple((a, t, bool(s)) for a, t, s in row["actions"]),
            resolved=bool(row["resolved"]),
            ticks_to_resolve=row["ticks_to_resolve"],
            feature_vector=np.asarray(row["feature_vector"], dtype=np.float64),
        )


def embed_features(
    symptoms: frozenset[str] | set[str],
    duration: int,
    max_severity: int,
) -> np.ndarray:
    unknown = set(symptoms) - set(SYMPTOM_VOCAB)
    if unknown:
        raise ValueError(f"symptoms outside vocabulary: {sorted(unknown)}")
    n = len(SYMPTOM_VOCAB)
    vec = np.zeros(n + 2 + len(EMBED_CATEGORIES), dtype=np.float64)
    for i, attr in enumerate(SYMPTOM_VOCAB):
        if attr in symptoms:
            vec[i] = 1.0
    vec[n] = min(1.0, duration / EMBED_DURATION_CAP)
    vec[n + 1] = min(float(max_severity), EMBED_SEVERITY_SCALE) / EMBED_SEVERITY_SCALE
    cats = {category_of_attribute(a) for a in symptoms}
    for i, cat in enumerate(EMBED_CATEGORIES):
        if cat in cats:
            vec[n + 2 + i] = 1.0
    return vec


def embed_episode(episode: Episode) -> np.ndarray:
    return embed_features(
        episode.symptom_attributes,
        episode.end_tick - episode.start_tick,
        episode.max_severity,
    )


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v)) / (nu * nv)


@dataclass(frozen=True)
class ForgetCriteria:
    """Episodes matching any provided criterion are tombstoned."""

    ttl_ticks: int | None = None
    entities: frozenset[str] | None = None
    incident: str | None = None


class EpisodicStore:
    def __init__(self):
        self._episodes: dict[str, Episode] = {}
        self._tombstoned: set[str] = set()
        # Live episodes by vector bytes, each group sorted by
        # (-end_tick, episode_id). `_episodes` only grows, so the episodes
        # inserted since the last filing are its last len - `_filed` entries.
        self._groups: dict[bytes, list[tuple[int, str, Episode]]] = {}
        self._filed = 0

    def __len__(self) -> int:
        return len(self._episodes)

    def live_count(self) -> int:
        return len(self._episodes) - len(self._tombstoned)

    def insert(self, episode: Episode) -> None:
        if episode.episode_id in self._episodes:
            raise ValueError(f"duplicate episode id: {episode.episode_id!r}")
        if episode.feature_vector is None:
            episode.feature_vector = embed_episode(episode)
        self._episodes[episode.episode_id] = episode

    def _file(self) -> None:
        for ep in islice(reversed(self._episodes.values()), len(self._episodes) - self._filed):
            group = self._groups.setdefault(ep.feature_vector.tobytes(), [])
            bisect.insort(group, (-ep.end_tick, ep.episode_id, ep))
        self._filed = len(self._episodes)

    def _tombstone(self, ep: Episode) -> None:
        self._file()
        key = ep.feature_vector.tobytes()
        group = self._groups[key]
        group.pop(bisect.bisect_left(group, (-ep.end_tick, ep.episode_id)))
        if not group:
            del self._groups[key]
        self._tombstoned.add(ep.episode_id)

    def get(self, episode_id: str) -> Episode:
        return self._episodes[episode_id]

    def is_tombstoned(self, episode_id: str) -> bool:
        return episode_id in self._tombstoned

    def live_episodes(self) -> list[Episode]:
        return [ep for eid, ep in self._episodes.items() if eid not in self._tombstoned]

    def all_episodes(self) -> list[Episode]:
        return list(self._episodes.values())

    def search(self, query: np.ndarray, k: int) -> list[tuple[Episode, float]]:
        """Exact cosine top-k over live episodes.

        Ties break on higher similarity, then more recent end_tick, then
        episode id, giving a total deterministic order.
        """
        if k < 1:
            return []
        self._file()
        ranked = []
        for group in self._groups.values():
            sim = cosine(query, group[0][2].feature_vector)
            ranked.append([(-sim, neg_end, eid, ep) for neg_end, eid, ep in islice(group, k)])
        return [(ep, -neg_sim) for neg_sim, _, _, ep in islice(heapq.merge(*ranked), k)]

    def forget(self, criteria: ForgetCriteria, now_tick: int = 0) -> int:
        """Tombstone matching live episodes; returns how many were hit."""
        hit = 0
        for ep in self.live_episodes():
            matched = False
            if criteria.ttl_ticks is not None and now_tick - ep.end_tick > criteria.ttl_ticks:
                matched = True
            if criteria.entities is not None and ep.entities & criteria.entities:
                matched = True
            if criteria.incident is not None and ep.episode_id == criteria.incident:
                matched = True
            if matched:
                self._tombstone(ep)
                hit += 1
        return hit

    # -- serialization -------------------------------------------------------

    def export_jsonl(self) -> list[str]:
        header = json.dumps(
            {"format": EPISODIC_FORMAT, "version": EPISODIC_VERSION},
            sort_keys=True, separators=(",", ":"),
        )
        lines = [header]
        for eid in sorted(self._episodes):
            row = self._episodes[eid].to_dict()
            row["tombstoned"] = eid in self._tombstoned
            lines.append(json.dumps(row, sort_keys=True, separators=(",", ":")))
        return lines

    @classmethod
    def import_jsonl(cls, lines: list[str]) -> "EpisodicStore":
        if not lines:
            raise ValueError("empty episodic export")
        header = json.loads(lines[0])
        if header.get("format") != EPISODIC_FORMAT:
            raise ValueError("not an episodic export")
        if header.get("version") != EPISODIC_VERSION:
            raise ValueError(f"unsupported episodic version: {header.get('version')}")
        store = cls()
        for line in lines[1:]:
            row = json.loads(line)
            tomb = row.pop("tombstoned", False)
            episode = Episode.from_dict(row)
            store.insert(episode)
            if tomb:
                store._tombstone(episode)
        return store
