"""Collision-slot eviction policies of the per-flow register table."""

from __future__ import annotations

from dataclasses import dataclass


class EvictionPolicy:
    """Decides whether a colliding packet may evict a slot's resident flow.

    A register slot holds the state of at most one flow.  When a packet of a
    *different* five-tuple hashes to a slot whose resident flow is still
    undecided, the data plane either lets the packet corrupt the resident's
    state (the hardware-faithful default: no policy) or — under one of these
    policies — destroys the resident's state and admits the newcomer.  The
    evicted flow never receives a verdict from its destroyed state; its own
    later packets re-enter the pipeline as a brand-new flow.

    Policies are pure functions of the two timestamps involved, so every
    replay engine reaches identical eviction decisions (the parity fuzzer
    locks this down).  Ties keep the resident: a deterministic rule a switch
    can implement with a single comparison, and the conservative choice
    (state already paid for stays).
    """

    name: str = "none"

    def should_evict(self, *, resident_last_seen: float, incoming_ts: float) -> bool:
        """Whether the incoming packet evicts the undecided resident."""
        raise NotImplementedError


@dataclass(frozen=True)
class IdleTimeoutEviction(EvictionPolicy):
    """Evict the resident once its slot has been idle longer than ``timeout``.

    Mirrors the idle-timeout ageing of hardware flow tables: the resident is
    evicted iff ``incoming_ts - resident_last_seen > timeout`` (strictly —
    a packet landing exactly at the timeout keeps the resident).
    """

    timeout: float = 1.0
    name: str = "idle-timeout"

    def __post_init__(self) -> None:
        if self.timeout < 0.0:
            raise ValueError(f"timeout must be >= 0, got {self.timeout}")

    def should_evict(self, *, resident_last_seen: float, incoming_ts: float) -> bool:
        return incoming_ts - resident_last_seen > self.timeout


@dataclass(frozen=True)
class LruEviction(EvictionPolicy):
    """Approximate LRU: the newcomer is by definition more recently used.

    Evicts iff the resident was last seen strictly *before* the incoming
    packet; an exact timestamp tie keeps the resident (deterministic, and
    what a single ``<`` comparator yields on hardware).
    """

    name: str = "lru"

    def should_evict(self, *, resident_last_seen: float, incoming_ts: float) -> bool:
        return resident_last_seen < incoming_ts


#: Eviction policy names accepted by :func:`make_eviction_policy`.
EVICTION_POLICIES = ("none", "idle-timeout", "lru")


def make_eviction_policy(name: str, *, timeout: float = 1.0) -> EvictionPolicy | None:
    """Build an eviction policy by name (``"none"`` → ``None``).

    Example::

        >>> make_eviction_policy("idle-timeout", timeout=0.5).timeout
        0.5
        >>> make_eviction_policy("none") is None
        True
    """
    if name == "none":
        return None
    if name == "idle-timeout":
        return IdleTimeoutEviction(timeout=timeout)
    if name == "lru":
        return LruEviction()
    raise ValueError(
        f"unknown eviction policy {name!r}; expected one of {EVICTION_POLICIES}"
    )
