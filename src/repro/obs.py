"""One counter record for a data-plane program and the engines that drive it.

Every :class:`~repro.dataplane.splidt_program.SpliDTDataPlane` owns one
:class:`Counters`, written in place where the work happens: the two window
planes, flow admission and eviction, the recirculation channel and the
micro-batch engine, so a replay and a serving session count alike.  Names
carry the layer they count in (``dataplane.lockstep.packets``,
``switch.recirc.bytes``, ``serve.flushes``; ``docs/architecture.md`` lists
them).  The records of several programs — a session's shards, its model
epochs — combine through :meth:`Counters.merged`, one rule for every name.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping


class Counters(dict):
    """Named totals, written through :meth:`add` and :meth:`observe`.

    An entry exists once something wrote it (``add(name, 0)`` creates it),
    so a view can tell "never counted" from "counted nothing".

    Example::

        >>> counters = Counters()
        >>> counters.add("switch.evictions", 2)
        >>> counters.observe("switch.recirc", 1.5, 2.0)
        >>> Counters.merged([counters, {"switch.evictions": 1}])
        {'switch.evictions': 3, 'switch.recirc.first': 1.5, 'switch.recirc.last': 2.0}
    """

    def add(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the total ``name``."""
        self[name] = self.get(name, 0) + amount

    def observe(self, name: str, earliest: float, latest: float) -> None:
        """Widen the interval ``name.first`` .. ``name.last`` to cover ``[earliest, latest]``."""
        first, last = f"{name}.first", f"{name}.last"
        if first not in self or earliest < self[first]:
            self[first] = earliest
        if last not in self or latest > self[last]:
            self[last] = latest

    def snapshot(self) -> dict[str, float]:
        """A plain dict copy of every entry (what crosses a process boundary)."""
        return dict(self)

    @classmethod
    def merged(cls, records: Iterable[Mapping[str, float]]) -> "Counters":
        """What ``records`` (records or snapshots) hold together, in any order.

        Every entry is summed, except that a ``*.first`` entry takes the
        minimum and a ``*.last`` entry the maximum.  An entry no record holds
        stays absent.
        """
        total = cls()
        for record in records:
            for name, value in record.items():
                if name not in total:
                    total[name] = value
                elif name.endswith(".first"):
                    total[name] = min(total[name], value)
                elif name.endswith(".last"):
                    total[name] = max(total[name], value)
                else:
                    total[name] += value
        return total
