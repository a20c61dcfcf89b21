"""Opt-in per-worker CPU pinning for multi-process pools.

Both worker pools in this repo — the DSE candidate evaluators
(:mod:`repro.core.dse_parallel`) and the process-sharded serving engine
(:mod:`repro.serve.process_sharded`) — fan CPU-bound work out to worker
processes.  On busy or NUMA hosts the scheduler can migrate those workers
between cores mid-run, costing cache warmth; pinning each worker to one core
(round-robin over the usable set) removes the migrations.

Pinning is strictly **opt-in** (the ``affinity`` constructor knob, reached
from ``DseConfig.affinity`` / ``--affinity``): the default layout decision
belongs to the operator, and on oversubscribed CI machines pinning can *hurt*
by stacking workers on the same busy core.  On platforms without
:func:`os.sched_setaffinity` (macOS, Windows) the request degrades to a
no-op with a single warning — never an error — so the same spec file runs
everywhere.
"""

from __future__ import annotations

import os
import warnings


def affinity_supported() -> bool:
    """Whether this platform can pin processes to CPUs."""
    return hasattr(os, "sched_setaffinity") and hasattr(os, "sched_getaffinity")


def resolve_affinity(affinity: bool | None) -> bool:
    """The pools' ``affinity`` argument as a bool: unset (``None``) is off."""
    return bool(affinity)


def pin_worker(index: int) -> int | None:
    """Pin the calling process to one usable CPU, chosen by worker index.

    Workers are laid out round-robin over the CPUs the process may use
    (``index % n_cpus``), so pools larger than the machine still start and
    simply share cores.  Called from inside the worker process, after fork.

    Returns:
        The CPU id the process is now pinned to, or ``None`` when the
        platform cannot pin (one warning is emitted; the worker runs
        unpinned, which is always safe).
    """
    if not affinity_supported():
        warnings.warn(
            "CPU affinity requested but os.sched_setaffinity is not available "
            "on this platform; workers run unpinned",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    try:
        cpus = sorted(os.sched_getaffinity(0))
        if not cpus:  # pragma: no cover - empty mask cannot normally happen
            return None
        cpu = cpus[index % len(cpus)]
        os.sched_setaffinity(0, {cpu})
    except OSError as exc:  # pragma: no cover - cgroup/permission edge
        warnings.warn(
            f"could not pin worker {index} to a CPU ({exc}); running unpinned",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    return cpu


__all__ = ["affinity_supported", "pin_worker", "resolve_affinity"]
