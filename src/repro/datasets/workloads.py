"""Datacenter workload models: Webserver (WS) and Hadoop (HD).

The paper uses flow-size distributions from Facebook's datacenter study
(Roy et al., SIGCOMM 2015) to size two environments:

* **Webserver (WS)** — many long-lived flows, moderate arrival rate.
* **Hadoop (HD)** — short, bursty mice flows, high arrival rate.

The workloads drive two measurements: the recirculation bandwidth generated
by SpliDT's per-window control packets (Tables 1 and 5) and the packet
inter-arrival behaviour behind time-to-detection (Figure 10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Size (bytes) of a recirculated control packet (metadata header + minimum frame).
CONTROL_PACKET_BYTES = 64

#: Recirculation / resubmission path capacity on Tofino-class switches (bits/s).
RECIRCULATION_CAPACITY_BPS = 100e9


@dataclass(frozen=True)
class WorkloadProfile:
    """Statistical description of a datacenter environment.

    Attributes:
        key: Short key (``"WS"`` or ``"HD"``).
        name: Human-readable name.
        mean_flow_packets: Mean packets per flow (log-normal body).
        sigma_flow_packets: Log-normal sigma of packets per flow.
        mean_flow_duration: Mean flow duration in seconds.
        sigma_flow_duration: Log-normal sigma of flow duration.
        heavy_tail_fraction: Fraction of elephant flows appended to the tail.
        heavy_tail_scale: Multiplier applied to elephants' size/duration.
    """

    key: str
    name: str
    mean_flow_packets: float
    sigma_flow_packets: float
    mean_flow_duration: float
    sigma_flow_duration: float
    heavy_tail_fraction: float
    heavy_tail_scale: float


#: The two environments the paper evaluates (E1 and E2).
WORKLOADS: dict[str, WorkloadProfile] = {
    "WS": WorkloadProfile(
        key="WS",
        name="Webserver",
        mean_flow_packets=400.0,
        sigma_flow_packets=1.0,
        mean_flow_duration=90.0,
        sigma_flow_duration=1.0,
        heavy_tail_fraction=0.05,
        heavy_tail_scale=10.0,
    ),
    "HD": WorkloadProfile(
        key="HD",
        name="Hadoop",
        mean_flow_packets=60.0,
        sigma_flow_packets=0.8,
        mean_flow_duration=20.0,
        sigma_flow_duration=0.9,
        heavy_tail_fraction=0.02,
        heavy_tail_scale=15.0,
    ),
}


def sample_flow_durations(
    workload: WorkloadProfile, n_flows: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample flow durations (seconds) for ``n_flows`` flows of this workload."""
    durations = rng.lognormal(
        np.log(workload.mean_flow_duration), workload.sigma_flow_duration, size=n_flows
    )
    elephants = rng.random(n_flows) < workload.heavy_tail_fraction
    durations[elephants] *= workload.heavy_tail_scale
    return np.maximum(durations, 1e-3)


@dataclass
class RecirculationEstimate:
    """Recirculation-traffic estimate for one (workload, model) pairing.

    Attributes:
        mean_bps: Mean recirculation bandwidth in bits per second.
        peak_bps: Peak (95th-percentile burst) bandwidth in bits per second.
        fraction_of_capacity: Peak bandwidth as a fraction of the 100 Gbps path.
        control_packets_per_second: Mean rate of recirculated control packets.
    """

    mean_bps: float
    peak_bps: float
    fraction_of_capacity: float
    control_packets_per_second: float

    @property
    def mean_mbps(self) -> float:
        """Mean bandwidth in Mbps."""
        return self.mean_bps / 1e6

    @property
    def peak_mbps(self) -> float:
        """Peak bandwidth in Mbps."""
        return self.peak_bps / 1e6


def flow_duration_moments(
    workload: WorkloadProfile, n_flows: int, rng: np.random.Generator | None = None
) -> tuple[float, float]:
    """Mean and standard deviation of ``n_flows`` sampled flow durations.

    ``rng`` defaults to a fresh ``default_rng(0)``, so equal arguments give
    equal moments.
    """
    durations = sample_flow_durations(workload, n_flows, rng or np.random.default_rng(0))
    return float(np.mean(durations)), float(np.std(durations))


def estimate_recirculation(
    workload: WorkloadProfile,
    *,
    concurrent_flows: int,
    n_partitions: int,
    rng: np.random.Generator | None = None,
    duration_moments: Callable[[WorkloadProfile, int], tuple[float, float]] | None = None,
) -> RecirculationEstimate:
    """Estimate the recirculation bandwidth of a partitioned model.

    A flow triggers ``n_partitions - 1`` control-packet recirculations (one at
    every window boundary except the last).  With ``concurrent_flows`` active
    flows and a mean flow duration ``T``, flows complete at a rate of
    ``concurrent_flows / T`` per second (Little's law), so the mean control
    packet rate is ``(n_partitions - 1) * concurrent_flows / T``.

    Peak bandwidth models the synchronised-burst worst case the paper reports
    by applying the dispersion of flow durations on top of the mean.

    The duration moments come from :func:`flow_duration_moments` over
    ``max(concurrent_flows // 10, 1000)`` flows drawn from ``rng``, or, when
    given, from ``duration_moments(workload, n_flows)`` — a design search
    passes its per-search memo of the same function.
    """
    if concurrent_flows < 0:
        raise ValueError("concurrent_flows must be >= 0")
    if n_partitions < 1:
        raise ValueError("n_partitions must be >= 1")

    recirculations_per_flow = max(n_partitions - 1, 0)
    if recirculations_per_flow == 0 or concurrent_flows == 0:
        return RecirculationEstimate(0.0, 0.0, 0.0, 0.0)

    n_durations = max(concurrent_flows // 10, 1000)
    if duration_moments is None:
        mean_duration, std_duration = flow_duration_moments(workload, n_durations, rng)
    else:
        mean_duration, std_duration = duration_moments(workload, n_durations)
    completion_rate = concurrent_flows / mean_duration  # flows per second
    control_rate = completion_rate * recirculations_per_flow

    mean_bps = control_rate * CONTROL_PACKET_BYTES * 8
    burstiness = 1.0 + std_duration / (mean_duration + 1e-9) * 0.5
    peak_bps = mean_bps * burstiness

    return RecirculationEstimate(
        mean_bps=mean_bps,
        peak_bps=peak_bps,
        fraction_of_capacity=peak_bps / RECIRCULATION_CAPACITY_BPS,
        control_packets_per_second=control_rate,
    )
