"""Synthetic trace generators standing in for the Facebook / Bing traces.

The paper replays 6-hour slices of production traces from Facebook's
Hadoop cluster and Bing's Dryad cluster (§7.1). Those traces are
proprietary, so we synthesise workloads with the *published* distributional
properties:

* task durations are Pareto with tail index ``1 < beta < 2`` (§4.1);
* job sizes (task counts) are heavy-tailed, binned in the paper as
  <50, 51-150, 151-500, >500 tasks (Fig. 7);
* jobs are DAGs of 1-8 pipelined phases (Fig. 8b / Fig. 12b) with
  intermediate data that downstream phases read over the network;
* a sizeable fraction of jobs are *recurring* (same script run
  periodically), which is what makes alpha predictable (§6.3).

The Facebook-like and Bing-like profiles differ in tail index and in the
spread between small and large jobs — the paper notes Bing's larger
small/large spread gives Hopper slightly more headroom (§7.2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.simulation.rng import RandomSource
from repro.workload.distributions import (
    BoundedParetoDistribution,
    DiscreteDistribution,
    Distribution,
    ParetoDistribution,
    UniformDistribution,
)
from repro.workload.job import Job
from repro.workload.phase import Phase
from repro.workload.task import Task

#: Paper's job-size bins (Fig. 7 / Fig. 9 / Fig. 12a).
JOB_SIZE_BINS: Tuple[Tuple[int, Optional[int]], ...] = (
    (1, 50),
    (51, 150),
    (151, 500),
    (501, None),
)


@dataclass
class WorkloadProfile:
    """Distributional description of a cluster workload.

    Attributes
    ----------
    name:
        Human-readable profile name.
    beta:
        Pareto tail index of task durations.
    task_scale:
        Pareto scale (minimum task duration, seconds).
    job_size:
        Distribution of tasks in a job's *input* phase.
    dag_length:
        Distribution over the number of phases (>= 1).
    downstream_shrink:
        Multiplicative reduction of task count per downstream phase
        (reduce phases are smaller than map phases).
    output_data_per_task:
        Intermediate data produced per upstream task (network-time units
        per unit of network_rate).
    recurring_fraction:
        Fraction of jobs that belong to a recurring job family.
    num_recurring_families:
        Number of distinct recurring scripts.
    """

    name: str
    beta: float
    task_scale: float
    job_size: Distribution
    dag_length: Distribution
    downstream_shrink: float = 0.4
    output_data_per_task: Distribution = field(
        default_factory=lambda: UniformDistribution(0.2, 1.5)
    )
    recurring_fraction: float = 0.4
    num_recurring_families: int = 20

    def __post_init__(self) -> None:
        if not 0 < self.beta:
            raise ValueError("beta must be positive")
        if self.task_scale <= 0:
            raise ValueError("task_scale must be positive")
        if not 0.0 <= self.recurring_fraction <= 1.0:
            raise ValueError("recurring_fraction must be in [0, 1]")
        if not 0.0 < self.downstream_shrink <= 1.0:
            raise ValueError("downstream_shrink must be in (0, 1]")

    def task_size_distribution(self) -> ParetoDistribution:
        return ParetoDistribution(shape=self.beta, scale=self.task_scale)


class BinnedJobSizeDistribution(Distribution):
    """Job sizes drawn as a mixture over the paper's size bins.

    A bin is chosen with the given weights, then the size is drawn from a
    bounded Pareto within the bin — heavy-tailed overall but with every
    bin meaningfully populated, as in the production traces (Fig. 7 has
    non-trivial mass in all four bins).
    """

    def __init__(
        self,
        bin_weights: Sequence[float],
        max_tasks: int = 1500,
        within_bin_shape: float = 1.5,
    ) -> None:
        if len(bin_weights) != len(JOB_SIZE_BINS):
            raise ValueError(
                f"need {len(JOB_SIZE_BINS)} bin weights, got {len(bin_weights)}"
            )
        total = float(sum(bin_weights))
        if total <= 0:
            raise ValueError("bin weights must sum to a positive value")
        self.weights = [w / total for w in bin_weights]
        self._bins: List[BoundedParetoDistribution] = []
        for lo, hi in JOB_SIZE_BINS:
            upper = float(hi) if hi is not None else float(max_tasks)
            lower = max(2.0, float(lo))
            if upper <= lower:
                upper = lower + 1.0
            self._bins.append(
                BoundedParetoDistribution(
                    shape=within_bin_shape, lo=lower, hi=upper
                )
            )
        self._mean = sum(
            w * b.mean() for w, b in zip(self.weights, self._bins)
        )

    def sample(self, rng: random.Random) -> float:
        u = rng.random()
        acc = 0.0
        for weight, dist in zip(self.weights, self._bins):
            acc += weight
            if u <= acc:
                return dist.sample(rng)
        return self._bins[-1].sample(rng)

    def mean(self) -> float:
        return self._mean

    def __repr__(self) -> str:
        return f"BinnedJobSizeDistribution(weights={self.weights})"


#: Facebook-like profile: beta ~ 1.4, moderate job-size spread.
FACEBOOK_PROFILE = WorkloadProfile(
    name="facebook",
    beta=1.4,
    task_scale=1.0,
    job_size=BinnedJobSizeDistribution(
        bin_weights=(0.60, 0.20, 0.14, 0.06), max_tasks=1500
    ),
    dag_length=DiscreteDistribution(
        [
            (1, 0.30),
            (2, 0.30),
            (3, 0.15),
            (4, 0.10),
            (5, 0.06),
            (6, 0.04),
            (7, 0.03),
            (8, 0.02),
        ]
    ),
)

#: Interactive (in-memory Spark) variant of the Facebook workload used for
#: the decentralized evaluation (§7.1: sub-second to a few-second tasks,
#: small jobs dominate).
SPARK_FACEBOOK_PROFILE = WorkloadProfile(
    name="spark-facebook",
    beta=1.4,
    task_scale=1.0,
    job_size=BinnedJobSizeDistribution(
        bin_weights=(0.85, 0.10, 0.04, 0.01), max_tasks=600
    ),
    dag_length=DiscreteDistribution([(1, 0.60), (2, 0.25), (3, 0.15)]),
)

#: Interactive variant of the Bing workload (larger small/large spread).
SPARK_BING_PROFILE = WorkloadProfile(
    name="spark-bing",
    beta=1.6,
    task_scale=1.0,
    job_size=BinnedJobSizeDistribution(
        bin_weights=(0.88, 0.06, 0.03, 0.03), max_tasks=1200
    ),
    dag_length=DiscreteDistribution([(1, 0.55), (2, 0.25), (3, 0.20)]),
)

#: Bing-like profile: beta ~ 1.6, larger spread between small and large jobs.
BING_PROFILE = WorkloadProfile(
    name="bing",
    beta=1.6,
    task_scale=1.0,
    job_size=BinnedJobSizeDistribution(
        bin_weights=(0.68, 0.14, 0.10, 0.08), max_tasks=4000
    ),
    dag_length=DiscreteDistribution(
        [
            (1, 0.20),
            (2, 0.25),
            (3, 0.18),
            (4, 0.12),
            (5, 0.10),
            (6, 0.07),
            (7, 0.05),
            (8, 0.03),
        ]
    ),
)


def profile_by_name(name: str) -> WorkloadProfile:
    """Look up a registered :class:`WorkloadProfile` by its ``name``.

    Resolution goes through :data:`repro.registry.WORKLOAD_PROFILES`, so
    profiles registered after import are found too.
    """
    from repro.registry import WORKLOAD_PROFILES

    return WORKLOAD_PROFILES.get(name).factory


class TraceGenerator:
    """Generates jobs from a :class:`WorkloadProfile`.

    Task ids are globally unique across everything this generator
    produces. Locality preferences (3-replica placement) can be attached
    by passing ``num_machines``.
    """

    def __init__(
        self,
        profile: WorkloadProfile,
        random_source: Optional[RandomSource] = None,
        num_machines: Optional[int] = None,
        replicas: int = 3,
        max_phase_tasks: Optional[int] = None,
    ) -> None:
        self.profile = profile
        self.random_source = random_source or RandomSource(seed=0)
        self.num_machines = num_machines
        self.replicas = replicas
        self.max_phase_tasks = max_phase_tasks
        self._next_task_id = 0
        self._next_job_id = 0
        self._rng = self.random_source.child("generator").rng

    # -- internals ---------------------------------------------------------

    def _placement(self) -> Tuple[int, ...]:
        if self.num_machines is None:
            return ()
        k = min(self.replicas, self.num_machines)
        return tuple(self._rng.sample(range(self.num_machines), k))

    def _job_name(self) -> str:
        if self._rng.random() < self.profile.recurring_fraction:
            family = self._rng.randrange(self.profile.num_recurring_families)
            return f"{self.profile.name}-recurring-{family}"
        return f"{self.profile.name}-adhoc-{self._next_job_id}"

    def _make_phase(
        self,
        index: int,
        num_tasks: int,
        job_id: int,
        parents: Tuple[int, ...],
        is_input_phase: bool,
        output_data: float,
    ) -> Phase:
        size_dist = self.profile.task_size_distribution()
        tasks: List[Task] = []
        for _ in range(num_tasks):
            prefs = self._placement() if is_input_phase else ()
            tasks.append(
                Task(
                    task_id=self._next_task_id,
                    job_id=job_id,
                    phase_index=index,
                    size=size_dist.sample(self._rng),
                    preferred_machines=prefs,
                )
            )
            self._next_task_id += 1
        return Phase(
            index=index,
            tasks=tasks,
            parents=parents,
            output_data=output_data,
        )

    # -- public API ----------------------------------------------------------

    def next_job(self, arrival_time: float) -> Job:
        """Generate one job arriving at ``arrival_time``."""
        job_id = self._next_job_id
        self._next_job_id += 1

        input_tasks = max(1, int(round(self.profile.job_size.sample(self._rng))))
        if self.max_phase_tasks is not None:
            input_tasks = min(input_tasks, self.max_phase_tasks)
        dag_len = max(1, int(round(self.profile.dag_length.sample(self._rng))))

        phases: List[Phase] = []
        tasks_in_phase = input_tasks
        for index in range(dag_len):
            is_last = index == dag_len - 1
            output = 0.0
            if not is_last:
                per_task = self.profile.output_data_per_task.sample(self._rng)
                output = per_task * tasks_in_phase
            parents = (index - 1,) if index > 0 else ()
            phases.append(
                self._make_phase(
                    index=index,
                    num_tasks=tasks_in_phase,
                    job_id=job_id,
                    parents=parents,
                    is_input_phase=(index == 0),
                    output_data=output,
                )
            )
            tasks_in_phase = max(
                1, int(round(tasks_in_phase * self.profile.downstream_shrink))
            )

        return Job(
            job_id=job_id,
            arrival_time=arrival_time,
            phases=phases,
            name=self._job_name(),
        )

    def generate(
        self,
        num_jobs: int,
        interarrival_mean: float,
        start_time: float = 0.0,
    ) -> List[Job]:
        """Generate ``num_jobs`` with exponential interarrival times."""
        jobs: List[Job] = []
        t = start_time
        for _ in range(num_jobs):
            if interarrival_mean > 0:
                t += self._rng.expovariate(1.0 / interarrival_mean)
            jobs.append(self.next_job(arrival_time=t))
        return jobs

    def mean_job_work(self, samples: int = 200) -> float:
        """Monte-Carlo estimate of E[total task work per job].

        Used to tune arrival rates for a target utilization. Uses a
        dedicated RNG so it does not perturb the generation stream.
        """
        # Fresh stream per call so repeated estimates are identical.
        rng = random.Random(self.random_source.child("mean-work-probe").seed)
        size_dist = self.profile.task_size_distribution()
        total = 0.0
        for _ in range(samples):
            n = max(1, int(round(self.profile.job_size.sample(rng))))
            if self.max_phase_tasks is not None:
                n = min(n, self.max_phase_tasks)
            dag_len = max(1, int(round(self.profile.dag_length.sample(rng))))
            work = 0.0
            tasks_in_phase = n
            for index in range(dag_len):
                work += sum(
                    size_dist.sample(rng) for _ in range(tasks_in_phase)
                )
                tasks_in_phase = max(
                    1, int(round(tasks_in_phase * self.profile.downstream_shrink))
                )
            total += work
        return total / samples


def bin_index_for_size(num_tasks: int) -> int:
    """Map a job's task count to the paper's bin index (0..3)."""
    for i, (lo, hi) in enumerate(JOB_SIZE_BINS):
        if num_tasks >= lo and (hi is None or num_tasks <= hi):
            return i
    return len(JOB_SIZE_BINS) - 1


def bin_label(index: int) -> str:
    lo, hi = JOB_SIZE_BINS[index]
    if hi is None:
        return f"> {lo - 1}"
    return f"{lo}-{hi}"
