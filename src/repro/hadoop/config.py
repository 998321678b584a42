"""Runtime configuration of the simulated Hadoop cluster."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class HadoopConfig:
    """Knobs of the simulated MapReduce runtime.

    Parameters
    ----------
    jvm_startup_mean:
        Mean JVM launch delay per attempt, seconds.  The paper's estimator
        improvement exists precisely because this is not negligible in
        contended clusters.
    jvm_startup_jitter:
        Half-width of the uniform jitter added to the JVM launch delay.
    container_grant_delay:
        Fixed delay between a container request and its grant when
        capacity is available (AM-RM heartbeat latency).
    speculation_interval:
        Period of the speculation checks run by the baseline strategies
        (Hadoop-S and Mantri).
    mantri_threshold:
        Mantri launches an extra attempt for a task whose estimated
        remaining time exceeds the average task execution time by this
        amount (the paper quotes 30 s).
    mantri_max_extra_attempts:
        Cap on extra attempts per task under Mantri (the paper quotes 3).
    hadoop_s_max_speculative_per_task:
        Default Hadoop launches at most one speculative copy per task.
    """

    jvm_startup_mean: float = 3.0
    jvm_startup_jitter: float = 1.0
    container_grant_delay: float = 0.5
    speculation_interval: float = 5.0
    mantri_threshold: float = 30.0
    mantri_max_extra_attempts: int = 3
    hadoop_s_max_speculative_per_task: int = 1

    def __post_init__(self) -> None:
        if self.jvm_startup_mean < 0:
            raise ValueError("jvm_startup_mean must be non-negative")
        if self.jvm_startup_jitter < 0:
            raise ValueError("jvm_startup_jitter must be non-negative")
        if self.jvm_startup_jitter > self.jvm_startup_mean and self.jvm_startup_mean > 0:
            raise ValueError("jitter must not exceed the mean JVM startup time")
        if self.container_grant_delay < 0:
            raise ValueError("container_grant_delay must be non-negative")
        if self.speculation_interval <= 0:
            raise ValueError("speculation_interval must be positive")
        if self.mantri_threshold < 0:
            raise ValueError("mantri_threshold must be non-negative")
        if self.mantri_max_extra_attempts < 0:
            raise ValueError("mantri_max_extra_attempts must be non-negative")
        if self.hadoop_s_max_speculative_per_task < 0:
            raise ValueError("hadoop_s_max_speculative_per_task must be non-negative")

    @classmethod
    def instantaneous(cls) -> "HadoopConfig":
        """Configuration with zero overheads.

        The closed-form analysis ignores JVM startup and container grant
        latency; ``tests/test_conformance.py`` runs the simulator with
        this configuration to check it against Theorems 1-6.
        """
        return cls(
            jvm_startup_mean=0.0,
            jvm_startup_jitter=0.0,
            container_grant_delay=0.0,
        )
