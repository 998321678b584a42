"""Shared fixtures for the Chronos reproduction test suite."""

from __future__ import annotations

import shutil
import subprocess

import numpy as np
import pytest

from repro.core.model import StragglerModel
from repro.hadoop.config import HadoopConfig
from repro.simulator.cluster import ClusterConfig
from repro.simulator.entities import JobSpec
from repro.strategies import StrategyParameters


@pytest.fixture
def quick_poll(monkeypatch):
    """Workers poll an empty queue, and back off a failed call, from 10 ms."""
    import repro.distributed.worker as worker_module

    monkeypatch.setattr(worker_module, "POLL_INTERVAL", 0.01)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def model() -> StragglerModel:
    """The reference straggler model used across the analytical tests."""
    return StragglerModel(
        tmin=20.0,
        beta=1.5,
        num_tasks=10,
        deadline=100.0,
        tau_est=40.0,
        tau_kill=80.0,
        phi_est=0.4,
    )


@pytest.fixture
def loose_model() -> StragglerModel:
    """A model with a lax deadline (low straggler probability)."""
    return StragglerModel(
        tmin=20.0,
        beta=1.8,
        num_tasks=5,
        deadline=400.0,
        tau_est=60.0,
        tau_kill=120.0,
        phi_est=0.5,
    )


@pytest.fixture
def job_spec() -> JobSpec:
    """A single reference job."""
    return JobSpec(
        job_id="job-0",
        num_tasks=10,
        deadline=100.0,
        tmin=20.0,
        beta=1.4,
        submit_time=0.0,
        unit_price=1.0,
        workload="unit-test",
    )


@pytest.fixture
def job_stream() -> list:
    """A short stream of jobs for integration tests."""
    return [
        JobSpec(
            job_id=f"job-{index}",
            num_tasks=8,
            deadline=100.0,
            tmin=20.0,
            beta=1.4,
            submit_time=index * 10.0,
            unit_price=1.0,
            workload="unit-test",
        )
        for index in range(12)
    ]


@pytest.fixture
def strategy_params() -> StrategyParameters:
    """Default strategy parameters used by the simulator tests."""
    return StrategyParameters(tau_est=40.0, tau_kill=80.0, theta=1e-4, unit_price=1.0)


@pytest.fixture
def small_cluster() -> ClusterConfig:
    """A small bounded cluster."""
    return ClusterConfig(num_nodes=4, slots_per_node=4)


@pytest.fixture
def unbounded_cluster() -> ClusterConfig:
    """An unbounded cluster (no container contention)."""
    return ClusterConfig(num_nodes=0)


@pytest.fixture
def fast_hadoop() -> HadoopConfig:
    """Hadoop config with zero overheads (matches the analytical model)."""
    return HadoopConfig.instantaneous()


@pytest.fixture(scope="session")
def tls_material(tmp_path_factory):
    """A self-signed cert/key pair for 127.0.0.1 (needs the openssl CLI)."""
    openssl = shutil.which("openssl")
    if openssl is None:
        pytest.skip("openssl CLI not available to mint a test certificate")
    directory = tmp_path_factory.mktemp("tls")
    certfile, keyfile = directory / "cert.pem", directory / "key.pem"
    subprocess.run(
        [
            openssl, "req", "-x509", "-newkey", "rsa:2048", "-nodes",
            "-keyout", str(keyfile), "-out", str(certfile), "-days", "2",
            "-subj", "/CN=127.0.0.1", "-addext", "subjectAltName=IP:127.0.0.1",
        ],
        check=True,
        capture_output=True,
    )
    return certfile, keyfile
