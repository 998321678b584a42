"""Unit tests for workload profiles, the synthetic trace and spot prices."""

from __future__ import annotations

import numpy as np
import pytest

from repro.traces import (
    BENCHMARKS,
    GoogleTraceConfig,
    SpotPriceConfig,
    SpotPriceHistory,
    SyntheticGoogleTrace,
    benchmark_jobs,
    get_benchmark,
)
from repro.traces.workloads import WorkloadProfile, mixed_benchmark_jobs


class TestWorkloadProfiles:
    def test_four_benchmarks_defined(self):
        assert set(BENCHMARKS) == {"sort", "secondarysort", "terasort", "wordcount"}

    def test_io_and_cpu_bound_split(self):
        assert BENCHMARKS["sort"].bound == "io"
        assert BENCHMARKS["wordcount"].bound == "cpu"

    def test_deadlines_match_paper(self):
        assert BENCHMARKS["sort"].deadline == 100.0
        assert BENCHMARKS["terasort"].deadline == 100.0
        assert BENCHMARKS["secondarysort"].deadline == 150.0
        assert BENCHMARKS["wordcount"].deadline == 150.0

    def test_heavy_tailed_betas(self):
        assert all(profile.beta < 2.0 for profile in BENCHMARKS.values())

    def test_get_benchmark_case_insensitive(self):
        assert get_benchmark("Sort") is BENCHMARKS["sort"]

    def test_get_benchmark_unknown(self):
        with pytest.raises(KeyError):
            get_benchmark("spark")

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            WorkloadProfile(name="x", bound="gpu", tmin=10.0, beta=1.5)
        with pytest.raises(ValueError):
            WorkloadProfile(name="x", bound="io", tmin=10.0, beta=1.5, deadline=5.0)

    def test_job_spec_creation(self):
        spec = BENCHMARKS["sort"].job_spec("sort-1", submit_time=3.0, unit_price=2.0)
        assert spec.workload == "sort"
        assert spec.submit_time == 3.0
        assert spec.unit_price == 2.0
        assert spec.num_tasks == 10

    def test_split_size(self):
        profile = BENCHMARKS["sort"]
        assert profile.split_size_mb == pytest.approx(profile.input_size_mb / profile.num_tasks)

    def test_benchmark_jobs_stream(self):
        jobs = benchmark_jobs("sort", num_jobs=20, inter_arrival=5.0, rng=np.random.default_rng(0))
        assert len(jobs) == 20
        submit_times = [job.submit_time for job in jobs]
        assert submit_times == sorted(submit_times)
        assert submit_times[0] == 0.0

    def test_benchmark_jobs_deadline_override(self):
        jobs = benchmark_jobs("sort", num_jobs=3, deadline=250.0)
        assert all(job.deadline == 250.0 for job in jobs)

    def test_benchmark_jobs_validation(self):
        with pytest.raises(ValueError):
            benchmark_jobs("sort", num_jobs=0)
        with pytest.raises(ValueError):
            benchmark_jobs("sort", num_jobs=5, inter_arrival=-1.0)

    def test_mixed_stream_contains_all_benchmarks(self):
        jobs = mixed_benchmark_jobs(num_jobs_per_benchmark=3)
        assert len(jobs) == 12
        assert {job.workload for job in jobs} == set(BENCHMARKS)


class TestGoogleTrace:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            GoogleTraceConfig(num_jobs=0)
        with pytest.raises(ValueError):
            GoogleTraceConfig(deadline_factor=1.0)
        with pytest.raises(ValueError):
            GoogleTraceConfig(beta_range=(2.0, 1.0))

    def test_small_config(self):
        config = GoogleTraceConfig.small(num_jobs=50)
        assert config.num_jobs == 50
        assert config.max_tasks_per_job <= 200

    def test_generates_requested_number_of_jobs(self):
        trace = SyntheticGoogleTrace(GoogleTraceConfig.small(num_jobs=40))
        jobs = trace.generate()
        assert len(jobs) == 40

    def test_jobs_sorted_by_submission(self):
        trace = SyntheticGoogleTrace(GoogleTraceConfig.small(num_jobs=40))
        times = [job.submit_time for job in trace.generate()]
        assert times == sorted(times)

    def test_deterministic_for_seed(self):
        a = SyntheticGoogleTrace(GoogleTraceConfig.small(num_jobs=30, seed=5)).generate()
        b = SyntheticGoogleTrace(GoogleTraceConfig.small(num_jobs=30, seed=5)).generate()
        assert [j.tmin for j in a] == [j.tmin for j in b]
        assert [j.num_tasks for j in a] == [j.num_tasks for j in b]

    def test_different_seeds_differ(self):
        a = SyntheticGoogleTrace(GoogleTraceConfig.small(num_jobs=30, seed=5)).generate()
        b = SyntheticGoogleTrace(GoogleTraceConfig.small(num_jobs=30, seed=6)).generate()
        assert [j.tmin for j in a] != [j.tmin for j in b]

    def test_betas_within_configured_range(self):
        config = GoogleTraceConfig.small(num_jobs=50)
        jobs = SyntheticGoogleTrace(config).generate()
        lo, hi = config.beta_range
        assert all(lo <= job.beta <= hi for job in jobs)

    def test_beta_override(self):
        jobs = SyntheticGoogleTrace(GoogleTraceConfig.small(num_jobs=20)).generate(
            beta_override=1.5
        )
        assert all(job.beta == 1.5 for job in jobs)

    def test_deadline_is_multiple_of_mean_task_time(self):
        config = GoogleTraceConfig.small(num_jobs=20)
        jobs = SyntheticGoogleTrace(config).generate()
        for job in jobs:
            assert job.deadline == pytest.approx(config.deadline_factor * job.mean_task_time)

    def test_task_counts_within_bounds(self):
        config = GoogleTraceConfig.small(num_jobs=60)
        jobs = SyntheticGoogleTrace(config).generate()
        assert all(
            config.min_tasks_per_job <= job.num_tasks <= config.max_tasks_per_job for job in jobs
        )

    def test_job_specs_conversion(self):
        trace = SyntheticGoogleTrace(GoogleTraceConfig.small(num_jobs=10))
        specs = trace.job_specs()
        assert len(specs) == 10
        assert all(spec.workload == "google-trace" for spec in specs)

    def test_spot_price_integration(self):
        prices = SpotPriceHistory(SpotPriceConfig(mean_price=2.0, seed=1))
        trace = SyntheticGoogleTrace(GoogleTraceConfig.small(num_jobs=10), spot_prices=prices)
        jobs = trace.generate()
        assert all(job.unit_price > 0 for job in jobs)


class TestSpotPrices:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SpotPriceConfig(mean_price=0.0)
        with pytest.raises(ValueError):
            SpotPriceConfig(reversion=0.0)
        with pytest.raises(ValueError):
            SpotPriceConfig(spike_multiplier=0.5)

    def test_prices_positive(self):
        history = SpotPriceHistory(SpotPriceConfig(mean_price=1.0, seed=3))
        assert all(price > 0 for price in history.prices)

    def test_average_near_mean(self):
        history = SpotPriceHistory(SpotPriceConfig(mean_price=1.0, volatility=0.05, seed=3))
        assert history.average_price() == pytest.approx(1.0, rel=0.25)

    def test_price_lookup_piecewise_constant(self):
        history = SpotPriceHistory(SpotPriceConfig(interval_seconds=100.0, seed=3))
        assert history.price_at(0.0) == history.prices[0]
        assert history.price_at(150.0) == history.prices[1]
        assert history.price_at(-5.0) == history.prices[0]
        assert history.price_at(1e12) == history.prices[-1]

    def test_deterministic_for_seed(self):
        a = SpotPriceHistory(SpotPriceConfig(seed=9)).prices
        b = SpotPriceHistory(SpotPriceConfig(seed=9)).prices
        assert a == b
