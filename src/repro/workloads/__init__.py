"""Workload generators: YCSB-style KV traffic, the serving-benchmark
driver, UUIDP demand profiles, and time-varying arrival processes."""

from repro.workloads.demand import (
    ARRIVAL_KINDS,
    ArrivalProcess,
    make_arrival,
    max_skew_profile,
    random_compositions,
    skewed_pair_grid,
)
from repro.workloads.distributions import (
    EXACT_CDF_MAX,
    KeyPicker,
    LatestPicker,
    ScrambledZipfianPicker,
    ZipfianApproxPicker,
    ZipfianPicker,
    make_zipfian,
)
from repro.workloads.driver import (
    ChaosEvent,
    DriverConfig,
    DriverResult,
    LatencyHistogram,
    ShardResult,
    WorkloadDriver,
    cluster_target_factory,
    flush_and_report,
    store_target_factory,
)
from repro.workloads.ycsb import (
    WorkloadSpec,
    encode_key,
    load_phase,
    make_value,
    run_phase,
)

__all__ = [
    "KeyPicker",
    "ZipfianPicker",
    "ZipfianApproxPicker",
    "make_zipfian",
    "EXACT_CDF_MAX",
    "ScrambledZipfianPicker",
    "LatestPicker",
    "WorkloadSpec",
    "encode_key",
    "make_value",
    "load_phase",
    "run_phase",
    "ChaosEvent",
    "DriverConfig",
    "DriverResult",
    "LatencyHistogram",
    "ShardResult",
    "WorkloadDriver",
    "store_target_factory",
    "cluster_target_factory",
    "flush_and_report",
    "ARRIVAL_KINDS",
    "ArrivalProcess",
    "make_arrival",
    "skewed_pair_grid",
    "random_compositions",
    "max_skew_profile",
]
