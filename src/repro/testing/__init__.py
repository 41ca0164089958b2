"""Test and benchmark harnesses (see :mod:`repro.testing.cluster`)."""

from .cluster import DaemonCluster, LocalCluster, live_pids

__all__ = ["DaemonCluster", "LocalCluster", "live_pids"]
