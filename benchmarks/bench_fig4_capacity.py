"""Figure 4 — Server-side throughput–latency graphs (the capacity test).

For every deployment of Table 2 and every scheme, sweep the request rate in
factors of two and print the (throughput, L95) series — the data behind the
six panels of Fig. 4 — plus the knee points.  Checks the paper's headline
shapes:

* knee ordering at small scale: ECDH-based ≥ pairing-based > RSA-based;
* geographic distribution moves latency but not the knee;
* knees drop steeply from 7 to 31 nodes (the paper reports ≈2³);
* at 127 nodes the schemes converge (network-bound regime).

Full fidelity takes tens of minutes (it simulates ~10⁸ events); set
REPRO_FAST=1 for a reduced sweep.
"""

import asyncio
import os

import pytest

from repro.sim.deployments import DEPLOYMENTS
from repro.sim.experiments import capacity_test
from repro.sim.metrics import find_knee
from repro.sim.plotting import scatter_plot
from repro.workers.harness import run_ablation

from _common import fast_mode, host_cores, ms, print_table, requires_cores

SCHEMES = ["sg02", "cks05", "kg20", "bls04", "bz03", "sh00"]

#: Paper knee points (req/s) — DO-7 from §4.5 text, DO-31-G from Table 4,
#: DO-127 from §4.5 text.
PAPER_KNEES = {
    "DO-7-L": {"sg02": 64, "cks05": 64, "kg20": 64, "bls04": 32, "bz03": 32, "sh00": 8},
    "DO-7-G": {"sg02": 64, "cks05": 64, "kg20": 64, "bls04": 32, "bz03": 32, "sh00": 8},
    "DO-31-G": {"sg02": 8, "cks05": 8, "kg20": 4, "bls04": 4, "bz03": 4, "sh00": 2},
    # §4.5 text for the medium deployment (it quotes 16 for SG02; Table 4's
    # knee column says 8 — the paper is internally inconsistent by 2×).
    "DO-31-L": {"sg02": 16, "cks05": 16, "kg20": 8, "bls04": 4, "bz03": 4, "sh00": 4},
    "DO-127-L": {"sg02": 2, "cks05": 2, "kg20": 1, "bls04": 2, "bz03": 2, "sh00": 1},
    "DO-127-G": {"sg02": 2, "cks05": 2, "kg20": 1, "bls04": 1, "bz03": 2, "sh00": 1},
}

if fast_mode():
    PANELS = ["DO-7-L", "DO-7-G"]
else:
    PANELS = ["DO-7-L", "DO-7-G", "DO-31-L", "DO-31-G", "DO-127-L", "DO-127-G"]


#: Sweeps are deterministic, so panels and the cross-panel test share them.
_SWEEP_CACHE: dict[tuple[str, str], list] = {}


def _sweep(deployment, scheme):
    key = (deployment.acronym, scheme)
    if key not in _SWEEP_CACHE:
        rates = deployment.rates()
        if fast_mode():
            rates = rates[: min(len(rates), 8)]
        _SWEEP_CACHE[key] = capacity_test(
            deployment, scheme, rates=rates, duration=10.0
        )
    return _SWEEP_CACHE[key]


@pytest.mark.parametrize("acronym", PANELS)
def test_fig4_panel(benchmark, acronym):
    deployment = DEPLOYMENTS[acronym]
    curves = {}

    def run_panel():
        for scheme in SCHEMES:
            curves[scheme] = _sweep(deployment, scheme)

    benchmark.pedantic(run_panel, rounds=1, iterations=1)

    rows = []
    for scheme in SCHEMES:
        for point in curves[scheme]:
            rows.append(
                [
                    scheme,
                    f"{point.rate:g}",
                    f"{point.throughput:.2f}",
                    ms(point.l95),
                    f"{point.completed}/{point.offered}",
                    f"{point.max_utilization:.2f}",
                ]
            )
    print_table(
        f"Fig. 4 panel {acronym}: throughput vs L95",
        ["scheme", "rate (req/s)", "tput (req/s)", "L95 (ms)", "done", "max util"],
        rows,
    )

    print(
        scatter_plot(
            {
                scheme: [(p.throughput, p.l95) for p in curves[scheme]]
                for scheme in SCHEMES
            }
        )
    )

    knees = {scheme: find_knee(curves[scheme]) for scheme in SCHEMES}
    knee_rows = [
        [
            scheme,
            f"{knees[scheme].rate:g}",
            f"{PAPER_KNEES[acronym][scheme]}",
            ms(knees[scheme].l95),
        ]
        for scheme in SCHEMES
    ]
    print_table(
        f"Knee points {acronym} (ours vs paper)",
        ["scheme", "knee (ours)", "knee (paper)", "L95@knee (ms)"],
        knee_rows,
    )

    # --- shape assertions -------------------------------------------------
    knee_rate = {s: knees[s].rate for s in SCHEMES}
    # ECDH ≥ pairing > RSA at every size (§4.5 "the relative order of the
    # non-interactive schemes remains consistent").
    assert knee_rate["sg02"] >= knee_rate["bls04"] >= knee_rate["sh00"]
    assert knee_rate["cks05"] >= knee_rate["bz03"] >= knee_rate["sh00"]
    # Within a factor 2 of the paper's reported knee.
    for scheme in SCHEMES:
        paper = PAPER_KNEES[acronym][scheme]
        assert paper / 2 <= knee_rate[scheme] <= paper * 2, (
            f"{acronym}/{scheme}: knee {knee_rate[scheme]} vs paper {paper}"
        )
    # The system degrades past the knee: at the sweep's top rate it either
    # shows a latency blow-up or fails to keep up with the offered load.
    # Only checked when the sweep extends well past the knee and the knee
    # itself was a sustainable operating point (for schemes saturated at
    # every rate — SH00 at 127 nodes — the knee degenerates to the lowest
    # rate and its L95 is already the experiment-time bound).
    for scheme in SCHEMES:
        knee = knees[scheme]
        last = curves[scheme][-1]
        sustained = knee.offered and knee.completed >= 0.95 * knee.offered
        if sustained and last.rate >= 4 * knee.rate:
            blew_up = last.l95 > 3 * knee.l95
            fell_behind = last.offered and last.completed < 0.95 * last.offered
            assert blew_up or fell_behind, (
                f"{scheme}: no degradation visible at rate {last.rate}"
            )


def test_fig4_offload_ablation(benchmark):
    """Crypto worker-pool ablation on the *real* asyncio service.

    Unlike the simulator panels above, this boots an actual in-process
    BLS04 cluster twice over identical key material — once fully inline
    (``crypto_workers=0``) and once with ``workers=2``, whose pool is
    built by the rule a node applies to its own — and compares
    throughput and event-loop lag.  What the workers-on run must show
    depends on the host:

    * ``cpu_count >= 2``: every op goes through the pool (tasks ran in
      workers, nothing degraded inline, no crashes);
    * ``cpu_count == 1``: no pool is built (reason ``few_cores``) and
      every op runs inline — the pool never runs a task, which is the
      fix for the measured sub-1× "speedup" static offload produced here;
    * ``cpu_count >= 4``: the throughput (≥1.5×) and loop-lag claims
      additionally apply — they need spare cores for the workers.
    """
    parties, threshold, requests = (4, 1, 3) if fast_mode() else (16, 3, 6)
    results = {}

    def run():
        results["pair"] = asyncio.run(
            run_ablation(
                "bls04", parties, threshold, requests=requests, workers=2
            )
        )

    benchmark.pedantic(run, rounds=1, iterations=1)
    off, on = results["pair"]

    rows = [
        [
            f"{result.workers}",
            f"{result.ops_per_sec:.2f}",
            ms(result.latency_p50),
            ms(result.latency_p99),
            ms(result.loop_lag_p99),
            f"{result.pool.get('tasks_ok', 0)}",
            f"{result.pool.get('fallbacks', 0)}",
        ]
        for result in (off, on)
    ]
    print_table(
        f"Worker-pool ablation: bls04 n={parties} t={threshold} "
        f"({requests} concurrent requests, {os.cpu_count()} cores)",
        ["workers", "ops/s", "p50 (ms)", "p99 (ms)", "lag p99 (ms)",
         "pool ok", "fallbacks"],
        rows,
    )

    cores = host_cores()
    if cores >= 2:
        # Multi-core correctness: the pooled run really offloaded (tasks
        # ran in workers, none degraded to inline, no worker crashes).
        assert on.pool.get("tasks_ok", 0) > 0, "pool executed no tasks"
        assert on.pool.get("fallbacks", 0) == 0, "pooled run degraded inline"
        assert on.pool.get("crashes", 0) == 0
    else:
        # 1-core correctness: no pool may be built (process-hopping with
        # no spare core costs ~35% throughput), so nothing is offloaded
        # and no worker is spawned.
        assert on.pool.get("tasks_ok", 0) == 0, (
            f"pool ran tasks on a 1-core host: {on.pool}"
        )
        assert not on.pool.get("enabled") and on.pool.get("reason") == "few_cores", (
            f"pool built on a 1-core host: {on.pool}"
        )
        assert on.pool.get("fallbacks", 0) == 0
        assert not on.pool.get("worker_pids"), "pool spawned workers unused"

    # The performance claims need real parallelism: with fewer cores than
    # event loop + workers, offload only buys loop responsiveness, not
    # wall-clock throughput.
    if requires_cores(4):
        assert on.ops_per_sec >= 1.5 * off.ops_per_sec, (
            f"workers-on {on.ops_per_sec:.2f} ops/s < 1.5x "
            f"workers-off {off.ops_per_sec:.2f} ops/s"
        )
        assert on.loop_lag_p99 < off.loop_lag_p99, (
            f"loop lag did not drop: {on.loop_lag_p99:.3f}s vs "
            f"{off.loop_lag_p99:.3f}s"
        )


@pytest.mark.skipif(fast_mode(), reason="needs the full panel sweep")
def test_fig4_cross_panel_shapes(benchmark):
    """Knees: unchanged by geography, steep drop 7→31, convergence at 127."""

    results = {}

    def run():
        for acronym in ("DO-7-L", "DO-7-G", "DO-31-G", "DO-127-G"):
            deployment = DEPLOYMENTS[acronym]
            results[acronym] = {
                scheme: find_knee(_sweep(deployment, scheme)).rate
                for scheme in ("sg02", "bls04", "sh00")
            }

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        [scheme] + [f"{results[a][scheme]:g}" for a in results]
        for scheme in ("sg02", "bls04", "sh00")
    ]
    print_table("Knee capacity across deployments", ["scheme", *results], rows)

    for scheme in ("sg02", "bls04", "sh00"):
        # Geography does not move the knee (capacity is CPU-bound).  Under
        # the literal max-throughput/latency criterion the ~100 ms WAN floor
        # can absorb one doubling step of queueing delay, so allow exactly
        # one 2× step between local and global.
        local, global_ = results["DO-7-L"][scheme], results["DO-7-G"][scheme]
        assert local <= global_ <= 2 * local
        # Strong drop from 7 to 31 nodes (paper: ≈2³ for SG02).
        assert results["DO-7-L"][scheme] >= 4 * results["DO-31-G"][scheme] or (
            scheme == "sh00" and results["DO-7-L"][scheme] >= 2 * results["DO-31-G"][scheme]
        )
    # Convergence at 127 nodes: all schemes within a factor 4.
    knees_127 = list(results["DO-127-G"].values())
    assert max(knees_127) <= 4 * min(knees_127)
