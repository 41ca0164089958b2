# Convenience targets for the Thetacrypt reproduction.

PYTHON ?= python3

.PHONY: install test test-fast bench bench-fast bench-smoke check check-gmpy2 metrics-smoke chaos-smoke recovery-smoke offload-smoke federation-smoke precompute-smoke examples fixtures clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) tools/install_editable.py

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow and not integration"

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

bench-fast:
	REPRO_FAST=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Tier-1 gate: full test suite plus a microbenchmark smoke run.  Sets
# PYTHONPATH so it works without `make install`.
check:
	PYTHONPATH=src $(PYTHON) -m pytest tests/
	PYTHONPATH=src REPRO_FAST=1 $(PYTHON) -m pytest \
		benchmarks/bench_micro_primitives.py --benchmark-disable -q

# Second test leg for hosts with gmpy2 installed: the cross-backend
# bit-identity matrix gains its gmpy2 column, the whole crypto suite
# runs on the gmpy2 backend (the process default wherever gmpy2
# imports), and the backend benchmark arms its >=3x gmpy2 gate
# (docs/performance.md, "Math backends").  Fails fast if gmpy2 is not
# importable or not the active backend — this target is the opt-in, not
# the probe.
check-gmpy2:
	PYTHONPATH=src $(PYTHON) -c "import gmpy2; print('gmpy2', gmpy2.version())"
	PYTHONPATH=src $(PYTHON) -c "from repro.mathutils.backends import backend_info; \
		name = backend_info()['name']; assert name == 'gmpy2', name; print('backend', name)"
	PYTHONPATH=src $(PYTHON) -m pytest \
		tests/test_math_backends.py tests/test_mathutils.py \
		tests/test_table_persistence.py tests/test_precompute.py -q
	PYTHONPATH=src REPRO_FAST=1 $(PYTHON) -m pytest \
		benchmarks/bench_backends.py --benchmark-only -s

# Telemetry gate: boot a 4-node cluster, run one request per scheme API,
# and assert the Prometheus scrape output parses (docs/observability.md).
metrics-smoke:
	PYTHONPATH=src $(PYTHON) tools/metrics_smoke.py

# Robustness gate: a seeded 4-node cluster with one crashed and one
# byzantine node must still finalize SG02 decryption and BLS04 signing,
# with the injected faults visible in the Prometheus scrape and the same
# seed reproducing the same fault schedule (docs/robustness.md).
chaos-smoke:
	PYTHONPATH=src $(PYTHON) tools/chaos_smoke.py

# Durability gate: a 4-node daemon cluster with per-node data_dir; node 4
# is SIGKILLed mid-protocol and restarted from disk, which must recover
# its keys, serve cached results, and abort the in-flight instance with
# the structured crash_recovery reason (docs/robustness.md).
recovery-smoke:
	PYTHONPATH=src $(PYTHON) tools/recovery_smoke.py

# Offload gate: a 4-node daemon cluster with --crypto-workers 2.  On
# multi-core hosts SG02 decryption and BLS04 signing must run through
# the worker pools (visible in node_stats and the Prometheus scrape); on
# a 1-core host the nodes must instead build no pool (node_stats reason
# few_cores, zero pool tasks, no workers).
# Either way, no orphaned worker processes after SIGTERM
# (docs/performance.md).
offload-smoke:
	PYTHONPATH=src $(PYTHON) tools/offload_smoke.py

# Federation gate: deal disjoint keys across 2 two-node groups from a
# topology file, start the 4 node daemons plus a stateless router
# daemon, and drive SG02 decryption (group alpha) and BLS04 signing
# (group beta) through the router's single endpoint.  Per-shard router
# telemetry must count both shards, and SIGKILLing the router
# mid-workload then restarting it must lose no accepted request
# (docs/federation.md).  No orphaned processes after SIGTERM.
federation-smoke:
	PYTHONPATH=src $(PYTHON) tools/federation_smoke.py

# Precompute gate: 2 daemons with --precompute-depth 8 and journal-backed
# pools.  Announced ciphertexts must be staged on every node and served
# from the pool (repro_precompute_served_total{source="pool"} scraped),
# an unannounced decrypt must fall back inline, and both daemons must
# exit cleanly on SIGTERM — the refill loop cannot pin shutdown
# (docs/performance.md, "Precompute pipeline").
precompute-smoke:
	PYTHONPATH=src $(PYTHON) tools/precompute_smoke.py

# Workers-on/off ablation on the real asyncio service, persisted
# machine-readably to BENCH_offload.json with a bounded history of prior
# runs (docs/performance.md).  Fails on >=4-core hosts unless offload
# wins >=1.5x, and on 1-core hosts unless the workers-on run (which
# builds no pool there) holds throughput within noise of inline
# (>=0.95x).  Set
# REPRO_FAST=1 for a 4-node shape on small runners.
bench-smoke:
	PYTHONPATH=src $(PYTHON) tools/bench_smoke.py

examples:
	for script in examples/*.py; do echo "== $$script =="; $(PYTHON) $$script || exit 1; done

fixtures:
	$(PYTHON) tools/gen_rsa_fixtures.py 512 1024 2048 4096

clean:
	find . -type d -name __pycache__ -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis
