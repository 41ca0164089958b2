#!/usr/bin/env python3
"""Trusted-dealer CLI: generate configs and keystores for a Θ-network.

Single-group mode (the original deployment shape)::

    python3 tools/deal_keys.py --parties 4 --threshold 1 \
        --schemes bls04,sg02,cks05 --out deployment/

writes, under ``deployment/``:

* ``node<i>/config.json``   — NodeConfig for each node (TCP transport);
* ``node<i>/keystore.json`` — that node's private key shares;
* ``public_keys.json``     — key id → public key + owner, for clients.

Federation mode deals one *sharded* deployment from a topology
descriptor (see ``docs/federation.md``)::

    python3 tools/deal_keys.py --topology deployment/topology.json \
        --keys tenant-a/sg02,tenant-a/bls04,tenant-b/sg02 --out deployment/

Each key id's scheme is the segment after its last ``/`` (bare scheme
names work too); every key is dealt **only** to the group that owns it
under the topology's ring/assignments, so groups hold disjoint key sets.
Per group ``<gid>``, configs and keystores land under
``out/group-<gid>/node<i>/`` with ``group_id``/``topology`` embedded, so
nodes answer requests for foreign keys with a structured ``wrong_group``
redirect.  Start nodes with ``python3 -m repro.service.daemon`` and any
number of routers with ``python3 -m repro.router.daemon``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.errors import ConfigurationError  # noqa: E402
from repro.router.topology import Topology  # noqa: E402
from repro.service.deploy import deal_deployment  # noqa: E402


def print_start_commands(dealt, out, topology) -> None:
    """Summarize what was dealt and how to start it."""
    for group in dealt:
        config = group.configs[0]
        shape = f"{config.threshold + 1}-of-{config.parties}"
        if group.group_id is None:
            print(
                f"dealt {len(group.key_ids)} keys for a {shape} network "
                f"under {out}/"
            )
        else:
            print(
                f"group {group.group_id}: dealt {len(group.key_ids)} keys "
                f"({', '.join(group.key_ids) or 'none'}) as {shape}"
            )
    print("start nodes with:")
    for group in dealt:
        for config in group.configs:
            node_dir = group.directory / f"node{config.node_id}"
            print(
                f"  python3 -m repro.service.daemon "
                f"--config {node_dir}/config.json "
                f"--keystore {node_dir}/keystore.json"
            )
    if topology is not None:
        print("start a router with:")
        print(f"  python3 -m repro.router.daemon --topology {out}/topology.json")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--parties", type=int, default=4)
    parser.add_argument("--threshold", type=int, default=1)
    parser.add_argument(
        "--schemes", default="bls04,sg02,cks05",
        help="comma-separated scheme list (key id = scheme name)",
    )
    parser.add_argument(
        "--keys", default="",
        help="comma-separated key ids, e.g. tenant-a/sg02 (scheme = last "
        "path segment); overrides --schemes",
    )
    parser.add_argument(
        "--topology", default="",
        help="federation Topology JSON: deal keys disjointly across its "
        "groups instead of one flat network",
    )
    parser.add_argument("--rsa-bits", type=int, default=2048)
    parser.add_argument("--base-port", type=int, default=17000)
    parser.add_argument("--rpc-base-port", type=int, default=18000)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--out", default="deployment")
    parser.add_argument(
        "--data-dir",
        action="store_true",
        help="give every node a durable data_dir (out/.../node<i>/data) so "
        "it persists keys/results and runs crash recovery on restart "
        "(docs/robustness.md)",
    )
    args = parser.parse_args()

    raw = args.keys if args.keys else args.schemes
    key_ids = [k.strip() for k in raw.split(",") if k.strip()]
    if not key_ids:
        raise ConfigurationError("no keys requested")
    topology = (
        Topology.from_json(pathlib.Path(args.topology).read_text())
        if args.topology
        else None
    )
    dealt = deal_deployment(
        args.out,
        key_ids,
        parties=args.parties,
        threshold=args.threshold,
        base_port=args.base_port,
        rpc_base_port=args.rpc_base_port,
        host=args.host,
        rsa_bits=args.rsa_bits,
        data_dir=args.data_dir,
        topology=topology,
    )
    print_start_commands(dealt, pathlib.Path(args.out), topology)


if __name__ == "__main__":
    main()
