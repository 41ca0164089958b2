"""Trusted-dealer deployment files for daemon processes.

:func:`deal_deployment` writes the file tree that ``repro.service.daemon``
and ``repro.router.daemon`` start from (``tools/deal_keys.py`` is its
CLI):

* ``node<i>/config.json`` — NodeConfig for each node (TCP transport);
* ``node<i>/keystore.json`` — that node's private key shares;
* ``public_keys.json`` — key id → scheme + public key, for clients.

Given a federation :class:`~repro.router.topology.Topology`, every group
``<gid>`` gets its own ``group-<gid>/node<i>/`` tree with
``group_id``/``topology`` embedded in the configs, each key is dealt
**only** to the group that owns it, ``public_keys.json`` names the owning
group, and ``topology.json`` is written for routers and clients.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from ..schemes import generate_keys
from ..schemes.keystore import export_public_key, node_keystore
from ..serialization import hexlify
from .config import NodeConfig, make_local_configs

if TYPE_CHECKING:
    from ..router.topology import Topology


@dataclass(frozen=True)
class DealtGroup:
    """One threshold group as written to disk."""

    group_id: str | None  # None for a single-group deployment
    directory: Path
    configs: list[NodeConfig]
    key_ids: list[str]


def scheme_of(key_id: str) -> str:
    """``tenant/app/bls04`` → ``bls04``; bare scheme names pass through."""
    return key_id.rsplit("/", 1)[-1]


def deal_deployment(
    out: Path | str,
    key_ids: Sequence[str],
    *,
    parties: int = 4,
    threshold: int = 1,
    base_port: int = 17000,
    rpc_base_port: int = 18000,
    host: str = "127.0.0.1",
    rsa_bits: int = 2048,
    data_dir: bool = False,
    topology: "Topology | None" = None,
) -> list[DealtGroup]:
    """Deal fresh keys and write every node's config and keystore.

    ``data_dir`` gives every node a durable ``node<i>/data`` directory.
    With a ``topology``, ``parties``/``threshold``/``host`` come from its
    groups and ``base_port``/``rpc_base_port`` only fill in groups that
    set none.
    """
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    if topology is None:
        plan = [
            (
                None,
                out,
                list(key_ids),
                make_local_configs(
                    parties,
                    threshold,
                    base_port=base_port,
                    rpc_base_port=rpc_base_port,
                    host=host,
                ),
            )
        ]
    else:
        owned = topology.partition_keys(key_ids)
        plan = [
            (
                spec.group_id,
                out / f"group-{spec.group_id}",
                owned[spec.group_id],
                make_local_configs(
                    spec.parties,
                    spec.threshold,
                    base_port=spec.base_port or base_port,
                    rpc_base_port=spec.rpc_base_port or rpc_base_port,
                    host=spec.host,
                    group_id=spec.group_id,
                    topology=topology,
                ),
            )
            for spec in topology.groups
        ]
    public: dict[str, dict] = {}
    dealt: list[DealtGroup] = []
    for group_id, directory, group_keys, configs in plan:
        material = {
            key_id: generate_keys(
                scheme_of(key_id),
                configs[0].threshold,
                configs[0].parties,
                rsa_bits=rsa_bits,
            )
            for key_id in group_keys
        }
        if data_dir:
            configs = [
                replace(c, data_dir=str(directory / f"node{c.node_id}" / "data"))
                for c in configs
            ]
        for config in configs:
            node_dir = directory / f"node{config.node_id}"
            node_dir.mkdir(parents=True, exist_ok=True)
            (node_dir / "config.json").write_text(config.to_json())
            (node_dir / "keystore.json").write_text(
                node_keystore(material, config.node_id)
            )
        for key_id, km in material.items():
            entry = {"scheme": km.scheme}
            if group_id is not None:
                entry["group"] = group_id
            entry["public_key"] = hexlify(
                export_public_key(km.scheme, km.public_key)
            )
            public[key_id] = entry
        dealt.append(DealtGroup(group_id, directory, configs, group_keys))
    (out / "public_keys.json").write_text(json.dumps(public, indent=2))
    if topology is not None:
        # The same document the nodes embed, for routers and clients to load.
        (out / "topology.json").write_text(topology.to_json())
    return dealt
