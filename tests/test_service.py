"""Service layer: config, node wiring, both RPC endpoint families, faults."""

import asyncio
import json

import pytest

from repro.errors import ConfigurationError, RpcError
from repro.service.config import NodeConfig, PeerConfig, make_local_configs
from repro.service.node import derive_instance_id
from repro.testing import LocalCluster


class TestConfig:
    def test_make_local_configs_consistent(self):
        configs = make_local_configs(4, 1)
        assert len(configs) == 4
        assert all(c.parties == 4 and c.threshold == 1 for c in configs)
        assert configs[0].peer_map() == {
            2: ("127.0.0.1", 17002),
            3: ("127.0.0.1", 17003),
            4: ("127.0.0.1", 17004),
        }

    def test_json_round_trip(self):
        config = make_local_configs(4, 1)[2]
        restored = NodeConfig.from_json(config.to_json())
        assert restored == config

    def test_invalid_node_id(self):
        with pytest.raises(ConfigurationError):
            NodeConfig(node_id=5, parties=4, threshold=1)

    def test_invalid_threshold(self):
        with pytest.raises(ConfigurationError):
            NodeConfig(node_id=1, parties=4, threshold=4)

    def test_invalid_transport(self):
        with pytest.raises(ConfigurationError):
            NodeConfig(node_id=1, parties=4, threshold=1, transport="carrier-pigeon")

    def test_peer_map_excludes_self(self):
        peers = (PeerConfig(1, "h", 1), PeerConfig(2, "h", 2))
        config = NodeConfig(node_id=1, parties=2, threshold=1, peers=peers)
        assert 1 not in config.peer_map()

    def test_unknown_field_rejected_by_name(self):
        payload = json.loads(make_local_configs(4, 1)[0].to_json())
        payload["bogus"] = 1
        with pytest.raises(ConfigurationError, match="bogus") as excinfo:
            NodeConfig.from_json(json.dumps(payload))
        assert "removed" not in str(excinfo.value)

    def test_older_config_names_removed_fields(self):
        with pytest.raises(ConfigurationError) as excinfo:
            NodeConfig.from_json(OLDER_CONFIG)
        message = str(excinfo.value)
        assert (
            "coalesce_window, math_backend, offload_policy "
            "(coalesce_window, math_backend, offload_policy removed" in message
        )
        # Without the removed keys the same file loads.
        payload = json.loads(OLDER_CONFIG)
        for name in ("offload_policy", "coalesce_window", "math_backend"):
            del payload[name]
        assert NodeConfig.from_json(json.dumps(payload)).crypto_workers == 0


#: A node config as ``tools/deal_keys.py`` wrote it before the offload
#: policy, the pool coalescer and the math-backend option were removed.
OLDER_CONFIG = """{
  "node_id": 1, "parties": 2, "threshold": 1,
  "listen_host": "127.0.0.1", "listen_port": 17001,
  "rpc_host": "127.0.0.1", "rpc_port": 18001,
  "peers": [{"node_id": 1, "host": "127.0.0.1", "port": 17001},
            {"node_id": 2, "host": "127.0.0.1", "port": 17002}],
  "transport": "tcp", "enable_tob": true, "tob_sequencer": 1,
  "tob_block_interval": 0.0, "gossip_fanout": null, "instance_timeout": 60.0,
  "rpc_auth_token": "", "metrics_port": null, "fault_plan": null,
  "data_dir": null, "max_pending_instances": null,
  "overload_retry_after": 0.25, "drain_timeout": 5.0, "crypto_workers": 0,
  "offload_policy": "adaptive", "coalesce_window": 0.002,
  "group_id": "", "topology": null, "precompute": null,
  "math_backend": "auto"
}"""


class TestInstanceIdDerivation:
    def test_deterministic(self):
        a = derive_instance_id("sign", "k", b"data", b"l")
        b = derive_instance_id("sign", "k", b"data", b"l")
        assert a == b

    def test_distinct_inputs(self):
        base = derive_instance_id("sign", "k", b"data", b"l")
        assert derive_instance_id("sign", "k", b"data2", b"l") != base
        assert derive_instance_id("sign", "k2", b"data", b"l") != base
        assert derive_instance_id("decrypt", "k", b"data", b"l") != base
        assert derive_instance_id("sign", "k", b"data", b"l2") != base

    def test_no_length_extension_ambiguity(self):
        # (label="ab", data="c") must differ from (label="a", data="bc").
        assert derive_instance_id("sign", "k", b"c", b"ab") != derive_instance_id(
            "sign", "k", b"bc", b"a"
        )


@pytest.mark.integration
class TestServiceEndToEnd:
    def test_protocol_api_all_kinds(self, all_keys):
        async def scenario():
            async with LocalCluster(all_keys) as cluster:
                client = cluster.client()
                signature = await client.sign("bls04", b"service sign")
                assert await client.verify_signature("bls04", b"service sign", signature)

                ciphertext = await client.encrypt("sg02", b"service secret", b"lbl")
                plaintext = await client.decrypt("sg02", ciphertext, b"lbl")
                assert plaintext == b"service secret"

                coin_a = await client.flip_coin("cks05", b"round-9")
                coin_b = await client.flip_coin("cks05", b"round-9")
                assert coin_a == coin_b and len(coin_a) == 32

        asyncio.run(scenario())

    def test_interactive_frost_and_precompute(self, all_keys):
        async def scenario():
            async with LocalCluster(all_keys) as cluster:
                client = cluster.client()
                sig = await client.sign("kg20", b"frost service")
                assert await client.verify_signature("kg20", b"frost service", sig)
                pre = await client.precompute("kg20", 3)
                assert all(r["available"] == 3 for r in pre.values())
                sig2 = await client.sign("kg20", b"frost precomputed")
                assert await client.verify_signature(
                    "kg20", b"frost precomputed", sig2
                )

        asyncio.run(scenario())

    def test_rsa_and_pairing_cipher(self, all_keys):
        async def scenario():
            async with LocalCluster(all_keys) as cluster:
                client = cluster.client()
                sig = await client.sign("sh00", b"rsa service")
                assert await client.verify_signature("sh00", b"rsa service", sig)
                ct = await client.encrypt("bz03", b"pairing ct", b"l")
                assert await client.decrypt("bz03", ct, b"l") == b"pairing ct"

        asyncio.run(scenario())

    def test_crash_fault_tolerance(self, all_keys):
        """n=4, t=1: one crashed node must not prevent results."""

        async def scenario():
            async with LocalCluster(all_keys) as cluster:
                await cluster.stop_node(4)  # crash node 4
                survivors = cluster.client()
                signature = await survivors.sign("bls04", b"degraded mode")
                assert await survivors.verify_signature(
                    "bls04", b"degraded mode", signature
                )
                coin = await survivors.flip_coin("cks05", b"degraded coin")
                assert len(coin) == 32

        asyncio.run(scenario())

    def test_status_and_list_keys(self, all_keys):
        async def scenario():
            async with LocalCluster(all_keys) as cluster:
                client = cluster.client()
                await client.sign("bls04", b"status probe")
                instance_id = derive_instance_id("sign", "bls04", b"status probe")
                status = await client.call(1, "status", {"instance_id": instance_id})
                assert status["status"] == "finished"
                assert status["latency"] > 0
                keys = await client.call(1, "list_keys", {})
                listed = {k["key_id"]: k for k in keys["keys"]}
                assert set(listed) == set(all_keys)
                assert listed["bls04"]["kind"] == "signature"
                assert listed["sg02"]["threshold"] == 1

        asyncio.run(scenario())

    def test_error_paths(self, all_keys):
        async def scenario():
            async with LocalCluster(all_keys) as cluster:
                client = cluster.client()
                with pytest.raises(RpcError):
                    await client.call(1, "sign", {"key_id": "missing", "data": "00"})
                with pytest.raises(RpcError):
                    await client.call(1, "nonsense", {})
                with pytest.raises(RpcError):
                    # Signing with a cipher key is a category error.
                    await client.call(
                        1, "encrypt", {"key_id": "bls04", "data": "00", "label": ""}
                    )
                # Verification of garbage returns False, not an error.
                assert not await client.verify_signature("bls04", b"m", b"\x00\x01")

        asyncio.run(scenario())

    def test_ping_identifies_nodes(self, all_keys):
        async def scenario():
            async with LocalCluster(all_keys) as cluster:
                client = cluster.client()
                for node_id in client.node_ids:
                    pong = await client.call(node_id, "ping", {})
                    assert pong["node_id"] == node_id

        asyncio.run(scenario())

    def test_concurrent_requests(self, all_keys):
        async def scenario():
            async with LocalCluster(all_keys) as cluster:
                client = cluster.client()
                coins = await asyncio.gather(
                    *(client.flip_coin("cks05", b"c%d" % k) for k in range(6))
                )
                assert len({bytes(c) for c in coins}) == 6

        asyncio.run(scenario())

    def test_dkg_over_rpc_then_use_key(self, all_keys):
        """Dealerless setup through the service API (§2.2's alternative)."""

        async def scenario():
            async with LocalCluster(all_keys) as cluster:
                client = cluster.client()
                group_key = await client.run_dkg("fresh-coin", scheme="cks05")
                assert len(group_key) == 32  # an ed25519 element
                coin_a = await client.flip_coin("fresh-coin", b"dkg round")
                coin_b = await client.flip_coin("fresh-coin", b"dkg round")
                assert coin_a == coin_b and len(coin_a) == 32

                # DKG output also powers a cipher...
                await client.run_dkg("fresh-cipher", scheme="sg02")
                ct = await client.encrypt("fresh-cipher", b"dkg secret", b"l")
                assert await client.decrypt("fresh-cipher", ct, b"l") == b"dkg secret"

                # ...and a FROST signature key.
                await client.run_dkg("fresh-wallet", scheme="kg20")
                sig = await client.sign("fresh-wallet", b"dkg signed")
                assert await client.verify_signature("fresh-wallet", b"dkg signed", sig)

        asyncio.run(scenario())

    def test_dkg_rejects_bad_targets(self, all_keys):
        async def scenario():
            async with LocalCluster(all_keys) as cluster:
                client = cluster.client()
                with pytest.raises(RpcError):
                    await client.run_dkg("rsa-key", scheme="sh00")
                with pytest.raises(RpcError):
                    # Existing key id must not be overwritten.
                    await client.run_dkg("bls04", scheme="cks05")

        asyncio.run(scenario())

    def test_gossip_deployment(self):
        from repro.schemes import generate_keys

        keys = {"bls04": generate_keys("bls04", 1, 5)}

        async def scenario():
            async with LocalCluster(
                keys, parties=5, threshold=1, gossip_fanout=2
            ) as cluster:
                client = cluster.client()
                signature = await client.sign("bls04", b"over gossip")
                assert await client.verify_signature("bls04", b"over gossip", signature)

        asyncio.run(scenario())
