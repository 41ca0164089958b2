"""Proactive refresh: the TRI protocol and the service RPC end to end."""

import asyncio

import pytest

from repro.errors import RpcError
from repro.groups import get_group
from repro.testing import LocalCluster


@pytest.mark.integration
class TestRefreshRpc:
    def test_refresh_preserves_key_and_function(self, keys_cks05):
        async def scenario():
            async with LocalCluster({"coin": keys_cks05}) as cluster:
                client = cluster.client()
                value_before = await client.flip_coin("coin", b"epoch-test")
                old_shares = {
                    n.config.node_id: n.keys.get("coin").key_share.value
                    for n in cluster.nodes
                }
                group_key = await client.refresh_key("coin")
                assert group_key == keys_cks05.public_key.h.to_bytes()
                new_shares = {
                    n.config.node_id: n.keys.get("coin").key_share.value
                    for n in cluster.nodes
                }
                # Every share changed...
                assert all(
                    new_shares[i] != old_shares[i] for i in new_shares
                )
                # ...but the coin (a deterministic function of the secret)
                # is identical — same key, new shares.
                value_after = await client.flip_coin("coin", b"epoch-test")
                assert value_after == value_before

        asyncio.run(scenario())

    def test_repeated_refreshes(self, keys_cks05):
        async def scenario():
            async with LocalCluster({"coin": keys_cks05}) as cluster:
                client = cluster.client()
                for _ in range(3):
                    await client.refresh_key("coin")
                value = await client.flip_coin("coin", b"after-three")
                assert len(value) == 32

        asyncio.run(scenario())

    def test_refresh_sg02_key_keeps_old_ciphertexts_decryptable(self, keys_sg02):
        async def scenario():
            async with LocalCluster({"enc": keys_sg02}) as cluster:
                client = cluster.client()
                ciphertext = await client.encrypt("enc", b"pre-refresh secret", b"l")
                await client.refresh_key("enc")
                # Ciphertexts made before the refresh still decrypt: the
                # public key never changed.
                plaintext = await client.decrypt("enc", ciphertext, b"l")
                assert plaintext == b"pre-refresh secret"

        asyncio.run(scenario())

    def test_refresh_kg20_key(self, keys_kg20):
        async def scenario():
            async with LocalCluster({"wallet": keys_kg20}) as cluster:
                client = cluster.client()
                await client.refresh_key("wallet")
                signature = await client.sign("wallet", b"post-refresh")
                assert await client.verify_signature(
                    "wallet", b"post-refresh", signature
                )

        asyncio.run(scenario())

    def test_refresh_rejects_non_dl_schemes(self, keys_bls04):
        async def scenario():
            async with LocalCluster({"sig": keys_bls04}) as cluster:
                client = cluster.client()
                with pytest.raises(RpcError):
                    await client.refresh_key("sig")

        asyncio.run(scenario())


class TestReshareProtocolUnit:
    def test_non_dealers_send_nothing(self):
        from repro.core.protocols import ReshareProtocol

        group = get_group("ed25519")
        protocol = ReshareProtocol("ref", 4, 1, 4, group, current_share_value=5)
        assert not protocol.is_dealer
        assert protocol.do_round() == []

    def test_dealer_sends_directed_deals(self):
        from repro.core.protocols import ReshareProtocol

        group = get_group("ed25519")
        protocol = ReshareProtocol("ref", 1, 1, 4, group, current_share_value=5)
        assert protocol.is_dealer
        messages = protocol.do_round()
        assert sorted(m.recipient for m in messages) == [2, 3, 4]

    def test_deal_from_non_dealer_rejected(self):
        # A rogue non-dealer (party 3 in a t=1 refresh, dealers = {1, 2})
        # forges a deal; the receiver must reject it.
        from repro.core.protocols import ReshareProtocol
        from repro.errors import ProtocolError

        group = get_group("ed25519")
        receiver = ReshareProtocol("ref", 1, 1, 4, group, 5)
        receiver.do_round()
        rogue = ReshareProtocol("ref", 3, 1, 4, group, 7)
        rogue._dealers = (1, 3)  # pretends dealership it does not have
        forged = next(m for m in rogue.do_round() if m.recipient == 1)
        with pytest.raises(ProtocolError, match="not a refresh dealer"):
            receiver.update(forged)

    def test_mismatched_sender_rejected(self):
        from repro.core.messages import ProtocolMessage
        from repro.core.protocols import ReshareProtocol
        from repro.errors import ProtocolError

        group = get_group("ed25519")
        receiver = ReshareProtocol("ref", 3, 1, 4, group, 5)
        receiver.do_round()
        dealer = ReshareProtocol("ref", 1, 1, 4, group, 9)
        message = next(m for m in dealer.do_round() if m.recipient == 3)
        spoofed = ProtocolMessage(
            message.instance_id, 2, 0, message.channel, message.payload, 3
        )
        with pytest.raises(ProtocolError, match="sender"):
            receiver.update(spoofed)
