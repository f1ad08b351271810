"""Property tests: software partitioning agrees with hardware RSS.

The sharded serving path stands on one fact: :func:`repro.apps.steering.
key_partition`, :func:`repro.hw.nic.rss_queue_for_flow`, and the NIC's
in-datapath :meth:`~repro.hw.nic.DpdkNic._rss_queue` all apply the same
hash.  If any pair ever disagreed, a flow could land on one shard while
its keys belong to another - silent cross-shard traffic.  Hypothesis
hunts for a disagreeing (ips, ports, queue count) tuple, and a seeded
end-to-end run pins the qtoken lifecycle identity per shard after a
lossy (chaos) run.
"""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.steering import key_partition
from repro.hw.nic import rss_hash, rss_queue_for_flow
from repro.netstack.packet import ip_to_bytes
from repro.testbed import World

octets = st.integers(min_value=0, max_value=255)
ips = st.builds("%d.%d.%d.%d".__mod__,
                st.tuples(octets, octets, octets, octets))
ports = st.integers(min_value=1, max_value=65535)
queue_counts = st.integers(min_value=1, max_value=16)


def make_ipv4_frame(src_ip, dst_ip, src_port, dst_port):
    """The smallest frame whose RSS-relevant bytes are all real.

    Ethernet header (14B, ethertype 0x0800) + IPv4 header up to the
    addresses (12B) + src/dst IP (8B) + src/dst port (4B) = 38 bytes,
    exactly the prefix ``DpdkNic._rss_queue`` hashes over.
    """
    return (b"\x00" * 12 + b"\x08\x00" + b"\x00" * 12
            + ip_to_bytes(src_ip) + ip_to_bytes(dst_ip)
            + struct.pack("!HH", src_port, dst_port))


def make_nic(n_queues):
    w = World()
    host = w.add_host("h")
    return w.add_dpdk(host, mac="02:00:00:00:99:01", n_rx_queues=n_queues)


class TestRssMatchesFlowHelper:
    @given(src_ip=ips, dst_ip=ips, src_port=ports, dst_port=ports,
           n_queues=queue_counts)
    @settings(max_examples=100, deadline=None)
    def test_nic_datapath_agrees_with_helper(self, src_ip, dst_ip,
                                             src_port, dst_port, n_queues):
        nic = make_nic(n_queues)
        frame = make_ipv4_frame(src_ip, dst_ip, src_port, dst_port)
        assert nic._rss_queue(frame) == rss_queue_for_flow(
            src_ip, dst_ip, src_port, dst_port, n_queues)

    @given(src_ip=ips, dst_ip=ips, src_port=ports, dst_port=ports,
           n_queues=queue_counts, padding=st.integers(0, 64))
    @settings(max_examples=50, deadline=None)
    def test_payload_never_changes_the_queue(self, src_ip, dst_ip,
                                             src_port, dst_port, n_queues,
                                             padding):
        nic = make_nic(n_queues)
        frame = make_ipv4_frame(src_ip, dst_ip, src_port, dst_port)
        assert nic._rss_queue(frame + b"\xff" * padding) == \
            nic._rss_queue(frame)

    @given(frame=st.binary(max_size=37), n_queues=queue_counts)
    @settings(max_examples=50, deadline=None)
    def test_short_or_non_ip_frames_hit_queue_zero(self, frame, n_queues):
        # ARP and runt frames must be deterministic, not hash garbage.
        nic = make_nic(n_queues)
        assert nic._rss_queue(frame) == 0


class TestKeyPartition:
    @given(key=st.binary(min_size=1, max_size=64), n=queue_counts)
    @settings(max_examples=200, deadline=None)
    def test_in_range_and_same_hash_as_rss(self, key, n):
        p = key_partition(key, n)
        assert 0 <= p < n
        assert p == (rss_hash(key) % n if n > 1 else 0)

    @given(key=st.binary(min_size=1, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_single_partition_owns_everything(self, key):
        assert key_partition(key, 1) == 0


class TestQtokenIdentityAfterShardedChaos:
    @given(seed=st.integers(min_value=0, max_value=2**16),
           loss_rate=st.floats(min_value=0.0, max_value=0.05,
                               allow_nan=False))
    @settings(max_examples=8, deadline=None)
    def test_identity_holds_per_shard(self, seed, loss_rate):
        from tests.cluster.test_sharded import run_sharded

        _, server, _ = run_sharded(n_shards=2, n_ops=12,
                                   loss_rate=loss_rate, seed=seed)
        assert sum(server.per_shard_requests()) == 2 * 12
        assert server.wasted_wakeups == 0
        assert server.cross_wakeups == 0
        for shard in server.shards:
            t = shard.libos.qtokens
            assert t.created == t.completed + t.cancelled + t.in_flight
