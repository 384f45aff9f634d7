"""Property tests: NetFlow record and v9 codec invariants."""

import ipaddress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.netflow.export import NetFlowExporter
from repro.netflow.collector import NetFlowCollector
from repro.netflow.records import FlowKey, NetFlowRecord, _int_to_addr
from repro.netflow.template import STANDARD_TEMPLATE
from repro.serialization import decode


def addrs():
    return st.integers(0, 2**32 - 1).map(
        lambda v: ".".join(str((v >> s) & 0xFF)
                           for s in (24, 16, 8, 0)))


def flow_keys():
    return st.builds(
        FlowKey,
        src_addr=addrs(), dst_addr=addrs(),
        src_port=st.integers(0, 65535),
        dst_port=st.integers(0, 65535),
        protocol=st.integers(0, 255))


def records():
    def build(key, packets, octets, start, duration, flags, hops,
              lost, rtt, jitter):
        return NetFlowRecord(
            router_id="r1", key=key,
            packets=packets, octets=octets,
            first_switched_ms=start,
            last_switched_ms=start + duration,
            tcp_flags=flags, hop_count=hops, lost_packets=lost,
            rtt_us=rtt, jitter_us=jitter)
    return st.builds(
        build,
        key=flow_keys(),
        packets=st.integers(0, 2**32 - 1),
        octets=st.integers(0, 2**32 - 1),
        start=st.integers(0, 2**31),
        duration=st.integers(0, 2**20),
        flags=st.integers(0, 255),
        hops=st.integers(0, 2**16 - 1),
        lost=st.integers(0, 2**32 - 1),
        rtt=st.integers(0, 2**32 - 1),
        jitter=st.integers(0, 2**32 - 1))


class TestFlowKeyProps:
    @given(flow_keys())
    def test_pack_unpack_identity(self, key):
        unpacked = FlowKey.unpack(key.pack())
        assert unpacked == key
        assert hash(unpacked) == hash(key)
        assert unpacked.pack() == key.pack()
        assert unpacked.to_bytes_key() == key.to_bytes_key()

    @given(st.one_of(
        st.sampled_from([0, 1, 0xFF, 0x100, 0xFFFF, 0x1_0000, 0xFF_FFFF,
                         0x100_0000, 0x7F00_0001, 0x8000_0000,
                         2**32 - 1]),
        st.integers(0, 2**32 - 1)))
    def test_int_to_addr_matches_ipaddress(self, value):
        assert _int_to_addr(value) == str(ipaddress.IPv4Address(value))

    @pytest.mark.parametrize("addr", [
        "01.2.3.4",      # leading zero
        "1.2.3.256",     # octet out of range
        "1.2.3",         # three octets
        " 1.2.3.4",      # whitespace
        "1.2.3.4 ",
        "1.2.3.4.5",
        "",
    ])
    def test_invalid_address_still_rejected(self, addr):
        with pytest.raises(ConfigurationError):
            FlowKey(addr, "10.0.0.1", 1, 2, 6)
        with pytest.raises(ConfigurationError):
            FlowKey("10.0.0.1", addr, 1, 2, 6)

    @given(flow_keys())
    def test_double_reverse_identity(self, key):
        assert key.reversed().reversed() == key

    @given(flow_keys(), flow_keys())
    def test_pack_injective(self, a, b):
        if a.pack() == b.pack():
            assert a == b


class TestRecordProps:
    @given(records())
    @settings(max_examples=150)
    def test_canonical_bytes_roundtrip(self, record):
        assert NetFlowRecord.from_wire(
            decode(record.to_bytes())) == record

    @given(records(), records())
    def test_digest_injective(self, a, b):
        if a.digest() == b.digest():
            assert a.to_bytes() == b.to_bytes()

    @given(records())
    def test_loss_rate_bounded(self, record):
        assert 0.0 <= record.loss_rate <= 1.0


class TestV9CodecProps:
    @given(records())
    @settings(max_examples=150)
    def test_template_codec_roundtrip(self, record):
        data = STANDARD_TEMPLATE.encode_record(record)
        decoded = STANDARD_TEMPLATE.decode_record(data,
                                                  router_id="r1")
        # All fields that fit their wire widths must survive exactly.
        assert decoded.key == record.key
        assert decoded.packets == record.packets % 2**32
        assert decoded.octets == record.octets % 2**32
        assert decoded.tcp_flags == record.tcp_flags
        assert decoded.hop_count == record.hop_count % 2**16
        assert decoded.lost_packets == record.lost_packets % 2**32
        assert decoded.rtt_us == record.rtt_us % 2**32

    @given(st.lists(records(), min_size=1, max_size=40),
           st.integers(1, 10))
    @settings(max_examples=60)
    def test_export_collect_preserves_stream(self, batch, per_packet):
        exporter = NetFlowExporter(source_id=5,
                                   max_records_per_packet=per_packet)
        collector = NetFlowCollector()
        received = []
        for packet in exporter.export(batch):
            received.extend(collector.ingest(packet, router_id="r1"))
        assert len(received) == len(batch)
        for sent, got in zip(batch, received):
            assert got.key == sent.key
            assert got.packets == sent.packets % 2**32
