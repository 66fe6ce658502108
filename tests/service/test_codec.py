"""The v5 placement codec: one char per op, decoded straight to a memo key."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import MeasurementServer, RemoteBackend
from repro.service import protocol
from repro.service.protocol import ProtocolError
from repro.sim.backends import _placement_key

from .test_reconnect import _RawClient
from .test_service import _env, _placements, _wire


@pytest.fixture
def server():
    srv = MeasurementServer(_env(seed=99), port=0, workers=1).start()
    yield srv
    srv.close()


devices = st.lists(st.integers(0, 2**20 - 1), max_size=40)


def _over_the_wire(text):
    return json.loads(json.dumps(text))


class TestCodec:
    @settings(max_examples=300, deadline=None)
    @given(devices)
    def test_round_trip_is_the_memo_key(self, placement):
        text = protocol.encode_placement(_placement_key(placement))
        assert len(text) == len(placement)
        decoded = protocol.decode_placement(_over_the_wire(text), len(placement))
        assert decoded == _placement_key(placement)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_distinct_placements_give_distinct_strings(self, data):
        p = data.draw(devices)
        q = data.draw(st.lists(st.integers(0, 2**20 - 1), min_size=len(p), max_size=len(p)))
        encode = lambda x: protocol.encode_placement(_placement_key(x))  # noqa: E731
        assert (encode(p) == encode(q)) == (p == q)

    def test_devices_below_80_are_ascii(self):
        placement = list(range(80))
        line = json.dumps(protocol.encode_placement(_placement_key(placement)))
        assert line.isascii()
        # Quotes, one byte per op; JSON escapes "\\" (device 44) to two
        # bytes and DEL (device 79) to six.
        assert len(line) == 2 + 80 + 1 + 5
        assert protocol.encode_placement(_placement_key([0, 1, 2, 9])) == "0129"

    def test_the_wide_path_is_exact_at_its_edges(self):
        for device in (79, 80, 255, 256, 0xD800 - 0x31, 0xD800 - 0x30, protocol.MAX_DEVICE):
            placement = [device, 0, device]
            text = _over_the_wire(protocol.encode_placement(_placement_key(placement)))
            assert protocol.decode_placement(text, 3) == _placement_key(placement)

    @pytest.mark.parametrize("device", [-1, -300, protocol.MAX_DEVICE + 1, 2**31 - 1])
    def test_a_device_no_char_carries_cannot_be_encoded(self, device):
        with pytest.raises(ValueError, match="cannot travel"):
            protocol.encode_placement(_placement_key([0, device]))

    @pytest.mark.parametrize("text", ["01", "0120", "0/1", "01 ", "\ud80000", 12, None, [0, 1, 2]])
    def test_malformed_strings_are_protocol_errors(self, text):
        with pytest.raises(ProtocolError):
            protocol.decode_placement(text, 3)


class TestOnTheServer:
    def test_malformed_placements_get_a_protocol_error_reply(self, server):
        env = _env()
        good = _wire(_placements(env, 1))[0]
        bad = [good[:-1], good + "0", 7, "/" + good[1:], [0] * env.graph.num_ops]
        client = _RawClient(server)
        try:
            for batch, text in enumerate(bad):
                reply = client.request(
                    {"op": "evaluate_batch", "placements": [good, text], "batch": batch}
                )
                assert reply["ok"] is False and reply["kind"] == "protocol", reply
                assert reply["error"].startswith("bad placement")
            assert client.request({"op": "ping"})["ok"] is True  # still served
        finally:
            client.close()
        assert server.num_simulations == 0

    @pytest.mark.parametrize("device", [80, 255, 256, protocol.MAX_DEVICE])
    def test_out_of_range_devices_reach_the_simulator(self, server, device):
        placement = _placements(_env(), 1)[0]
        placement[3] = device
        client = _RawClient(server)
        try:
            [result] = client.submit_batch([placement], batch_id=0)
        finally:
            client.close()
        assert result["error"]["kind"] == "crash"
        assert "out of range" in result["error"]["message"]
        assert server.stats()["memo_entries"] == 0

    @pytest.mark.parametrize("device", [-1, 2**31 - 1])
    def test_the_client_refuses_before_any_io(self, server, device):
        env = _env()
        backend = RemoteBackend(env, server.address, timeout=10.0)

        def no_io():
            raise AssertionError("dialled the server")

        backend._borrow = no_io
        placement = _placements(env, 1)[0]
        placement[0] = device
        try:
            with pytest.raises(ValueError, match="cannot travel"):
                backend.evaluate_batch([placement])
            with pytest.raises(ValueError, match="cannot travel"):
                backend.prepare_batch([placement])
        finally:
            backend.close()
        assert env.num_evaluations == 0
        assert server.stats()["memo_misses"] == 0


def test_encoded_placements_are_what_the_server_memoises(server):
    env = _env(seed=5)
    placements = _placements(env, 4, seed=3)
    client = _RawClient(server)
    try:
        results = client.submit_batch(placements, batch_id=0)
    finally:
        client.close()
    assert all("raw" in r for r in results)
    memo = server.registry.snapshot()[0].memo
    assert all(memo.lookup(_placement_key(p)) is not None for p in placements)
