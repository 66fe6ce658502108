"""The v6 ``evaluate_batch`` reply: one line per ready set of results.

The ack carries every result known at submit time (memo hits, replays),
each later line carries what landed since the one before, and tickets
still open at the request deadline go out as one last line of
``deadline`` errors.  Workers are parked on an event wherever a test needs
a result to land after the ack, so no assertion rests on timing.
"""

import socket
import threading

import pytest

from repro import MeasurementServer, RemoteBackend
from repro.service import protocol
from repro.service.protocol import ProtocolError

from .test_reconnect import _occupy_workers, _RawClient
from .test_service import _env, _placements, _wire


@pytest.fixture
def server():
    srv = MeasurementServer(_env(seed=99), port=0, workers=2).start()
    yield srv
    srv.close()


def _tickets(line):
    return [item["ticket"] for item in line["results"]]


class TestReplyLines:
    def test_an_all_hit_batch_is_one_line(self, server):
        placements = _placements(_env(), 6, seed=1)
        client = _RawClient(server)
        try:
            client.submit_batch(placements, batch_id=0)  # warm the memo
            lines = client.submit_lines(placements, batch_id=1)
        finally:
            client.close()
        assert len(lines) == 1
        [ack] = lines
        assert ack["tickets"] == list(range(6))
        assert _tickets(ack) == list(range(6))
        assert all(item["cached"] is True for item in ack["results"])
        assert not any("replayed" in item for item in ack["results"])
        assert server.num_simulations == 6

    def test_a_mixed_batch_acks_its_hits_and_streams_the_rest(self, server):
        warm = _placements(_env(), 2, seed=2)
        fresh = _placements(_env(), 3, seed=3)
        batch = [warm[0], fresh[0], warm[1], fresh[1], fresh[2]]
        client = _RawClient(server)
        release = threading.Event()
        try:
            client.submit_batch(warm, batch_id=0)
            release = _occupy_workers(server, server.workers)
            ack = client.request(
                {"op": "evaluate_batch", "placements": _wire(batch), "batch": 1}
            )
            release.set()
            assert ack["ok"] and ack["tickets"] == list(range(5))
            assert _tickets(ack) == [0, 2]
            assert all(item["cached"] is True for item in ack["results"])
            streamed = []
            while len(streamed) < 3:
                line = client.recv()
                assert line["ok"] and "tickets" not in line
                streamed += line["results"]
        finally:
            release.set()
            client.close()
        tickets = _tickets(ack) + [item["ticket"] for item in streamed]
        assert sorted(tickets) == list(range(5))  # each ticket exactly once
        assert {item["ticket"] for item in streamed} == {1, 3, 4}
        assert all(item["cached"] is False and "raw" in item for item in streamed)

    def test_a_deadline_expiry_is_one_line_of_errors(self):
        server = MeasurementServer(
            _env(seed=99), port=0, workers=1, request_deadline=0.2
        ).start()
        warm, fresh = _placements(_env(), 1, seed=4), _placements(_env(), 2, seed=5)
        client = _RawClient(server)
        release = None
        try:
            client.submit_batch(warm, batch_id=0)
            release = _occupy_workers(server, 1)
            lines = client.submit_lines(warm + fresh, batch_id=1)
            assert client.request({"op": "ping"})["ok"]  # nothing else was sent
        finally:
            if release is not None:
                release.set()
            client.close()
            server.close()
        assert len(lines) == 2
        ack, late = lines
        assert _tickets(ack) == [0] and ack["results"][0]["cached"] is True
        assert _tickets(late) == [1, 2]
        assert all(item["error"]["kind"] == "deadline" for item in late["results"])

    def test_a_replay_after_reconnect_is_one_line_marked_replayed(self, server):
        placements = _placements(_env(), 4, seed=6)
        first = _RawClient(server)
        try:
            results = first.submit_batch(placements, batch_id=3)
        finally:
            first.close()
        second = _RawClient(server)
        try:
            assert second.request({"op": "resume", "session": first.session})["ok"]
            lines = second.submit_lines(placements, batch_id=3)
        finally:
            second.close()
        assert len(lines) == 1
        replayed = lines[0]["results"]
        assert all(item["replayed"] is True for item in replayed)
        by_ticket = lambda items: {i["ticket"]: i["raw"] for i in items}  # noqa: E731
        assert by_ticket(replayed) == by_ticket(results)
        assert server.num_simulations == 4


# ---------------------------------------------------------------------- #
_RAW = {"base_time": 1.0, "oom_detail": None}


def _item(ticket):
    return {"ticket": ticket, "raw": _RAW, "cached": True}


class TestClientRefusesBadReplies:
    """A scripted server answers one two-placement batch with bad lines;
    the client must raise :class:`ProtocolError` and drop the connection."""

    @pytest.mark.parametrize("lines", [
        pytest.param([{"ok": True, "tickets": [0, 1], "results": [_item(0), _item(0)]}],
                     id="duplicate-in-one-line"),
        pytest.param([{"ok": True, "tickets": [0, 1], "results": [_item(0)]},
                      {"ok": True, "results": [_item(0), _item(1)]}],
                     id="duplicate-across-lines"),
        pytest.param([{"ok": True, "tickets": [0, 1], "results": [_item(2)]}],
                     id="unknown-ticket"),
        pytest.param([{"ok": True, "tickets": [0, 1], "results": [{"raw": _RAW}]}],
                     id="item-without-ticket"),
        pytest.param([{"ok": True, "tickets": [0, 1], "results": [0, 1]}],
                     id="item-not-an-object"),
        pytest.param([{"ok": True, "tickets": [0, 1]}],
                     id="ack-without-results"),
        pytest.param([{"ok": True, "tickets": [0, 1], "results": [_item(0)]},
                      {"ok": True}],
                     id="line-without-results"),
        pytest.param([{"ok": True, "tickets": [0, 1], "results": {"0": _RAW}}],
                     id="results-not-a-list"),
        pytest.param([{"ok": True, "tickets": [0, 1],
                       "results": [{"ticket": 0, "error": "boom"}, _item(1)]}],
                     id="error-not-an-object"),
    ])
    def test_bad_reply_is_a_protocol_error(self, lines):
        listener = socket.create_server(("127.0.0.1", 0))

        def serve_one_batch():
            conn, _ = listener.accept()
            with conn:
                rfile, wfile = conn.makefile("rb"), conn.makefile("wb")
                protocol.read_message(rfile)  # hello
                protocol.write_message(wfile, {"ok": True, "session": "s1"})
                protocol.read_message(rfile)  # evaluate_batch
                for line in lines:
                    protocol.write_message(wfile, line)
                protocol.read_message(rfile)  # until the client hangs up

        thread = threading.Thread(target=serve_one_batch, daemon=True)
        thread.start()
        env = _env()
        address = f"127.0.0.1:{listener.getsockname()[1]}"
        try:
            backend = RemoteBackend(env, address, timeout=5.0, reconnect_attempts=0)
            with pytest.raises(ProtocolError):
                backend.evaluate_batch(_placements(env, 2, seed=7))
            assert backend._idle == []  # the connection was closed, not pooled
            thread.join(timeout=5.0)
            assert not thread.is_alive()
            backend.close()
        finally:
            listener.close()
        assert env.num_evaluations == 0  # nothing was committed
