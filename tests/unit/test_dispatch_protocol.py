"""Unit tests for the length-prefixed JSON framing layer, and for how the
daemon polices the typed fields inside well-formed frames."""

from __future__ import annotations

import json
import socket
import struct
import threading

import pytest

from repro.dispatch.daemon import FleetConfig, FleetDaemon
from repro.dispatch.journal import journal_path
from repro.dispatch.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    is_index,
    recv_frame,
    send_frame,
)
from repro.errors import ProtocolError
from repro.experiments.config import ColumnConfig
from repro.experiments.sweep import SweepPoint, SweepSpec, spec_artifact
from repro.workloads.synthetic import PerfectClusterWorkload


@pytest.fixture()
def pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


class TestRoundTrip:
    def test_simple_frame_round_trips(self, pair) -> None:
        left, right = pair
        payload = {"type": "hello", "worker": "w1", "protocol": PROTOCOL_VERSION}
        send_frame(left, payload)
        assert recv_frame(right) == payload

    def test_unicode_and_nesting_survive(self, pair) -> None:
        left, right = pair
        payload = {"type": "result", "data": {"π": [1.5, None, "héllo"], "n": -3}}
        send_frame(left, payload)
        assert recv_frame(right) == payload

    def test_float_values_are_exact(self, pair) -> None:
        left, right = pair
        values = [0.1 + 0.2, 1e-17, 3.141592653589793, 2**53 + 1.0]
        send_frame(left, {"values": values})
        received = recv_frame(right)["values"]
        assert [v.hex() for v in received] == [v.hex() for v in values]

    def test_many_frames_in_flight_keep_boundaries(self, pair) -> None:
        left, right = pair
        for index in range(20):
            send_frame(left, {"seq": index})
        for index in range(20):
            assert recv_frame(right) == {"seq": index}

    def test_large_frame_round_trips(self, pair) -> None:
        left, right = pair
        payload = {"series": [{"t": float(i), "v": i / 7} for i in range(5000)]}
        writer = threading.Thread(target=send_frame, args=(left, payload))
        writer.start()
        assert recv_frame(right) == payload
        writer.join()

    def test_clean_eof_returns_none(self, pair) -> None:
        left, right = pair
        left.close()
        assert recv_frame(right) is None


class TestMalformedFrames:
    def test_zero_length_rejected(self, pair) -> None:
        left, right = pair
        left.sendall(struct.pack(">I", 0))
        with pytest.raises(ProtocolError, match="zero-length"):
            recv_frame(right)

    def test_oversized_length_rejected_without_allocating(self, pair) -> None:
        left, right = pair
        left.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(ProtocolError, match="exceeds"):
            recv_frame(right)

    def test_truncated_body_rejected(self, pair) -> None:
        left, right = pair
        body = json.dumps({"type": "x"}).encode()
        left.sendall(struct.pack(">I", len(body) + 10) + body)
        left.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            recv_frame(right)

    def test_truncated_header_rejected(self, pair) -> None:
        left, right = pair
        left.sendall(b"\x00\x00")
        left.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            recv_frame(right)

    def test_non_json_body_rejected(self, pair) -> None:
        left, right = pair
        body = b"\xff\xfenot json"
        left.sendall(struct.pack(">I", len(body)) + body)
        with pytest.raises(ProtocolError, match="undecodable"):
            recv_frame(right)

    def test_non_object_json_rejected(self, pair) -> None:
        left, right = pair
        body = json.dumps([1, 2, 3]).encode()
        left.sendall(struct.pack(">I", len(body)) + body)
        with pytest.raises(ProtocolError, match="JSON objects"):
            recv_frame(right)

    def test_sending_non_dict_rejected(self, pair) -> None:
        left, _ = pair
        with pytest.raises(ProtocolError, match="JSON objects"):
            send_frame(left, [1, 2, 3])


class TestIntegerFields:
    """JSON ``true``/``false`` arrive as ``bool``, an ``int`` subclass: a bare
    ``isinstance(x, int)`` would file a result under key ``True``."""

    def test_is_index_refuses_booleans(self) -> None:
        assert is_index(0) and is_index(7) and is_index(-1)
        assert not is_index(True) and not is_index(False)
        assert not is_index(1.0) and not is_index("1") and not is_index(None)

    @pytest.fixture()
    def journaled_daemon(self, tmp_path):
        daemon = FleetDaemon(FleetConfig(journal_dir=str(tmp_path)))
        daemon.config.secret = None  # never pick up the test environment's
        daemon.start()
        try:
            yield daemon
        finally:
            daemon.shutdown()

    @staticmethod
    def spec() -> SweepSpec:
        return SweepSpec(
            name="typed",
            points=[
                SweepPoint(
                    label=f"col{index}",
                    config=ColumnConfig(seed=index, duration=0.4, warmup=0.2),
                    workload=PerfectClusterWorkload(n_objects=40, cluster_size=4),
                )
                for index in range(2)
            ],
        )

    @staticmethod
    def exchange(daemon, role: str, frame: dict) -> dict:
        with socket.create_connection(daemon.address, timeout=10.0) as sock:
            send_frame(
                sock,
                {
                    "type": "hello",
                    "role": role,
                    "worker": "typed-peer",
                    "protocol": PROTOCOL_VERSION,
                },
            )
            assert recv_frame(sock)["type"] == "welcome"
            send_frame(sock, frame)
            return recv_frame(sock)

    @pytest.mark.parametrize("index", [True, False])
    def test_boolean_result_index_refused(self, journaled_daemon, index) -> None:
        entry = journaled_daemon.submit(self.spec())
        reply = self.exchange(
            journaled_daemon,
            "worker",
            {
                "type": "result",
                "sweep": entry.name,
                "index": index,
                "result": {"kind": "column", "payload": {}},
            },
        )
        assert reply["type"] == "error" and reply["code"] == "protocol"
        assert "bad index" in reply["message"]
        assert journaled_daemon.queue.results_for(entry.name) == {}
        path = journal_path(journaled_daemon.config.journal_dir, entry.name)
        with open(path, encoding="utf-8") as handle:
            assert len(handle.readlines()) == 1  # the header, no point line

    def test_boolean_submit_priority_refused(self, journaled_daemon, tmp_path) -> None:
        reply = self.exchange(
            journaled_daemon,
            "submitter",
            {
                "type": "submit",
                "sweep": "typed",
                "priority": True,
                "spec": spec_artifact(self.spec()),
            },
        )
        assert reply["type"] == "error" and reply["code"] == "protocol"
        assert "priority" in reply["message"]
        assert journaled_daemon.queue.names() == []
        assert list(tmp_path.iterdir()) == []
