"""Closed-loop HTTP/1.1 load generator for the ``serve`` workload.

One thread drives every keep-alive connection through a selector: each
connection sends a request, waits for the whole response, checks it, and
only then sends its next one.  The server therefore never holds a backlog,
and with as many connections as cores it is saturated: the measured rate is
its capacity.  A single generator thread keeps the generator to one core
(no lock hand-offs between client threads).  Latency runs from just before
the send to the last body byte.
"""

from __future__ import annotations

import json
import selectors
import socket
import time
from typing import Any, List, Optional, Sequence, Tuple

#: Endpoint kinds of the request mix, by index.
KINDS = ("safe_vmin", "guardband", "fvm", "similarity")

#: Per kind: the keys naming the die (the asked-for serial must be among
#: their values) and the keys its JSON response must carry.
_SCHEMAS = {
    "safe_vmin": (("serial",), ("platform", "temperature_c", "safe_vmin_v", "undervolt_fraction")),
    "guardband": (("serial",), ("platform", "vmin_v", "vcrash_v", "guardband_fraction")),
    "fvm": (("serial",), ("platform", "n_brams", "statistics")),
    "similarity": (("serial_a", "serial_b"), ("platform", "rate_ratio", "count_correlation")),
}

#: One pre-generated request: kind index, wire bytes, expected die serial.
Request = Tuple[int, bytes, str]


def encode(path: str) -> bytes:
    """The wire form of a keep-alive GET."""
    return f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n".encode()


def valid(kind: int, body: bytes, serial: str) -> bool:
    """Whether a 200 body has the kind's schema and names the asked-for die."""
    serial_keys, keys = _SCHEMAS[KINDS[kind]]
    try:
        document = json.loads(body)
    except ValueError:
        return False
    return (
        isinstance(document, dict)
        and all(key in document for key in serial_keys + keys)
        and serial in (document[key] for key in serial_keys)
    )


class Connection:
    """One keep-alive connection speaking just enough HTTP/1.1."""

    def __init__(self, port: int, timeout_s: float = 30.0) -> None:
        self._sock = socket.create_connection(("127.0.0.1", port), timeout=timeout_s)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def close(self) -> None:
        self._sock.close()

    def fileno(self) -> int:
        return self._sock.fileno()

    def send(self, request: bytes) -> None:
        self._sock.sendall(request)

    def take_response(self) -> "Tuple[int, bytes] | None":
        """The next complete ``(status, body)`` already received, if any."""
        buffer = self._buffer
        end = buffer.find(b"\r\n\r\n")
        if end < 0:
            return None
        lines = buffer[:end].decode("latin-1").split("\r\n")
        lengths = [
            int(value)
            for name, _, value in (line.partition(":") for line in lines[1:])
            if name.strip().lower() == "content-length"
        ]
        if len(lengths) != 1:
            raise ValueError(f"response carries {len(lengths)} Content-Length headers")
        body_end = end + 4 + lengths[0]
        if len(buffer) < body_end:
            return None
        self._buffer = buffer[body_end:]
        return int(lines[0][9:12]), buffer[end + 4 : body_end]

    def receive_some(self) -> None:
        """Read whatever the server has sent (blocks until something arrives)."""
        chunk = self._sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buffer += chunk

    def exchange(self, request: bytes) -> Tuple[int, bytes]:
        """Send one request and return ``(status, body)``."""
        self.send(request)
        response = self.take_response()
        while response is None:
            self.receive_some()
            response = self.take_response()
        return response

    def get_json(self, path: str) -> Any:
        """GET ``path``; the decoded body of a 200, else :class:`ValueError`."""
        status, body = self.exchange(encode(path))
        if status != 200:
            raise ValueError(f"GET {path} answered {status}: {body[:200]!r}")
        return json.loads(body)


def closed_loop(
    port: int, requests: Sequence[Request], connections: int, timeout_s: float = 30.0
) -> Tuple[float, List[Optional[float]], int]:
    """Send every request over ``connections`` closed-loop connections.

    Connection ``k`` sends requests ``k, k + connections, ...``.  Returns
    the wall time, each request's latency and the number of failed
    requests, whose latency is ``None``: a non-200, a body off its schema,
    or every request a connection had left when it broke or went silent
    for ``timeout_s``.
    """
    latencies: List[Optional[float]] = [None] * len(requests)
    conns = [Connection(port, timeout_s) for _ in range(connections)]
    selector = selectors.DefaultSelector()
    clock = time.perf_counter
    began_at = [0.0] * connections
    current = list(range(connections))
    try:
        began = clock()
        for k, conn in enumerate(conns):
            if k < len(requests):
                selector.register(conn, selectors.EVENT_READ, k)
                began_at[k] = clock()
                conn.send(requests[k][1])
        while selector.get_map():
            ready = selector.select(timeout_s)
            if not ready:
                break
            for key, _ in ready:
                k = key.data
                conn = conns[k]
                try:
                    conn.receive_some()
                    response = conn.take_response()
                    if response is None:
                        continue
                    i = current[k]
                    elapsed = clock() - began_at[k]
                    kind, _, serial = requests[i]
                    if response[0] == 200 and valid(kind, response[1], serial):
                        latencies[i] = elapsed
                    current[k] = i + connections
                    if current[k] >= len(requests):
                        selector.unregister(key.fileobj)
                        continue
                    began_at[k] = clock()
                    conn.send(requests[current[k]][1])
                except (OSError, ValueError):
                    selector.unregister(key.fileobj)
        wall_s = clock() - began
    finally:
        selector.close()
        for conn in conns:
            conn.close()
    return wall_s, latencies, latencies.count(None)
