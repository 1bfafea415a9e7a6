"""Closed-loop HTTP load client that keeps a digest, not the body.

``repro.serve.replay.replay`` keeps every parsed response body; at a few
thousand requests with answers of hundreds of kilobytes that is gigabytes
of client memory, and its allocation and collection would show in the
server's latency tail and in the peak RSS the benchmark reports.  This
client keeps, per response, the status, the latency, the ``serving``
block and a sha256 of the answer bytes, and drops the rest.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

#: The query server splices its cached answer JSON after this marker, as
#: the last member of the response object.
_ANSWER_MARK = b',"answer":'
#: Start offset between consecutive connections (longer than the
#: server's default 4 ms coalescing window).
STAGGER_S = 0.02


@dataclass
class Outcome:
    index: int
    status: int
    latency_s: float
    nbytes: int
    serving: Dict[str, Any]
    #: sha256 of the answer JSON bytes; ``None`` unless a complete answer.
    digest: Optional[str]


def parse_response(status: int, payload: bytes) -> tuple:
    """``(serving block, answer digest)`` of one response body."""
    if status == 200:
        cut = payload.find(_ANSWER_MARK)
        if cut >= 0:
            envelope = json.loads(payload[:cut] + b"}")
            answer = payload[cut + len(_ANSWER_MARK):-1]
            return envelope.get("serving", {}), hashlib.sha256(answer).hexdigest()
    # Error bodies, and partial answers (rendered inline, never cached),
    # are small: parse them whole.
    try:
        body = json.loads(payload)
    except ValueError:
        return {}, None
    return body.get("serving", {}), None


class Connection:
    """One persistent HTTP/1.1 connection."""

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self.host, self.port, self.timeout = host, port, timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def _open(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._conn.connect()
            self._conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return self._conn

    def get(self, path: str) -> int:
        conn = self._open()
        conn.request("GET", path)
        response = conn.getresponse()
        response.read()
        return response.status

    def post(self, index: int, document: Dict[str, Any]) -> Outcome:
        body = json.dumps(document)
        start = time.perf_counter()
        try:
            conn = self._open()
            conn.request(
                "POST", "/query", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = response.read()
            status = response.status
        except (http.client.HTTPException, OSError):
            # A transport failure counts as a failed operation; the next
            # request opens a fresh connection.
            self.close()
            return Outcome(index, 599, time.perf_counter() - start, 0, {}, None)
        latency = time.perf_counter() - start
        serving, digest = parse_response(status, payload)
        return Outcome(index, status, latency, len(payload), serving, digest)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def closed_loop(
    host: str,
    port: int,
    requests: Sequence[Dict[str, Any]],
    connections: int,
    seconds: float,
) -> List[Outcome]:
    """Send ``requests`` in order from ``connections`` closed-loop
    connections until ``seconds`` have passed; returns every outcome.

    Each connection sends its next request only after the previous
    answer arrived.  Requests are taken in sequence order from a shared
    cursor (wrapping around at the end).  Connection ``i`` starts
    ``i * STAGGER_S`` late, as clients of a fresh server do; started
    together, the first two requests would always share one coalesced
    batch, and the cold path would never be measured.
    """
    lock = threading.Lock()
    cursor = [0]
    outcomes: List[Outcome] = []
    deadline = time.perf_counter() + seconds

    def worker(delay: float) -> None:
        time.sleep(delay)
        connection = Connection(host, port)
        done: List[Outcome] = []
        try:
            while time.perf_counter() < deadline:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                done.append(connection.post(index, requests[index % len(requests)]))
        finally:
            connection.close()
            with lock:
                outcomes.extend(done)

    threads = [
        threading.Thread(
            target=worker, args=(i * STAGGER_S,), name=f"perfbench-client-{i}"
        )
        for i in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    outcomes.sort(key=lambda outcome: outcome.index)
    return outcomes
