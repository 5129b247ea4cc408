"""Self-tests of the benchmark's own machinery, at a tiny size.

    python3 perfbench/selftest.py

* self-time arithmetic on a synthetic span tree;
* a flipped byte in a stored row fails the digest check;
* a tampered ``/ask`` answer counts as failed;
* a deliberately late generator shows up in its lateness figures.
"""

from __future__ import annotations

import asyncio
import json
import random
import tempfile
import time
import unittest
from pathlib import Path

import askzipf
import checks
import loadgen
from common import percentile, use_checkout_source
from tracer import aggregate


class SelfTime(unittest.TestCase):
    def test_children_overlap_and_overhang(self):
        spans = [
            # name, start, end, id, parent, pid, request, attrs
            ["root", 0.0, 10.0, "1:1", None, 1, None, None],
            ["a", 1.0, 4.0, "1:2", "1:1", 1, None, None],
            ["b", 3.0, 6.0, "1:3", "1:1", 1, None, None],  # overlaps a
            ["leaf", 2.0, 3.0, "1:4", "1:2", 1, None, None],
            ["late", 9.0, 12.0, "1:5", "1:1", 1, None, None],  # overhangs root
            ["root", 0.0, 2.0, "2:1", None, 2, None, None],  # another process
        ]
        table = aggregate(spans)
        # root 1: 10 s minus the union [1, 6] + [9, 10] = 4 s.
        self.assertAlmostEqual(table["root"]["self_s"], 4.0 + 2.0)
        self.assertAlmostEqual(table["root"]["s"], 12.0)
        self.assertAlmostEqual(table["a"]["self_s"], 2.0)
        self.assertAlmostEqual(table["b"]["self_s"], 3.0)
        self.assertAlmostEqual(table["leaf"]["self_s"], 1.0)
        self.assertEqual(table["leaf"]["items"][0]["parent_name"], "a")


class Digests(unittest.TestCase):
    def test_flipped_byte_fails(self):
        use_checkout_source()
        from repro.store import ResultStore
        from repro.store.keys import ROW_KIND, cache_key

        with tempfile.TemporaryDirectory() as root:
            store = ResultStore(root)
            for side in (256.0, 1024.0):
                base = side ** 0.5
                store.put(
                    cache_key(ROW_KIND, {"selftest": side}),
                    {"rstationary": 2 * base, "r0": base, "r10": 1.2 * base,
                     "r90": 1.9 * base, "r100": 2.4 * base},
                    kind=ROW_KIND,
                )
            shipped = checks.entry_digests(Path(root))
            self.assertEqual(checks.check_store(Path(root), 2, shipped)[:2], (2, 0))
            self.assertEqual(checks.check_store(Path(root), 2, None)[:2], (2, 0))
            payload = sorted(Path(root).glob("objects/*/*/data.json"))[0]
            data = bytearray(payload.read_bytes())
            data[data.index(b".") + 1] ^= 0x01  # one digit of one threshold
            payload.write_bytes(bytes(data))
            checked, failed, problems = checks.check_store(Path(root), 2, shipped)
            self.assertEqual((checked, failed), (2, 1), problems)

    def test_disordered_row_fails_structure(self):
        self.assertIsNone(checks.row_problem(
            {"rstationary": 2.0, "r0": 1.0, "r10": 1.0, "r90": 2.0, "r100": 3.0}
        ))
        self.assertIsNotNone(checks.row_problem(
            {"rstationary": 2.0, "r0": 1.5, "r10": 1.0, "r90": 2.0, "r100": 3.0}
        ))


def _correct_answer(query: dict) -> dict:
    document = query["document"]
    row = query["rows"][0]
    if "knot" in query:
        value = row[query["knot"]]
    elif "probability" in document:
        value = checks.reference_range(row, document["probability"])
    else:
        value = checks.reference_probability(row, document["range"])
    return {"value": value, "model": document["model"], "source": "exact",
            "refine": False}


async def _fake_server(answer: dict):
    """An ``/ask`` endpoint that always replies with ``answer``."""
    body = json.dumps(answer).encode("utf-8")

    async def handle(reader, writer):
        await reader.readuntil(b"\r\n\r\n")
        writer.write(
            b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\nConnection: close\r\n\r\n"
            % len(body) + body
        )
        await writer.drain()
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    return server, f"http://{host}:{port}"


class Answers(unittest.TestCase):
    def setUp(self):
        rows = askzipf.make_rows(7, ["waypoint"])
        stream = askzipf.query_stream(7, rows)
        self.query = next(q for q in stream if q["kind"] == "exact" and "knot" in q)

    def test_reference_answer_passes(self):
        self.assertIsNone(checks.answer_problem(self.query, _correct_answer(self.query)))

    def test_tampered_answer_counts_failed(self):
        answer = _correct_answer(self.query)
        answer["value"] = answer["value"] * (1 + 2 ** -52)  # one ulp off
        self.assertIsNotNone(checks.answer_problem(self.query, answer))

        async def ask():
            server, url = await _fake_server(answer)
            async with server:
                stats = loadgen.PhaseStats()
                target = loadgen.Target(url, checks.answer_problem)
                await target.ask(self.query, stats)
                return stats

        stats = asyncio.run(ask())
        self.assertEqual((stats.attempted, stats.failed), (1, 1), stats.problems)

    def test_missing_refine_flag_fails_off_grid(self):
        query = {"kind": "off", "rows": self.query["rows"],
                 "document": {**self.query["document"], "side": 24000.0}}
        answer = {**_correct_answer(self.query), "source": "extrapolated"}
        self.assertIsNotNone(checks.answer_problem(query, answer))
        answer["refine"] = True
        self.assertIsNone(checks.answer_problem(query, answer))


class Lateness(unittest.TestCase):
    def _late_p99(self, stall) -> float:
        async def drive():
            server, url = await _fake_server({})
            async with server:
                target = loadgen.Target(url, lambda query, answer: None)
                queries = [{"document": {}} for _ in range(100)]
                return await loadgen.open_loop(
                    target, queries, 200.0, random.Random(1), stall=stall
                )

        stats = asyncio.run(drive())
        self.assertEqual(stats.failed, 0, stats.problems)
        return percentile(stats.late_ms, 0.99)

    def test_late_generator_shows(self):
        stalled = self._late_p99(lambda index: time.sleep(0.06) if index % 10 == 0 else None)
        steady = self._late_p99(None)
        self.assertGreater(stalled, 50.0)
        self.assertLess(steady, stalled)


if __name__ == "__main__":
    unittest.main()
