"""Output checks: stored-row digests, row structure, ``/ask`` answers.

Campaign outputs are checked entry by entry.  For a seed whose digests
ship in ``digests.json`` every stored entry (its key, kind and payload
bytes) must match bit for bit — the repository's contract of identical
keys and row bytes for every execution mode.  Any other seed gets
structural checks: the expected number of rows, finite positive
thresholds, ``r0 <= r10 <= r90 <= r100`` on system-size rows.

``/ask`` answers are checked against the rows the benchmark itself
stored: exact-grid answers at the surrogate's knots must equal the
stored threshold bit for bit, other exact-grid answers must match an
independent piecewise-linear reference, interpolated answers must lie
inside the bracket their two grid neighbours give, and off-grid answers
must carry ``refine=true``.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import BENCH

DIGESTS_FILE = BENCH / "digests.json"
ROW_KIND = "sweep-row"

#: (row column, connectivity probability) knots of the query surrogate.
KNOTS: Tuple[Tuple[str, float], ...] = (
    ("r0", 0.0), ("r10", 0.1), ("r90", 0.9), ("r100", 1.0),
)
#: Relative slack for answers that are not bit-exact by contract.
TOLERANCE = 1e-9


# ---------------------------------------------------------------------- #
# Campaign store
# ---------------------------------------------------------------------- #
def entry_digests(store_root: Path) -> Dict[str, str]:
    """``{key: digest}`` of every entry, hashing its kind and payload bytes."""
    digests: Dict[str, str] = {}
    for header_path in sorted((Path(store_root) / "objects").glob("*/*/entry.json")):
        header = json.loads(header_path.read_text(encoding="utf-8"))
        payload = (header_path.parent / header["payload_file"]).read_bytes()
        digest = hashlib.sha256(header["kind"].encode("utf-8") + b"\0" + payload)
        digests[header_path.parent.name] = digest.hexdigest()[:32]
    return digests


def stored_rows(store_root: Path) -> Dict[str, dict]:
    """``{key: row}`` of every sweep-row entry."""
    rows: Dict[str, dict] = {}
    for header_path in sorted((Path(store_root) / "objects").glob("*/*/entry.json")):
        header = json.loads(header_path.read_text(encoding="utf-8"))
        if header["kind"] == ROW_KIND:
            payload = (header_path.parent / header["payload_file"]).read_bytes()
            rows[header_path.parent.name] = json.loads(payload)["row"]
    return rows


def row_problem(row: dict) -> Optional[str]:
    """Why ``row`` is not a plausible threshold row, or ``None``."""
    for column in ("rstationary", "r100"):
        value = row.get(column)
        if not isinstance(value, float) or not math.isfinite(value) or value <= 0:
            return f"{column}={value!r} is not a finite positive float"
    if "r0" in row:
        chain = [row.get(column) for column, _ in KNOTS]
        if not all(isinstance(v, float) and math.isfinite(v) for v in chain):
            return f"non-finite thresholds {chain}"
        if not chain[0] <= chain[1] <= chain[2] <= chain[3]:
            return f"thresholds out of order {chain}"
    return None


def load_shipped(workload: str, seed: int) -> Optional[Dict[str, str]]:
    if not DIGESTS_FILE.is_file():
        return None
    shipped = json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))
    return shipped.get(workload, {}).get(str(seed))


def check_store(
    store_root: Path, expected_rows: int, shipped: Optional[Dict[str, str]]
) -> Tuple[int, int, List[str]]:
    """``(checked, failed, problems)`` for one campaign's store.

    With shipped digests every entry is checked; otherwise every row.
    """
    problems: List[str] = []
    if shipped is not None:
        digests = entry_digests(store_root)
        keys = sorted(set(digests) | set(shipped))
        for key in keys:
            if digests.get(key) != shipped.get(key):
                problems.append(
                    f"entry {key[:12]}: digest {digests.get(key)} != shipped "
                    f"{shipped.get(key)}"
                )
        return len(keys), len(problems), problems
    rows = stored_rows(store_root)
    for key, row in rows.items():
        problem = row_problem(row)
        if problem is not None:
            problems.append(f"row {key[:12]}: {problem}")
    failed = len(problems) + abs(expected_rows - len(rows))
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} rows stored, {expected_rows} expected")
    return max(expected_rows, len(rows)), failed, problems


# ---------------------------------------------------------------------- #
# /ask answers
# ---------------------------------------------------------------------- #
def reference_range(row: dict, probability: float) -> float:
    """Smallest range reaching ``probability`` on the row's knot curve."""
    ranges = [row[column] for column, _ in KNOTS]
    probabilities = [p for _, p in KNOTS]
    index = max(1, bisect.bisect_left(probabilities, probability))
    low_p, high_p = probabilities[index - 1], probabilities[index]
    low_r, high_r = ranges[index - 1], ranges[index]
    return low_r + (probability - low_p) / (high_p - low_p) * (high_r - low_r)


def reference_probability(row: dict, range_: float) -> float:
    """Connectivity probability the row's knot curve gives ``range_``."""
    ranges = [row[column] for column, _ in KNOTS]
    probabilities = [p for _, p in KNOTS]
    if range_ <= ranges[0]:
        return probabilities[0] if range_ == ranges[0] else 0.0
    if range_ >= ranges[-1]:
        return probabilities[-1] if range_ == ranges[-1] else 1.0
    index = bisect.bisect_left(ranges, range_)
    low_r, high_r = ranges[index - 1], ranges[index]
    low_p, high_p = probabilities[index - 1], probabilities[index]
    return low_p + (range_ - low_r) / (high_r - low_r) * (high_p - low_p)


def _close(value: float, expected: float) -> bool:
    return abs(value - expected) <= TOLERANCE * max(1.0, abs(expected))


def answer_problem(query: dict, answer: dict) -> Optional[str]:
    """Why ``answer`` is wrong for ``query``, or ``None``.

    ``query`` carries the benchmark's own knowledge: ``kind`` (exact /
    between / off), the stored ``rows`` that bracket it, and the
    request ``document``.
    """
    document = query["document"]
    value = answer.get("value")
    if not isinstance(value, float) or not math.isfinite(value):
        return f"{query['kind']} answer has no finite value: {answer!r}"
    if answer.get("model") != document["model"]:
        return f"answer for model {answer.get('model')!r}, asked {document['model']!r}"
    inverse = "probability" in document

    def evaluate(row: dict) -> float:
        if inverse:
            return reference_range(row, document["probability"])
        return reference_probability(row, document["range"])

    kind = query["kind"]
    if kind == "off":
        if answer.get("refine") is not True:
            return f"off-grid side {document['side']} answered without refine=true"
        return None
    if answer.get("refine") is not False:
        return f"in-grid {kind} answer flagged refine: {answer!r}"
    if kind == "exact":
        if answer.get("source") != "exact":
            return f"exact-grid answer from source {answer.get('source')!r}"
        row = query["rows"][0]
        knot = query.get("knot")
        if knot is not None:
            if value != row[knot]:
                return f"knot {knot}: answered {value!r}, stored {row[knot]!r}"
            return None
        expected = evaluate(row)
        if not _close(value, expected):
            return f"exact-grid answer {value!r} != reference {expected!r}"
        return None
    if answer.get("source") != "interpolated":
        return f"between-grid answer from source {answer.get('source')!r}"
    low, high = sorted(evaluate(row) for row in query["rows"])
    slack = TOLERANCE * max(1.0, abs(high))
    if not low - slack <= value <= high + slack:
        return f"interpolated answer {value!r} outside bracket [{low!r}, {high!r}]"
    return None
