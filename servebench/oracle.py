"""Host-side reference: folds raw records and evaluates SQL specs.

Shares no code with the program's aggregation or query paths.  The fold
follows the default policy as the ``repro.core.policy`` docstring states it:
``packets`` and ``octets`` take the maximum over vantage points,
``lost_packets`` sums, ``hop_count`` takes the maximum, the first/last
timestamps take min/max, RTT and jitter accumulate as sums, and every
record bumps ``record_count`` and adds its router to the vantage set.
"""

from __future__ import annotations

import ipaddress
from typing import Any, Iterable

from inputs import Rec


class Reference:
    """The CLog state a correct prover must hold, built from raw records."""

    def __init__(self) -> None:
        self.entries: dict[tuple, dict[str, Any]] = {}
        self.records = 0
        self._answers: dict[str, dict[str, Any]] = {}

    def fold(self, records: Iterable[Rec]) -> int:
        """Fold one round's records; returns how many were folded."""
        count = 0
        for rec in records:
            count += 1
            entry = self.entries.get(rec.key)
            if entry is None:
                self.entries[rec.key] = {
                    "packets": rec.packets, "octets": rec.octets,
                    "lost": rec.lost, "hops": rec.hop_count,
                    "first": rec.first_ms, "last": rec.last_ms,
                    "rtt": rec.rtt_us, "jitter": rec.jitter_us,
                    "records": 1, "routers": {rec.router}}
                continue
            entry["packets"] = max(entry["packets"], rec.packets)
            entry["octets"] = max(entry["octets"], rec.octets)
            entry["lost"] += rec.lost
            entry["hops"] = max(entry["hops"], rec.hop_count)
            entry["first"] = min(entry["first"], rec.first_ms)
            entry["last"] = max(entry["last"], rec.last_ms)
            entry["rtt"] += rec.rtt_us
            entry["jitter"] += rec.jitter_us
            entry["records"] += 1
            entry["routers"].add(rec.router)
        self.records += count
        self._answers.clear()
        return count

    def rows(self) -> list[dict[str, Any]]:
        """One query row per flow, with the integer columns specs use."""
        rows = []
        for (src, dst, sport, dport, proto), e in self.entries.items():
            a, b = src.split(".")[:2]
            rows.append({
                "src_ip": src, "dst_ip": dst, "src_net16": f"{a}.{b}.0.0/16",
                "src_port": sport, "dst_port": dport, "protocol": proto,
                "packets": e["packets"], "octets": e["octets"],
                "lost_packets": e["lost"], "hop_count": e["hops"],
                "record_count": e["records"],
                "router_count": len(e["routers"]),
                "first_ms": e["first"], "last_ms": e["last"]})
        return rows

    def answer(self, spec: dict) -> dict[str, Any]:
        """``{"values", "groups", "matched", "scanned"}`` for a spec."""
        cached = self._answers.get(spec["sql"])
        if cached is None:
            cached = self._answers[spec["sql"]] = self._evaluate(spec)
        return cached

    def _evaluate(self, spec: dict) -> dict[str, Any]:
        rows = self.rows()
        matched = [row for row in rows if _holds(spec.get("where"), row)]
        group_by = spec.get("group_by")
        if group_by is None:
            return {"values": _aggregate(spec["aggs"], matched),
                    "groups": (), "matched": len(matched),
                    "scanned": len(rows)}
        buckets: dict[Any, list] = {}
        for row in matched:
            buckets.setdefault(row[group_by], []).append(row)
        groups = tuple((key, _aggregate(spec["aggs"], buckets[key]))
                       for key in sorted(buckets))
        return {"values": (), "groups": groups, "matched": len(matched),
                "scanned": len(rows)}


_OPS = {
    "=": lambda a, b: a == b, "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
}


def _holds(pred: tuple | None, row: dict) -> bool:
    if pred is None:
        return True
    kind = pred[0]
    if kind == "cmp":
        return _OPS[pred[2]](row[pred[1]], pred[3])
    if kind == "in":
        return ipaddress.IPv4Address(row[pred[1]]) \
            in ipaddress.IPv4Network(pred[2])
    if kind == "not":
        return not _holds(pred[1], row)
    if kind == "and":
        return all(_holds(p, row) for p in pred[1])
    return any(_holds(p, row) for p in pred[1])


def _aggregate(aggs: list, rows: list[dict]) -> tuple:
    values = []
    for func, field in aggs:
        if func == "COUNT":
            values.append(len(rows))
            continue
        if not rows:
            values.append(None)
            continue
        column = [row[field] for row in rows]
        if func == "SUM":
            values.append(sum(column))
        elif func == "AVG":
            values.append(sum(column) / len(column))
        elif func == "MIN":
            values.append(min(column))
        else:
            values.append(max(column))
    return tuple(values)


def mismatch(spec: dict, expected: dict, verified: Any) -> str | None:
    """Why a verified answer differs from the reference, or ``None``."""
    got_groups = tuple((key, tuple(values))
                       for key, values in verified.groups)
    checks = (("values", tuple(verified.values), expected["values"]),
              ("groups", got_groups, expected["groups"]),
              ("matched", verified.matched, expected["matched"]),
              ("scanned", verified.scanned, expected["scanned"]))
    for what, got, want in checks:
        if got != want:
            return (f"{spec['sql']!r}: {what} {got!r} != reference "
                    f"{want!r}")
    return None
