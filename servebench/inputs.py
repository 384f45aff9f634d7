"""Seeded inputs: router records, window layouts and SQL asks.

Everything here is a pure function of the seed, so one seed always yields
the same records and the same ask sequence.  The records are drawn by the
benchmark itself (not by ``repro.netflow.generator``) so that a change to
the program's traffic generator cannot change what the benchmark measures.

Records are plain tuples (:class:`Rec`); :func:`to_netflow` turns them into
the program's ``NetFlowRecord`` only at the store boundary, and the
correctness oracle in :mod:`oracle` folds the plain tuples.
"""

from __future__ import annotations

import ipaddress
import random
from typing import NamedTuple

# The paper's evaluation topology: four routers on a line, 5 s windows.
ROUTERS = ("r1", "r2", "r3", "r4")
WINDOW_MS = 5_000
PROVIDERS = ("10.1.0.0/16", "10.2.0.0/16", "10.3.0.0/16", "10.4.0.0/16")
CLIENTS = "172.16.0.0/12"
# (protocol, server ports): TCP web/video, UDP DNS/RTC.
SERVICES = ((6, (80, 443, 8443)), (17, (53, 3478, 443)))
# Every REPEAT_EVERY-th flow of a window continues an earlier flow.
REPEAT_EVERY = 10
# Every (ingress, egress) pair of the line topology; a flow's path runs
# between them, so paths hold 1 to 4 routers.
PATHS = tuple((i, e) for i in range(len(ROUTERS)) for e in range(len(ROUTERS)))


class Rec(NamedTuple):
    """One router's observation of a flow (the oracle's input)."""

    router: str
    window: int
    src: str
    dst: str
    sport: int
    dport: int
    proto: int
    packets: int
    octets: int
    first_ms: int
    last_ms: int
    hop_count: int
    lost: int
    rtt_us: int
    jitter_us: int

    @property
    def key(self) -> tuple[str, str, int, int, int]:
        return (self.src, self.dst, self.sport, self.dport, self.proto)


def _rng(seed: int, stream: str) -> random.Random:
    # A str seed is hashed with SHA-512 by random.seed: stable across runs.
    return random.Random(f"servebench:{seed}:{stream}")


def _host(rng: random.Random, prefix: str) -> str:
    net = ipaddress.IPv4Network(prefix)
    return str(net.network_address + rng.randrange(1, net.num_addresses - 1))


def generate_windows(seed: int, stream: str, first_window: int,
                     num_windows: int, flows_per_window: int,
                     earlier_keys: list | None = None
                     ) -> list[list[Rec]]:
    """``num_windows`` windows of records, each from ``flows_per_window``
    flows.

    The seed draws the values; the amount of work is the same for every
    seed.  Every tenth flow continues a flow seen earlier (in
    ``earlier_keys`` or in this stream), so rounds exercise the CLog update
    path as well as inserts; and each block of ``len(PATHS)`` flows uses
    every (ingress, egress) router pair once, so a window of a multiple of
    16 flows always holds the same number of records."""
    rng = _rng(seed, stream)
    known = list(earlier_keys or [])
    windows = []
    for offset in range(num_windows):
        window = first_window + offset
        records: list[Rec] = []
        pairs: list[tuple[int, int]] = []
        for index in range(flows_per_window):
            if not pairs:
                pairs = list(PATHS)
                rng.shuffle(pairs)
            if known and index % REPEAT_EVERY == REPEAT_EVERY - 1:
                key = known[rng.randrange(len(known))]
            else:
                proto, ports = SERVICES[rng.randrange(len(SERVICES))]
                key = (_host(rng, PROVIDERS[rng.randrange(len(PROVIDERS))]),
                       _host(rng, CLIENTS), rng.choice(ports),
                       rng.randint(32768, 60999), proto)
                known.append(key)
            records.extend(_observe(rng, window, key, *pairs.pop()))
        windows.append(records)
    return windows


def _observe(rng: random.Random, window: int, key: tuple, ingress: int,
             egress: int) -> list[Rec]:
    """One flow seen by every router on its path, losing packets per hop
    (never all of them, so every router on the path reports it)."""
    step = 1 if egress >= ingress else -1
    path = [ROUTERS[i] for i in range(ingress, egress + step, step)]
    packets = max(1, int(rng.paretovariate(1.2) * 20))
    size = rng.randint(60, 1500)
    first_ms = window * WINDOW_MS + rng.randrange(WINDOW_MS)
    last_ms = first_ms + rng.randrange(1, 4 * WINDOW_MS)
    rtt = rng.randint(2_000, 80_000)
    out = []
    arriving = packets
    for hop, router in enumerate(path):
        lost = 0
        if hop < len(path) - 1:
            lost = min(arriving - 1, sum(1 for _ in range(min(arriving, 64))
                                         if rng.random() < 0.01))
        out.append(Rec(router, window, *key, packets=arriving,
                       octets=arriving * size, first_ms=first_ms,
                       last_ms=last_ms, hop_count=hop + 1, lost=lost,
                       rtt_us=rtt + rng.randint(0, 2_000),
                       jitter_us=rng.randint(0, 5_000)))
        arriving -= lost
    return out


def by_router(records: list[Rec]) -> dict[str, list[Rec]]:
    """A window's records split per router, in generation order."""
    split: dict[str, list[Rec]] = {}
    for rec in records:
        split.setdefault(rec.router, []).append(rec)
    return {router: split[router] for router in sorted(split)}


def to_netflow(rec: Rec):
    """The program's record type for one observation."""
    from repro.netflow.records import FlowKey, NetFlowRecord
    return NetFlowRecord(
        router_id=rec.router,
        key=FlowKey(rec.src, rec.dst, rec.sport, rec.dport, rec.proto),
        packets=rec.packets, octets=rec.octets,
        first_switched_ms=rec.first_ms, last_switched_ms=rec.last_ms,
        tcp_flags=0x1B if rec.proto == 6 else 0,
        input_if=1, output_if=3, hop_count=rec.hop_count,
        lost_packets=rec.lost, rtt_us=rec.rtt_us, jitter_us=rec.jitter_us)


# -- SQL ---------------------------------------------------------------------
#
# A spec is the structured twin of one SQL text; the oracle evaluates the
# spec, the program parses the text.  Predicates are tuples:
# ("cmp", field, op, value) | ("in", field, cidr) |
# ("and", [p, ...]) | ("or", [p, ...]) | ("not", p).

def _shapes(rng: random.Random) -> list[dict]:
    """The twelve SQL shapes, most popular first, with seeded literals."""
    proto = rng.choice((6, 17))
    net = rng.choice(PROVIDERS)
    other = rng.choice([p for p in PROVIDERS if p != net])
    return [
        {"aggs": [("COUNT", None), ("SUM", "packets")],
         "where": ("cmp", "packets", ">", rng.randint(10, 60))},
        {"aggs": [("COUNT", None), ("SUM", "octets"), ("AVG", "packets")],
         "group_by": "src_net16"},
        {"aggs": [("SUM", "lost_packets"), ("MAX", "hop_count")],
         "where": ("cmp", "protocol", "=", proto)},
        {"aggs": [("COUNT", None), ("MAX", "lost_packets")],
         "group_by": "protocol"},
        {"aggs": [("MIN", "first_ms"), ("MAX", "last_ms"), ("COUNT", None)],
         "where": ("in", "src_ip", net)},
        {"aggs": [("SUM", "packets"), ("SUM", "lost_packets")],
         "where": ("and", [("cmp", "hop_count", ">=", rng.randint(2, 3)),
                           ("cmp", "protocol", "=", proto)])},
        {"aggs": [("COUNT", None)],
         "where": ("or", [("cmp", "dst_port", "<", rng.randint(35000, 50000)),
                          ("cmp", "lost_packets", ">", 0)])},
        {"aggs": [("AVG", "octets"), ("MAX", "packets")],
         "where": ("in", "src_ip", other), "group_by": "protocol"},
        {"aggs": [("COUNT", None), ("SUM", "router_count")],
         "where": ("cmp", "record_count", ">=", 2), "group_by": "src_net16"},
        {"aggs": [("SUM", "octets"), ("MIN", "packets")],
         "where": ("and", [("not", ("cmp", "protocol", "=", 6)),
                           ("cmp", "packets", "<=", rng.randint(20, 200))])},
        {"aggs": [("MAX", "router_count"), ("AVG", "hop_count")],
         "where": ("cmp", "src_port", "=", 443)},
        {"aggs": [("COUNT", None), ("SUM", "packets"), ("MAX", "octets")],
         "where": ("not", ("in", "src_ip", net)), "group_by": "protocol"},
    ]


def render(spec: dict) -> str:
    """The SQL text of a spec."""
    terms = ", ".join(f"{func}({field or '*'})"
                      for func, field in spec["aggs"])
    sql = f"SELECT {terms} FROM clogs"
    if spec.get("where") is not None:
        sql += " WHERE " + _render_pred(spec["where"])
    if spec.get("group_by"):
        sql += " GROUP BY " + spec["group_by"]
    return sql


def _render_pred(pred: tuple) -> str:
    kind = pred[0]
    if kind == "cmp":
        return f"{pred[1]} {pred[2]} {pred[3]}"
    if kind == "in":
        return f'{pred[1]} IN "{pred[2]}"'
    if kind == "not":
        return f"NOT ({_render_pred(pred[1])})"
    joined = f" {kind.upper()} ".join(_render_pred(p) for p in pred[1])
    return f"({joined})"


def ask_set(seed: int, variants: int = 2) -> list[dict]:
    """``variants`` literal draws of every shape, ranked by popularity:
    rank ``k`` (from 1) holds shape ``(k - 1) // variants``."""
    rng = _rng(seed, "sql")
    draws = [_shapes(rng) for _ in range(variants)]
    ranked = []
    for shape in range(len(draws[0])):
        for draw in draws:
            spec = dict(draw[shape])
            spec["sql"] = render(spec)
            ranked.append(spec)
    # Two draws can render the same text (some shapes have no literal); a
    # duplicate would turn a planned cold ask into a hit.  An always-true
    # conjunct makes each text distinct without changing its answer.
    seen: set[str] = set()
    for spec in ranked:
        bound = 0
        while spec["sql"] in seen:
            where = spec.get("where")
            extra = ("cmp", "last_ms", ">=", bound)
            spec["where"] = extra if where is None else ("and", [where, extra])
            spec["sql"] = render(spec)
            bound += 1
        seen.add(spec["sql"])
    return ranked


def zipf_counts(num_ranks: int, total_scale: int,
                exponent: float = 1.0) -> list[int]:
    """Asks per rank: ``max(1, round(total_scale / k**exponent))``."""
    return [max(1, round(total_scale / k ** exponent))
            for k in range(1, num_ranks + 1)]


def ask_sequence(seed: int, ranked: list[dict], counts: list[int],
                 stream: str = "asks") -> list[dict]:
    """Every rank repeated ``counts[rank]`` times, in a seeded order.

    The counts do not depend on the seed, so every seed asks each text
    cold exactly once and repeats the same number of hits."""
    asks = [spec for spec, count in zip(ranked, counts)
            for _ in range(count)]
    _rng(seed, stream).shuffle(asks)
    return asks
