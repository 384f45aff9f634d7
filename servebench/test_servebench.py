"""Tests of the benchmark itself; none of them starts a server."""

from __future__ import annotations

import pytest

import inputs
import probe
import spans
from oracle import Reference, mismatch


def _proven_service(windows):
    from repro.commitments import BulletinBoard, Commitment, window_digest
    from repro.core.prover_service import ProverService
    from repro.storage import MemoryLogStore
    store, board = MemoryLogStore(), BulletinBoard()
    service = ProverService(store, board)
    summaries = []
    for window, records in enumerate(windows):
        for router, recs in inputs.by_router(records).items():
            netflows = [inputs.to_netflow(r) for r in recs]
            store.append_records(router, window, netflows)
            board.publish(Commitment(
                router_id=router, window_index=window,
                digest=window_digest([r.to_bytes() for r in netflows]),
                record_count=len(netflows), published_at_ms=0))
        result = service.aggregate_windows([window])
        summaries.append((result.record_count, len(result.new_state)))
    return service, board, summaries


def test_reference_agrees_with_the_program_on_a_small_seed():
    from repro.core.verifier_client import VerifierClient
    windows = inputs.generate_windows(5, "test", 0, 3, 60)
    service, board, summaries = _proven_service(windows)
    ref = Reference()
    for records, (proven_records, proven_flows) in zip(windows, summaries):
        assert ref.fold(records) == proven_records
        assert len(ref.entries) == proven_flows
    # Some flows were seen again in a later window: the update path ran.
    assert len(ref.entries) < sum(len({r.key for r in w}) for w in windows)
    verifier = VerifierClient(board)
    for spec in inputs.ask_set(5):
        verified = verifier.verify_response(
            service.answer_query(spec["sql"]), service.chain.receipts())
        assert mismatch(spec, ref.answer(spec), verified) is None


def test_reference_catches_a_wrong_answer():
    windows = inputs.generate_windows(5, "test", 0, 1, 40)
    ref = Reference()
    ref.fold(windows[0])
    spec = inputs.ask_set(5)[0]
    expected = ref.answer(spec)

    class Wrong:
        values = (expected["values"][0] + 1,) + expected["values"][1:]
        groups = expected["groups"]
        matched = expected["matched"]
        scanned = expected["scanned"]

    assert "values" in mismatch(spec, expected, Wrong)


def test_one_seed_gives_identical_records_and_sql():
    def draw(seed):
        windows = inputs.generate_windows(seed, "ingest", 0, 3, 50)
        ranked = inputs.ask_set(seed)
        counts = inputs.zipf_counts(len(ranked), 10)
        return windows, [s["sql"] for s in
                         inputs.ask_sequence(seed, ranked, counts)]
    assert draw(7) == draw(7)
    assert draw(7) != draw(8)


def test_every_seed_asks_each_text_once_cold_with_fixed_counts():
    for seed in (1, 2, 3):
        ranked = inputs.ask_set(seed)
        texts = [spec["sql"] for spec in ranked]
        assert len(set(texts)) == len(texts) == 24
        counts = inputs.zipf_counts(len(ranked), 100)
        asks = inputs.ask_sequence(seed, ranked, counts)
        assert len(asks) == sum(counts)
        assert len({spec["sql"] for spec in asks}) == len(ranked)


def test_normalise_scales_by_the_mean_of_the_bracketing_probes():
    # Probes at twice the reference time halve the operation's time.
    ref = probe.P_REF_S
    assert probe.normalise(0.4, 2 * ref, 2 * ref) == pytest.approx(0.2)
    assert probe.normalise(0.3, ref, 2 * ref) == pytest.approx(0.2)
    assert probe.normalise(0.1, ref, ref) == pytest.approx(0.1)


def test_probe_clock_normalises_each_segment_by_its_own_probes():
    ref = probe.P_REF_S
    probes = iter([ref, 3 * ref, 5 * ref])
    clock = probe.ProbeClock(probe_fn=lambda: next(probes))
    clock.time("op", lambda: None)
    clock.time("op", lambda: None)
    clock.cut()
    clock.time("op", lambda: None)
    clock.cut()
    raw, norm = clock.raw["op"], clock.norm["op"]
    # Segment one sits between probes of 1 and 3 reference times, segment
    # two between 3 and 5.
    assert [n / r for r, n in zip(raw, norm)] == pytest.approx(
        [0.5, 0.5, 0.25])
    assert clock.count("op") == 3 and clock.probes == [ref, 3 * ref, 5 * ref]
    assert [op[3] for op in clock.ops] == pytest.approx([0.5, 0.5, 0.25])


def test_interquartile_mean_averages_the_middle_half():
    assert probe.interquartile_mean([9.0, 1.0, 2.0, 3.0, 4.0, 100.0,
                                     5.0, 6.0]) == pytest.approx(4.5)
    assert probe.interquartile_mean([2.0, 4.0]) == pytest.approx(3.0)


def test_self_time_subtracts_only_direct_children():
    # (name, start, end, id, parent, trace, thread, counts)
    tree = [
        ("root", 0.0, 10.0, 1, 0, 1, 0, None),
        ("a", 1.0, 4.0, 2, 1, 1, 0, None),
        ("a.leaf", 1.5, 2.5, 3, 2, 1, 0, None),
        ("b", 5.0, 9.0, 4, 1, 1, 0, None),
        ("other-root", 20.0, 21.0, 5, 0, 5, 1, None),
    ]
    assert spans.self_times(tree) == pytest.approx(
        {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0, 5: 1.0})


def test_recorder_links_parents_and_traces():
    recorder = spans.Recorder()

    def inner():
        return recorder.call("inner", lambda: 7, (), {})

    assert recorder.call("outer", inner, (), {}) == 7
    inner_span, outer_span = recorder.spans
    assert inner_span[4] == outer_span[3]          # parent link
    assert inner_span[5] == outer_span[5] == outer_span[3]  # one trace
    assert outer_span[4] == 0


def test_attribution_and_coverage():
    attribution = spans.Attribution([("cold", 2.0, 3.0), ("round", 0.0, 1.0)])
    assert [attribution.index(t) for t in (0.5, 1.5, 2.0, 3.5)] == \
        [0, None, 1, None]
    assert attribution.ops[0][0] == "round"
    share = spans.covered_share([(0.0, 10.0)],
                                [(0.0, 8.0), (1.0, 2.0), (9.0, 12.0)])
    assert share == pytest.approx(0.9)
