"""AnswerCache unit tests: TTL, LRU bound, counters — no sleeps.

Every time-dependent behaviour runs against an injected fake clock, so
expiry and hysteresis are asserted deterministically; the service-level
tests inject the same clock into a running :class:`ScheduleService` to
prove a stale entry triggers a *fresh solve* rather than stale data.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.api import ScheduleRequest
from repro.errors import ServiceError
from repro.service import (
    AnswerCache,
    ReportArchive,
    ScheduleService,
    SolveOutcome,
    solve_requests,
    warm_cache_from_archive,
)

REQUEST = ScheduleRequest(soc="worked_example6", tl_c=80.0, stcl=60.0)


def solve_one(request):
    """One request through the service's worker path (a group of one)."""
    (outcome,) = solve_requests([request])
    return outcome


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def ok_outcome(tag: float = 0.0) -> SolveOutcome:
    """A real solved outcome (the cache stores reports, not stubs)."""
    request = ScheduleRequest(soc="worked_example6", tl_c=80.0 + tag, stcl=60.0)
    outcome = solve_one(request)
    assert outcome.ok
    return outcome


@pytest.fixture(scope="module")
def outcome():
    return ok_outcome()


class TestTtl:
    def test_entry_expires_after_ttl(self, outcome):
        clock = FakeClock()
        cache = AnswerCache(max_entries=4, ttl_s=10.0, clock=clock)
        cache.put("k", outcome)
        clock.advance(9.999)
        assert cache.get("k") is outcome
        clock.advance(0.001)  # exactly at the deadline: stale
        assert cache.get("k") is None
        stats = cache.stats
        assert stats.expirations == 1
        assert stats.entries == 0  # removed, not just hidden
        assert stats.hits == 1
        assert stats.misses == 1

    def test_hit_does_not_refresh_ttl(self, outcome):
        clock = FakeClock()
        cache = AnswerCache(max_entries=4, ttl_s=10.0, clock=clock)
        cache.put("k", outcome)
        clock.advance(6.0)
        assert cache.get("k") is outcome  # popular...
        clock.advance(6.0)
        assert cache.get("k") is None  # ...but staleness counts from put

    def test_put_refreshes_ttl(self, outcome):
        clock = FakeClock()
        cache = AnswerCache(max_entries=4, ttl_s=10.0, clock=clock)
        cache.put("k", outcome)
        clock.advance(6.0)
        cache.put("k", outcome)  # re-solved: answer is fresh again
        clock.advance(6.0)
        assert cache.get("k") is outcome

    def test_no_ttl_never_expires(self, outcome):
        clock = FakeClock()
        cache = AnswerCache(max_entries=4, ttl_s=None, clock=clock)
        cache.put("k", outcome)
        clock.advance(1e9)
        assert cache.get("k") is outcome


class TestLruBound:
    def test_bound_evicts_oldest(self, outcome):
        cache = AnswerCache(max_entries=3)
        for key in ("a", "b", "c", "d"):
            cache.put(key, outcome)
        assert len(cache) == 3
        assert cache.get("a") is None
        assert cache.get("d") is outcome
        assert cache.stats.evictions == 1

    def test_get_refreshes_recency(self, outcome):
        cache = AnswerCache(max_entries=2)
        cache.put("a", outcome)
        cache.put("b", outcome)
        assert cache.get("a") is outcome  # touch a: b is now oldest
        cache.put("c", outcome)
        assert cache.get("b") is None
        assert cache.get("a") is outcome

    def test_counters_and_clear(self, outcome):
        cache = AnswerCache(max_entries=2)
        assert cache.get("missing") is None
        cache.put("a", outcome)
        assert cache.get("a") is outcome
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)
        assert stats.hit_rate == pytest.approx(0.5)
        cache.clear()
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.entries) == (0, 0, 0)

    def test_error_outcomes_are_not_stored(self):
        cache = AnswerCache(max_entries=2)
        failed = SolveOutcome(
            status="error",
            report=None,
            error="boom",
            error_type="RuntimeError",
            elapsed_s=0.0,
        )
        cache.put("k", failed)
        assert len(cache) == 0

    def test_bad_parameters_rejected(self):
        with pytest.raises(ServiceError, match="max_entries"):
            AnswerCache(max_entries=0)
        with pytest.raises(ServiceError, match="ttl_s"):
            AnswerCache(ttl_s=0.0)
        # A negative service-level size is a typo, not a disable.
        with pytest.raises(ServiceError, match="answer_cache_size"):
            ScheduleService(backend="thread", answer_cache_size=-5)


class TestServiceIntegration:
    """The cache inside a live service, driven by a fake clock."""

    def test_stale_entry_triggers_a_fresh_solve(self):
        clock = FakeClock()
        cache = AnswerCache(max_entries=8, ttl_s=30.0, clock=clock)

        async def main():
            async with ScheduleService(
                backend="thread", answer_cache=cache
            ) as svc:
                first = await svc.solve(REQUEST)
                hit = await svc.solve(REQUEST)
                assert not first.cached and hit.cached
                assert svc.metrics().solves_started == 1
                clock.advance(31.0)
                refreshed = await svc.solve(REQUEST)
                # Expired data is never served: the third answer came
                # from a second worker execution, unflagged.
                assert not refreshed.cached
                metrics = svc.metrics()
                assert metrics.solves_started == 2
                assert metrics.answer_hits == 1
                assert metrics.answer_cache.expirations == 1
                # The fresh solve re-populated the cache.
                hit2 = await svc.solve(REQUEST)
                assert hit2.cached

        asyncio.run(main())

    def test_eviction_bounds_a_busy_service(self):
        cache = AnswerCache(max_entries=2)

        async def main():
            async with ScheduleService(
                backend="thread", answer_cache=cache
            ) as svc:
                for marker in range(3):
                    await svc.solve(
                        ScheduleRequest(
                            soc="worked_example6",
                            tl_c=80.0 + marker,
                            stcl=60.0,
                        )
                    )
                metrics = svc.metrics()
                assert metrics.answer_cache.entries == 2
                assert metrics.answer_cache.evictions == 1
                # The evicted (oldest) question solves again...
                await svc.solve(REQUEST)
                assert svc.metrics().solves_started == 4
                # ...the still-cached newest one does not.
                await svc.solve(
                    ScheduleRequest(
                        soc="worked_example6", tl_c=82.0, stcl=60.0
                    )
                )
                assert svc.metrics().solves_started == 4

        asyncio.run(main())


class TestWarmStart:
    def test_warm_from_archive_populates_and_serves(self, tmp_path):
        archive_path = tmp_path / "served.jsonl"

        async def first_life():
            async with ScheduleService(
                backend="thread", archive=ReportArchive(archive_path)
            ) as svc:
                await svc.solve(REQUEST)

        asyncio.run(first_life())
        assert archive_path.exists()

        async def second_life():
            svc = ScheduleService(backend="thread", warm_from=archive_path)
            async with svc:
                report = await svc.solve(REQUEST)
                # Answered from memory before the first solve ever ran.
                assert report.cached
                metrics = svc.metrics()
                assert metrics.solves_started == 0
                assert metrics.answer_hits == 1
                assert metrics.answer_cache.warmed == 1
                # Pure repeat traffic still registers as throughput.
                assert metrics.requests_per_s > 0.0
            # A restart must not replay the archive: the cache already
            # holds the answers, and `warmed` must not double-count.
            await svc.start()
            try:
                assert (await svc.solve(REQUEST)).cached
                assert svc.metrics().answer_cache.warmed == 1
            finally:
                await svc.stop()

        asyncio.run(second_life())

    def test_warm_loader_skips_error_and_foreign_records(self, tmp_path):
        archive_path = tmp_path / "served.jsonl"

        async def serve():
            async with ScheduleService(
                backend="thread", archive=ReportArchive(archive_path)
            ) as svc:
                await svc.solve(REQUEST)
                with pytest.raises(Exception):
                    await svc.solve(
                        ScheduleRequest(
                            soc="worked_example6", tl_c=30.0, stcl=60.0
                        )
                    )

        asyncio.run(serve())
        with archive_path.open("a") as handle:
            handle.write('{"kind": "something-else"}\n')
            handle.write("\n")
            # A decodable report under a malformed top-level field: the
            # loader must skip it, not take the boot down.
            import json as json_module

            records = [
                json_module.loads(line)
                for line in archive_path.read_text().splitlines()
                if line.strip() and '"status":"ok"' in line
            ]
            nulled = dict(records[0])
            nulled["elapsed_s"] = None  # null: coerced to 0.0, tolerated
            nulled["request_hash"] = "deadbeef" * 8
            handle.write(json_module.dumps(nulled) + "\n")
            garbage = dict(records[0])
            garbage["elapsed_s"] = "fast"  # uncoercible: skipped
            garbage["request_hash"] = "cafebabe" * 8
            handle.write(json_module.dumps(garbage) + "\n")

        cache = AnswerCache(max_entries=8)
        loaded = warm_cache_from_archive(cache, archive_path)
        assert loaded == 2  # the real ok record + the tolerated null
        assert cache.get(REQUEST.content_hash()) is not None
        assert cache.get("deadbeef" * 8) is not None
        assert cache.get("cafebabe" * 8) is None

    def test_warm_counts_distinct_hashes_not_records(self, tmp_path):
        """An archive holding N re-solves of one question warms one
        entry and reports one — the count reflects the cache, not the
        archive's length."""
        archive_path = tmp_path / "served.jsonl"
        lines = archive_path.read_text() if archive_path.exists() else ""
        assert lines == ""

        async def serve_twice():
            # Answer cache off: the same question solves (and is
            # archived) twice in one life.
            async with ScheduleService(
                backend="thread",
                answer_cache_size=0,
                archive=ReportArchive(archive_path),
            ) as svc:
                await svc.solve(REQUEST)
                await svc.solve(REQUEST)

        asyncio.run(serve_twice())
        assert len(archive_path.read_text().strip().splitlines()) == 2

        cache = AnswerCache(max_entries=8)
        loaded = warm_cache_from_archive(cache, archive_path)
        assert loaded == 1
        assert len(cache) == 1
        assert cache.stats.warmed == 1

    def test_warm_survives_a_torn_trailing_append(self, tmp_path):
        """A previous life killed mid-append leaves a partial last
        line; the next warm boot must skip it, not crash."""
        archive_path = tmp_path / "served.jsonl"

        async def serve():
            async with ScheduleService(
                backend="thread", archive=ReportArchive(archive_path)
            ) as svc:
                await svc.solve(REQUEST)

        asyncio.run(serve())
        intact = archive_path.read_text()
        # Simulate the crash: append a record torn mid-JSON, no newline.
        archive_path.write_text(intact + intact.strip()[: len(intact) // 3])

        cache = AnswerCache(max_entries=8)
        loaded = warm_cache_from_archive(cache, archive_path)
        assert loaded == 1
        assert cache.get(REQUEST.content_hash()) is not None

    def test_warm_backfills_past_undecodable_newest_records(self, tmp_path):
        """Schema-drifted newest records must not consume the selection
        budget: older decodable answers behind them still warm."""
        import json as json_module

        archive_path = tmp_path / "served.jsonl"

        async def serve():
            async with ScheduleService(
                backend="thread", archive=ReportArchive(archive_path)
            ) as svc:
                await svc.solve(REQUEST)

        asyncio.run(serve())
        good = json_module.loads(archive_path.read_text().strip())
        drifted = dict(good)
        drifted["report"] = dict(good["report"], schema_version=99)
        drifted["request_hash"] = "feedface" * 8
        with archive_path.open("a") as handle:
            handle.write(json_module.dumps(drifted) + "\n")

        cache = AnswerCache(max_entries=1)  # budget of exactly one
        loaded = warm_cache_from_archive(cache, archive_path)
        assert loaded == 1
        assert cache.get(REQUEST.content_hash()) is not None

    def test_warm_missing_archive_still_fails_loudly(self, tmp_path):
        from repro.errors import SchedulingError

        with pytest.raises(SchedulingError, match="cannot load"):
            warm_cache_from_archive(
                AnswerCache(max_entries=8), tmp_path / "missing.jsonl"
            )

    def test_warm_decodes_at_most_the_cache_bound(self, tmp_path, monkeypatch):
        """An archive larger than the cache warms exactly max_entries
        newest distinct answers — superseded and overflow records are
        dropped before the expensive decode."""
        archive_path = tmp_path / "served.jsonl"

        async def serve():
            async with ScheduleService(
                backend="thread",
                answer_cache_size=0,
                archive=ReportArchive(archive_path),
            ) as svc:
                for marker in range(4):  # 4 distinct answers archived
                    await svc.solve(
                        ScheduleRequest(
                            soc="worked_example6",
                            tl_c=80.0 + marker,
                            stcl=60.0,
                        )
                    )
                await svc.solve(REQUEST)  # re-solve of the first: 5 records

        asyncio.run(serve())
        assert len(archive_path.read_text().strip().splitlines()) == 5

        import repro.service.answer_cache as answer_cache_module

        real_decode = answer_cache_module.outcome_from_record
        decodes = []
        monkeypatch.setattr(
            answer_cache_module,
            "outcome_from_record",
            lambda record: (decodes.append(1), real_decode(record))[1],
        )
        cache = AnswerCache(max_entries=2)
        loaded = warm_cache_from_archive(cache, archive_path)
        assert loaded == 2
        assert len(decodes) == 2  # not 5: selection happened pre-decode
        assert len(cache) == 2
        assert cache.stats.evictions == 0  # never over-filled
        # The two *newest* distinct answers survived: the re-solved
        # REQUEST (last record) and the marker=3 variant.
        assert cache.get(REQUEST.content_hash()) is not None
        newest = ScheduleRequest(soc="worked_example6", tl_c=83.0, stcl=60.0)
        assert cache.get(newest.content_hash()) is not None

    def test_warm_from_without_cache_is_rejected(self, tmp_path):
        with pytest.raises(ServiceError, match="warm_from"):
            ScheduleService(
                backend="thread",
                answer_cache_size=0,
                warm_from=tmp_path / "x.jsonl",
            )
