"""The content-addressed study cache: keys, hits, resume, quarantine.

The acceptance bar (ISSUE 8): a repeated ``Study.grid(...).run(cache=
DIR)`` submits ZERO engine work units on the second run and returns an
identical StudyResult with byte-identical saved archives; a widened
grid submits only the delta cells; cached and fresh cells are
bit-identical across the serial/process backends; a code edit
(fingerprint change) invalidates; corrupt entries are quarantined,
never served and never fatal.
"""

import json
import os
import threading

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.sim.execution import SerialEngine
from repro.study import (
    Study,
    StudyCache,
    code_fingerprint,
    get_experiment,
    resolve_cache,
)
from repro.study.cache import CACHE_VERSION, CacheInfo


class CountingEngine(SerialEngine):
    """A serial engine that counts every work unit it is handed."""

    def __init__(self):
        self.mapped = 0

    def map(self, specs):
        self.mapped += len(specs)
        return super().map(specs)


def small_grid(**kwargs):
    return Study("fig2", trials=2).grid(seed=[2014, 2015], **kwargs)


def assert_identical(result, other):
    assert result.rendered == other.rendered
    assert result.column_mismatches(other) == []


class TestCodeFingerprint:
    def test_stable_across_calls(self):
        assert code_fingerprint() == code_fingerprint()

    def test_covers_file_content_not_mtime(self, tmp_path):
        (tmp_path / "mod.py").write_text("x = 1\n")
        first = code_fingerprint(tmp_path)
        os.utime(tmp_path / "mod.py", ns=(1, 1))  # touch, same bytes
        assert code_fingerprint(tmp_path) == first

    def test_changes_on_code_edit(self, tmp_path):
        (tmp_path / "mod.py").write_text("x = 1\n")
        first = code_fingerprint(tmp_path)
        (tmp_path / "mod.py").write_text("x = 2\n")
        assert code_fingerprint(tmp_path) != first

    def test_changes_on_new_file(self, tmp_path):
        (tmp_path / "mod.py").write_text("x = 1\n")
        first = code_fingerprint(tmp_path)
        (tmp_path / "extra.py").write_text("y = 1\n")
        assert code_fingerprint(tmp_path) != first


class TestCellKey:
    @pytest.fixture()
    def cache(self, tmp_path):
        return StudyCache(tmp_path / "cache")

    def test_stable_for_equal_params(self, cache):
        definition = get_experiment("fig2")
        params = definition.schema.resolve({"trials": 2})
        assert cache.cell_key(definition, params, "f") == cache.cell_key(
            definition, params, "f"
        )

    def test_equivalent_spellings_share_a_key(self, cache):
        definition = get_experiment("fig3")
        spelled = definition.schema.resolve({"chunks": "64KB,1MB", "trials": 2})
        numeric = definition.schema.resolve(
            {"chunks": (65536, 1048576), "trials": 2}
        )
        assert cache.cell_key(definition, spelled, "f") == cache.cell_key(
            definition, numeric, "f"
        )

    def test_any_param_change_is_a_new_key(self, cache):
        definition = get_experiment("fig2")
        base = definition.schema.resolve({"trials": 2, "seed": 2014})
        other = definition.schema.resolve({"trials": 2, "seed": 2015})
        assert cache.cell_key(definition, base, "f") != cache.cell_key(
            definition, other, "f"
        )

    def test_fingerprint_change_is_a_new_key(self, cache):
        definition = get_experiment("fig2")
        params = definition.schema.resolve({"trials": 2})
        assert cache.cell_key(definition, params, "aaa") != cache.cell_key(
            definition, params, "bbb"
        )

    def test_experiment_identity_is_in_the_key(self, cache):
        fig2 = get_experiment("fig2")
        fig4 = get_experiment("fig4")
        shared = {"trials": 2}
        assert cache.cell_key(
            fig2, fig2.schema.resolve(shared), "f"
        ) != cache.cell_key(fig4, fig4.schema.resolve(shared), "f")


class TestCacheHitsAndResume:
    def test_second_run_submits_zero_work_units(self, tmp_path):
        first = small_grid().run(cache=tmp_path)
        assert first.cache_info == CacheInfo(hits=0, misses=2, submitted_units=12)
        engine = CountingEngine()
        second = small_grid().run(engine=engine, cache=tmp_path)
        assert second.cache_info == CacheInfo(hits=2, misses=0, submitted_units=0)
        assert engine.mapped == 0
        assert_identical(first, second)

    def test_fully_cached_run_never_consults_repro_jobs(
        self, tmp_path, monkeypatch
    ):
        small_grid().run(cache=tmp_path)
        monkeypatch.setenv("REPRO_JOBS", "not-a-backend")
        result = small_grid().run(cache=tmp_path)
        assert result.cache_info.submitted_units == 0

    def test_widened_grid_submits_only_the_delta(self, tmp_path):
        small_grid().run(cache=tmp_path)
        engine = CountingEngine()
        widened = (
            Study("fig2", trials=2)
            .grid(seed=[2014, 2015, 2016])
            .run(engine=engine, cache=tmp_path)
        )
        assert widened.cache_info == CacheInfo(hits=2, misses=1, submitted_units=6)
        assert engine.mapped == 6
        # The delta cell is now cached too: a third run is all hits.
        third = Study("fig2", trials=2).grid(seed=[2014, 2015, 2016]).run(
            cache=tmp_path
        )
        assert third.cache_info.hits == 3
        assert_identical(widened, third)

    def test_saved_archives_byte_identical_cached_vs_fresh(self, tmp_path):
        first = small_grid().run(cache=tmp_path / "cache")
        second = small_grid().run(cache=tmp_path / "cache")
        first.save(tmp_path / "fresh")
        second.save(tmp_path / "cached")
        for suffix in (".json", ".npz"):
            fresh = (tmp_path / "fresh").with_suffix(suffix).read_bytes()
            cached = (tmp_path / "cached").with_suffix(suffix).read_bytes()
            assert fresh == cached, suffix

    def test_process_backend_hits_a_serially_written_cache(self, tmp_path):
        serial = small_grid().run(cache=tmp_path)
        pooled = small_grid().run(jobs=2, cache=tmp_path)
        assert pooled.cache_info.submitted_units == 0
        assert_identical(serial, pooled)

    def test_serial_run_hits_a_process_written_cache(self, tmp_path):
        pooled = small_grid().run(jobs=2, cache=tmp_path)
        assert pooled.cache_info.misses == 2
        serial = small_grid().run(cache=tmp_path)
        assert serial.cache_info.submitted_units == 0
        assert_identical(pooled, serial)

    @pytest.mark.parametrize("ipc", ["pickle", "shm"])
    def test_cache_serves_across_ipc_modes(self, tmp_path, ipc):
        """The cache key excludes the collection mode, so a cell written
        under one ipc is served under the other."""
        written = small_grid().run(jobs=2, ipc=ipc, cache=tmp_path)
        other = "shm" if ipc == "pickle" else "pickle"
        served = small_grid().run(jobs=2, ipc=other, cache=tmp_path)
        assert served.cache_info.submitted_units == 0
        assert_identical(written, served)

    def test_no_cache_means_no_cache_info(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        result = Study("fig2", trials=1).run()
        assert result.cache_info is None

    def test_repro_cache_env_enables_the_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        first = Study("fig2", trials=1).run()
        second = Study("fig2", trials=1).run()
        assert first.cache_info.misses == 1
        assert second.cache_info == CacheInfo(hits=1, misses=0, submitted_units=0)

    def test_run_experiment_threads_the_cache_through(self, tmp_path):
        from repro.study import run_experiment

        first = run_experiment("fig2", trials=2, cache=str(tmp_path))
        second = run_experiment("fig2", trials=2, cache=str(tmp_path))
        assert StudyCache(tmp_path).entries()  # something was stored
        assert first.rendered == second.rendered


class TestInvalidation:
    def test_code_edit_invalidates_every_entry(self, tmp_path, monkeypatch):
        small_grid().run(cache=tmp_path)
        monkeypatch.setattr(
            "repro.study.study.code_fingerprint",
            lambda root=None: "deadbeef" * 5,
            raising=False,
        )
        # study.py imports lazily inside run(); patch the source module.
        monkeypatch.setattr(
            "repro.study.cache.code_fingerprint", lambda root=None: "deadbeef" * 5
        )
        rerun = small_grid().run(cache=tmp_path)
        assert rerun.cache_info == CacheInfo(hits=0, misses=2, submitted_units=12)

    def test_lookup_with_explicit_fingerprints(self, tmp_path):
        definition = get_experiment("fig2")
        cache = StudyCache(tmp_path)
        result = Study("fig2", trials=2).run()
        cell = result.only()
        cache.store(definition, cell.params, cell, fingerprint="old-code")
        assert cache.lookup(definition, cell.params, "old-code") is not None
        assert cache.lookup(definition, cell.params, "new-code") is None

    def test_gc_collects_outdated_fingerprints(self, tmp_path):
        definition = get_experiment("fig2")
        cache = StudyCache(tmp_path)
        result = Study("fig2", trials=2).run()
        cell = result.only()
        cache.store(definition, cell.params, cell, fingerprint="old-code")
        cache.store(definition, cell.params, cell)  # current fingerprint
        removed, freed = cache.gc()
        assert removed == 1 and freed > 0
        assert len(cache.entries()) == 1
        removed, _freed = cache.gc(everything=True)
        assert removed == 1 and cache.entries() == []


class TestQuarantine:
    def stored_entry(self, tmp_path):
        cache = StudyCache(tmp_path)
        result = small_grid().run(cache=cache)
        assert result.cache_info.misses == 2
        return cache, cache.entries()

    def test_truncated_npz_is_quarantined_and_recomputed(self, tmp_path):
        cache, entries = self.stored_entry(tmp_path)
        victim = entries[0]
        victim.npz_path.write_bytes(victim.npz_path.read_bytes()[:64])
        rerun = small_grid().run(cache=cache)
        assert rerun.cache_info == CacheInfo(hits=1, misses=1, submitted_units=6)
        quarantined = list(cache.quarantine_dir.iterdir())
        assert any(path.name == victim.npz_path.name for path in quarantined)
        # The recompute re-stored a good entry: next run is all hits.
        third = small_grid().run(cache=cache)
        assert third.cache_info.submitted_units == 0

    def test_missing_npz_payload_is_a_miss_not_a_crash(self, tmp_path):
        cache, entries = self.stored_entry(tmp_path)
        entries[0].npz_path.unlink()
        rerun = small_grid().run(cache=cache)
        assert rerun.cache_info.hits == 1 and rerun.cache_info.misses == 1

    def test_wrong_experiment_behind_a_key_is_quarantined(self, tmp_path):
        cache, entries = self.stored_entry(tmp_path)
        other = Study("fig4", trials=1).run()
        foreign = StudyCache(tmp_path / "other")
        foreign.store(get_experiment("fig4"), other.only().params, other.only())
        foreign_entry = foreign.entries()[0]
        victim = entries[0]
        victim.json_path.write_bytes(foreign_entry.json_path.read_bytes())
        victim.npz_path.write_bytes(foreign_entry.npz_path.read_bytes())
        rerun = small_grid().run(cache=cache)
        assert rerun.cache_info.misses == 1
        assert cache.quarantine_dir.is_dir()

    def test_verify_reports_bad_entries(self, tmp_path):
        cache, entries = self.stored_entry(tmp_path)
        ok, bad = cache.verify()
        assert len(ok) == 2 and bad == []
        entries[0].npz_path.write_bytes(b"not an npz")
        ok, bad = cache.verify()
        assert len(ok) == 1 and len(bad) == 1
        assert entries[0].key == bad[0][0]

    def test_verify_catches_renamed_entries(self, tmp_path):
        cache, entries = self.stored_entry(tmp_path)
        victim = entries[0]
        fake = "0" * len(victim.key)
        for path in (victim.json_path, victim.npz_path, victim.meta_path):
            path.rename(path.with_name(path.name.replace(victim.key, fake)))
        ok, bad = cache.verify()
        assert len(ok) == 1
        assert [key for key, _reason in bad] == [fake]
        assert "key mismatch" in bad[0][1]

    def test_gc_sweeps_quarantine_and_temp_leftovers(self, tmp_path):
        cache, entries = self.stored_entry(tmp_path)
        entries[0].npz_path.write_bytes(b"junk")
        assert small_grid().run(cache=cache).cache_info.misses == 1
        (cache.entries_dir / "stray.npz.tmp-1-2").write_bytes(b"torn")
        removed, freed = cache.gc()
        assert freed > 0
        assert not cache.quarantine_dir.exists()
        assert not list(cache.entries_dir.glob("*.tmp-*"))


class TestConcurrency:
    def test_concurrent_runs_against_one_cache_dir(self, tmp_path):
        results = [None] * 4
        errors = []

        def worker(slot):
            try:
                results[slot] = small_grid().run(cache=tmp_path)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(slot,)) for slot in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        for other in results[1:]:
            assert_identical(results[0], other)
        # The cache converged to exactly the two cells, all complete.
        cache = StudyCache(tmp_path)
        entries = cache.entries()
        assert len(entries) == 2 and all(entry.complete() for entry in entries)
        assert cache.verify()[1] == []


class TestResolveCacheAndManifest:
    def test_resolve_cache_passthrough_and_env(self, tmp_path, monkeypatch):
        cache = StudyCache(tmp_path)
        assert resolve_cache(cache) is cache
        assert resolve_cache(str(tmp_path)).root == tmp_path
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert resolve_cache(None) is None
        monkeypatch.setenv("REPRO_CACHE", "")
        assert resolve_cache(None) is None
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        assert resolve_cache(None).root == tmp_path

    def test_manifest_is_json_safe_and_complete(self, tmp_path):
        cache = StudyCache(tmp_path)
        small_grid().run(cache=cache)
        manifest = cache.manifest()
        json.dumps(manifest)  # must not raise
        assert manifest["cache_version"] == CACHE_VERSION
        assert len(manifest["entries"]) == 2
        for entry in manifest["entries"]:
            assert entry["complete"] is True
            assert entry["experiment"] == "fig2"
            assert entry["size_bytes"] > 0

    def test_cached_cell_columns_are_real_ndarrays(self, tmp_path):
        small_grid().run(cache=tmp_path)
        served = small_grid().run(cache=tmp_path)
        for cell in served.cells:
            for columns in cell.columns.values():
                for column in columns.values():
                    assert isinstance(column, np.ndarray)


class TestRetentionGC:
    """`repro cache gc --max-bytes/--max-age`: bounded oldest-first."""

    def _stamp(self, cache: StudyCache, created: dict[str, int]) -> None:
        """Rewrite each entry's created_unix for deterministic aging."""
        for entry in cache.entries():
            meta = dict(entry.meta)
            meta["created_unix"] = created[entry.key]
            entry.meta_path.write_text(json.dumps(meta, sort_keys=True))

    def _filled_cache(self, tmp_path) -> tuple[StudyCache, list[str]]:
        """Three valid entries, stamped oldest -> newest in key order."""
        cache = StudyCache(tmp_path / "cache")
        Study("fig2", trials=1).grid(seed=[2014, 2015, 2016]).run(cache=cache)
        keys = [entry.key for entry in cache.entries()]
        assert len(keys) == 3
        self._stamp(
            cache, {key: 1_000 + 100 * index for index, key in enumerate(keys)}
        )
        return cache, keys

    def test_max_age_evicts_only_the_old(self, tmp_path):
        cache, keys = self._filled_cache(tmp_path)
        # now=86400*2+1150: entries at t=1000,1100 are older than 1 day,
        # the one at t=1200 is not.
        removed, freed = cache.gc(max_age_days=1.0, now=86400.0 + 1150.0)
        assert removed == 2
        assert freed > 0
        assert [entry.key for entry in cache.entries()] == [keys[2]]

    def test_max_bytes_evicts_oldest_first(self, tmp_path):
        cache, keys = self._filled_cache(tmp_path)
        sizes = {entry.key: entry.size_bytes() for entry in cache.entries()}
        budget = sizes[keys[1]] + sizes[keys[2]]
        removed, freed = cache.gc(max_bytes=budget, now=2_000.0)
        assert removed == 1
        assert freed == sizes[keys[0]]
        survivors = {entry.key for entry in cache.entries()}
        assert survivors == {keys[1], keys[2]}

    def test_zero_budget_clears_everything(self, tmp_path):
        cache, _keys = self._filled_cache(tmp_path)
        removed, _freed = cache.gc(max_bytes=0, now=2_000.0)
        assert removed == 3
        assert cache.entries() == []

    def test_bounds_spare_a_cache_within_budget(self, tmp_path):
        cache, keys = self._filled_cache(tmp_path)
        removed, freed = cache.gc(
            max_bytes=10**9, max_age_days=365.0, now=2_000.0
        )
        assert (removed, freed) == (0, 0)
        assert [entry.key for entry in cache.entries()] == keys

    def test_bounded_survivors_still_serve_hits(self, tmp_path):
        cache = StudyCache(tmp_path / "cache")
        Study("fig2", trials=1).grid(seed=[2014, 2015]).run(cache=cache)
        entries = cache.entries()
        budget = max(entry.size_bytes() for entry in entries) + 8
        cache.gc(max_bytes=budget)
        again = Study("fig2", trials=1).grid(seed=[2014, 2015]).run(cache=cache)
        assert again.cache_info is not None
        assert again.cache_info.hits == 1
        assert again.cache_info.misses == 1
