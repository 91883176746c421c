"""Crash- and concurrency-safety of the shared cache directory.

Two or more runner processes may share one ``--cache-dir``; these tests
pin the repairs that make that safe:

* ``ResultCache.put`` publishes through a *unique* temporary name —
  the old fixed ``<key>.tmp`` let two writers interleave ``write`` and
  ``replace`` and publish a torn entry;
* stale temporaries are swept when a cache opens, and garbage entries
  are unlinked on read so the slot repairs itself;
* the failure log is append-only JSONL with a tolerant reader — a torn
  tail loses one line, not the whole history.
"""

import json
import threading

from repro.runner import ResultCache
from repro.runner import GridRunner, load_failure_records


def entry_for(cache, key, value):
    cache.put(key, {"p": key}, {"value": value})


class TestAtomicPut:
    def test_put_then_get_round_trips(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "a" * 64
        entry_for(cache, key, 1)
        assert cache.get(key) == {"value": 1}

    def test_no_fixed_name_temporary_is_used(self, tmp_path):
        """A crashed writer must never block a later writer of the same
        key: every put creates a fresh uniquely-named temporary."""
        cache = ResultCache(tmp_path)
        key = "b" * 64
        # Plant a file at the old fixed temp name; a put of the same key
        # must neither reuse nor trip over it.
        planted = tmp_path / f"{key}.tmp"
        planted.write_text("stale half-written junk")
        entry_for(cache, key, 2)
        assert cache.get(key) == {"value": 2}
        assert planted.read_text() == "stale half-written junk"

    def test_concurrent_puts_of_one_key_never_tear(self, tmp_path):
        """Hammer one key from several threads while a reader polls:
        every read must see either a miss or one of the complete
        entries — never a torn mixture."""
        cache = ResultCache(tmp_path)
        key = "c" * 64
        payload = {"blob": "x" * 4096}
        stop = threading.Event()
        torn = []

        def writer(value):
            while not stop.is_set():
                cache.put(key, {"p": key}, {"value": value, **payload})

        def reader():
            while not stop.is_set():
                result = cache.get(key)
                if result is None:
                    continue
                if result.get("blob") != payload["blob"] or (
                    result.get("value") not in (1, 2, 3)
                ):
                    torn.append(result)
                    stop.set()

        threads = [threading.Thread(target=writer, args=(v,)) for v in (1, 2, 3)]
        threads.append(threading.Thread(target=reader))
        for thread in threads:
            thread.start()
        stop.wait(timeout=2.0)
        stop.set()
        for thread in threads:
            thread.join()
        assert torn == []
        assert list(tmp_path.glob("*.tmp")) == []

    def test_no_temporaries_survive_a_put(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(10):
            entry_for(cache, f"{i:064d}", i)
        assert list(tmp_path.glob("*.tmp")) == []


class TestSelfRepair:
    def test_stale_temporaries_are_swept_on_open(self, tmp_path):
        (tmp_path / ("d" * 64 + ".abc123.tmp")).write_text("orphan")
        (tmp_path / ("e" * 64 + ".zzz.tmp")).write_text("orphan")
        ResultCache(tmp_path)
        assert list(tmp_path.glob("*.tmp")) == []

    def test_truncated_entry_is_a_miss_and_is_unlinked(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "f" * 64
        entry_for(cache, key, 1)
        path = tmp_path / f"{key}.json"
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # torn write of old code
        assert cache.get(key) is None
        assert not path.exists()  # repaired: next put recreates it
        entry_for(cache, key, 2)
        assert cache.get(key) == {"value": 2}

    def test_garbage_entry_is_a_miss_and_is_unlinked(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "9" * 64
        (tmp_path / f"{key}.json").write_text("\x00\x00 not json")
        assert cache.get(key) is None
        assert not (tmp_path / f"{key}.json").exists()

    def test_non_dict_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "8" * 64
        (tmp_path / f"{key}.json").write_text("[1, 2, 3]")
        assert cache.get(key) is None


class TestFailureLog:
    def run_failing_point(self, tmp_path, monkeypatch):
        import repro.runner.grid as grid_module

        def broken(payload):
            raise RuntimeError("boom")

        monkeypatch.setattr(grid_module, "_execute_point", broken)
        from repro.runner import tm_point

        runner = GridRunner(jobs=1, retries=0, cache_dir=tmp_path)
        runner.run([tm_point("mc", txns_per_thread=2)], allow_failures=True)

    def test_failures_are_appended_as_jsonl(self, tmp_path, monkeypatch):
        self.run_failing_point(tmp_path, monkeypatch)
        self.run_failing_point(tmp_path, monkeypatch)
        lines = (tmp_path / "failures.jsonl").read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert record["error"] == "RuntimeError: boom"
        assert not (tmp_path / "failures.json").exists()

    def test_reader_survives_a_torn_tail(self, tmp_path, monkeypatch):
        self.run_failing_point(tmp_path, monkeypatch)
        path = tmp_path / "failures.jsonl"
        with open(path, "a", encoding="utf-8") as stream:
            stream.write('{"key": "half-written')  # killed mid-append
        records = load_failure_records(tmp_path)
        assert len(records) == 1
        assert records[0].error == "RuntimeError: boom"

    def test_reader_on_an_empty_directory(self, tmp_path):
        assert load_failure_records(tmp_path) == []


class TestFailureLogWarnings:
    """Malformed log content is reported with file:line, never silently
    skipped — a corrupted failure log hiding real failure history is
    itself a failure worth surfacing."""

    def test_malformed_interior_line_warns_with_file_and_line(
        self, tmp_path
    ):
        path = tmp_path / "failures.jsonl"
        good = ('{"key": "k", "attempt": 1, "error": "E: x",'
                ' "traceback": "tb"}')
        path.write_text(f"{good}\n{{torn json\n{good}\n")
        seen = []
        records = load_failure_records(tmp_path, warn=seen.append)
        assert len(records) == 2
        assert len(seen) == 1
        assert seen[0].startswith(f"{path}:2: malformed failure record")

    def test_wrong_shape_line_warns(self, tmp_path):
        (tmp_path / "failures.jsonl").write_text('["not", "a", "dict"]\n')
        seen = []
        assert load_failure_records(tmp_path, warn=seen.append) == []
        assert len(seen) == 1
        assert "not a failure record" in seen[0]

    def test_torn_tail_stays_silent(self, tmp_path):
        """An unterminated final line is normal crash residue of a
        killed writer, not corruption worth warning about."""
        (tmp_path / "failures.jsonl").write_text('{"key": "half')
        seen = []
        assert load_failure_records(tmp_path, warn=seen.append) == []
        assert seen == []

    def test_default_warn_goes_through_the_warnings_module(
        self, tmp_path, recwarn
    ):
        (tmp_path / "failures.jsonl").write_text("{torn\n")
        load_failure_records(tmp_path)
        assert len(recwarn) == 1
        assert "malformed failure record" in str(recwarn[0].message)
