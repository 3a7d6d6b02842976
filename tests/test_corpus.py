"""Tests for repro.corpus: ingest, dedup, cross-run analyses, CLI.

The module fixture builds a small family of runs -- one workload at
three scales plus an unrelated workload -- because scaled runs of the
same program are exactly the sharing case the corpus exists for:
smaller runs' bodies, dictionaries, and DCG prefix chunks all reappear
in larger runs.
"""

import sqlite3
from collections import Counter
from pathlib import Path

import pytest

import repro.corpus.corpus as corpus_module
from repro.api import Session
from repro.analysis.hotpaths import path_profile_compacted
from repro.compact.delta import diff_twpp_files
from repro.corpus import (
    KIND_BODY,
    KIND_DCG,
    KIND_DICT,
    TraceCorpus,
    decode_manifest,
)
from repro.corpus.catalog import CatalogTransaction
from repro.trace import collect_wpp, partition_wpp
from repro.workloads import workload

RUN_SCALES = (("li-a", 0.05), ("li-b", 0.08), ("li-c", 0.1))


def write_twpp(session, root, name, workload_name, scale):
    program, _spec = workload(workload_name, scale=scale)
    path = root / f"{name}.twpp"
    session.compact(partition_wpp(collect_wpp(program))).save(path)
    return path


@pytest.fixture(scope="module")
def corpus_env(tmp_path_factory):
    """(session, corpus, {run: twpp path}) with four ingested runs."""
    root = tmp_path_factory.mktemp("corpus")
    session = Session()
    paths = {}
    for name, scale in RUN_SCALES:
        paths[name] = write_twpp(session, root, name, "li-like", scale)
    paths["ijpeg"] = write_twpp(session, root, "ijpeg", "ijpeg-like", 0.05)
    corpus = TraceCorpus(root / "corpus", session=session)
    results = corpus.ingest_runs([paths[name] for name in paths])
    yield session, corpus, paths, results
    corpus.close()
    session.close()


class TestIngest:
    def test_every_run_catalogued(self, corpus_env):
        _, corpus, paths, results = corpus_env
        assert [r.run for r in corpus.runs()] == list(paths)
        assert len(results) == len(paths)
        for result in results:
            assert result.twpp_bytes > 0
            assert result.functions > 0 and result.pairs > 0

    def test_scaled_runs_share_blobs(self, corpus_env):
        _, corpus, _, results = corpus_env
        by_run = {r.run: r for r in results}
        # The first run of the family is all-new; later scales share.
        assert by_run["li-a"].blobs_shared == 0
        assert by_run["li-b"].blobs_shared > 0
        assert by_run["li-c"].blobs_shared > by_run["li-c"].blobs_added

    def test_reingest_identical_content_adds_zero_blobs(
        self, corpus_env, tmp_path
    ):
        session, _, paths, _ = corpus_env
        with TraceCorpus(tmp_path / "c", session=session) as corpus:
            first = corpus.ingest(paths["li-a"], run="one")
            again = corpus.ingest(paths["li-a"], run="two")
            assert first.blobs_added > 0
            assert again.blobs_added == 0 and again.bytes_added == 0
            assert again.blobs_shared == first.blobs_added
            # The duplicate costs only its manifest.
            assert again.compaction_factor > first.compaction_factor

    def test_duplicate_and_invalid_run_names_rejected(self, corpus_env):
        _, corpus, paths, _ = corpus_env
        with pytest.raises(ValueError, match="already in corpus"):
            corpus.ingest(paths["li-a"], run="li-a")
        with pytest.raises(ValueError, match="invalid run name"):
            corpus.ingest(paths["li-a"], run="../escape")
        with pytest.raises(ValueError, match="duplicate run names"):
            corpus.ingest_runs(
                [paths["li-a"], paths["li-b"]], runs=["x", "x"]
            )

    def test_pooled_ingest_matches_serial_byte_for_byte(
        self, corpus_env, tmp_path
    ):
        session, _, paths, _ = corpus_env
        ordered = sorted(paths.values())
        with TraceCorpus(tmp_path / "serial", session=session) as serial:
            serial.ingest_runs(ordered, jobs=1)
        with TraceCorpus(tmp_path / "pooled", session=session) as pooled:
            pooled.ingest_runs(ordered, jobs=2)
        assert (tmp_path / "serial" / "blobs.pack").read_bytes() == (
            tmp_path / "pooled" / "blobs.pack"
        ).read_bytes()
        for manifest in sorted((tmp_path / "serial" / "runs").iterdir()):
            twin = tmp_path / "pooled" / "runs" / manifest.name
            assert manifest.read_bytes() == twin.read_bytes()


class TestServing:
    def test_traces_identical_to_twpp_reads(self, corpus_env):
        session, corpus, paths, _ = corpus_env
        for run, path in paths.items():
            engine = session.engine(path)
            for name in corpus.functions(run):
                assert corpus.traces(run, name) == engine.traces(name), (
                    run,
                    name,
                )

    def test_dcg_identical_to_twpp_read(self, corpus_env):
        session, corpus, paths, _ = corpus_env
        for run, path in paths.items():
            expected = session.engine(path).dcg()
            assert corpus.dcg(run).serialize() == expected.serialize()

    def test_functions_in_original_index_order(self, corpus_env):
        session, corpus, paths, _ = corpus_env
        engine = session.engine(paths["li-a"])
        by_original = sorted(
            engine.header.entries, key=lambda e: e.original_index
        )
        assert corpus.functions("li-a") == [e.name for e in by_original]

    def test_unknown_run_and_function_raise(self, corpus_env):
        _, corpus, _, _ = corpus_env
        with pytest.raises(KeyError):
            corpus.run("nosuch")
        with pytest.raises(KeyError):
            corpus.traces("nosuch", "main")
        with pytest.raises(KeyError):
            corpus.traces("li-a", "nosuch_function")


class TestAnalyses:
    def test_diff_matches_file_based_diff(self, corpus_env):
        _, corpus, paths, _ = corpus_env
        delta = corpus.diff("li-a", "li-c")
        reference = diff_twpp_files(paths["li-a"], paths["li-c"])
        assert delta.render(limit=50) == reference.render(limit=50)

    def test_diff_against_self_is_empty(self, corpus_env):
        _, corpus, _, _ = corpus_env
        delta = corpus.diff("li-a", "li-a")
        assert not delta.only_in_a and not delta.only_in_b
        for fd in delta.functions.values():
            assert not fd.only_in_a and not fd.only_in_b

    def test_single_run_hot_paths_match_compacted_profile(self, corpus_env):
        _, corpus, paths, _ = corpus_env
        profile = corpus.hot_paths(runs=["li-b"])
        reference = path_profile_compacted(paths["li-b"])
        assert profile.counts == reference.counts

    def test_corpus_hot_paths_sum_across_runs(self, corpus_env):
        _, corpus, paths, _ = corpus_env
        combined = corpus.hot_paths(runs=["li-a", "ijpeg"])
        expected = {}
        for run in ("li-a", "ijpeg"):
            for key, count in path_profile_compacted(
                paths[run]
            ).counts.items():
                expected[key] = expected.get(key, 0) + count
        assert combined.counts == expected

    def test_hot_paths_function_filter(self, corpus_env):
        _, corpus, _, _ = corpus_env
        name = corpus.functions("li-a")[0]
        profile = corpus.hot_paths(functions=[name])
        assert profile.counts
        assert {func for func, _ in profile.counts} == {name}

    def test_block_frequencies_match_expanded_reference(self, corpus_env):
        session, corpus, paths, _ = corpus_env
        got = corpus.block_frequencies(runs=["li-a"])
        expected = {}
        engine = session.engine(paths["li-a"])
        dcg = engine.dcg()
        weights = {}
        for func_idx, pair_id in zip(dcg.node_func, dcg.node_trace):
            weights[(func_idx, pair_id)] = (
                weights.get((func_idx, pair_id), 0) + 1
            )
        for entry in engine.header.entries:
            fc = engine.extract(entry.name)
            for pair_id in range(len(fc.pairs)):
                weight = weights.get((entry.original_index, pair_id), 0)
                if not weight:
                    continue
                for block in fc.expand_pair(pair_id):
                    key = (entry.name, block)
                    expected[key] = expected.get(key, 0) + weight
        assert got == expected

    def test_analyses_validate_run_names(self, corpus_env):
        _, corpus, _, _ = corpus_env
        with pytest.raises(KeyError):
            corpus.hot_paths(runs=["nosuch"])
        with pytest.raises(KeyError):
            corpus.diff("li-a", "nosuch")


class TestStorage:
    def test_stats_report(self, corpus_env):
        _, corpus, paths, _ = corpus_env
        report = corpus.stats()
        assert len(report["runs"]) == len(paths)
        assert report["twpp_bytes"] > report["corpus_bytes"] > 0
        assert report["compaction_factor"] > 1.0
        assert set(report["blobs"]) == {"body", "dict", "dcg"}
        for kind in report["blobs"].values():
            assert kind["count"] > 0 and kind["bytes"] > 0

    def test_pack_replay_matches_catalog(self, corpus_env):
        _, corpus, _, _ = corpus_env
        replayed = list(corpus._pack.iter_records())
        assert len(replayed) == sum(
            count for count, _ in corpus._catalog.blob_totals().values()
        )
        for sha, kind, offset, length in replayed:
            row = corpus._catalog.blob_id(sha)
            assert row is not None
            assert (row[1], row[2], row[3]) == (kind, offset, length)
            assert kind in (KIND_BODY, KIND_DICT, KIND_DCG)

    def test_manifest_files_decode(self, corpus_env):
        _, corpus, paths, _ = corpus_env
        for record in corpus.runs():
            manifest = decode_manifest(
                (corpus.root / "runs" / f"{record.run}.manifest").read_bytes()
            )
            assert manifest.run == record.run
            assert len(manifest.functions) == record.functions
            assert manifest.dcg_nodes == record.dcg_nodes

    def test_corpus_reopens_from_disk(self, corpus_env):
        _, corpus, paths, _ = corpus_env
        with TraceCorpus(corpus.root) as reopened:
            assert [r.run for r in reopened.runs()] == list(paths)
            name = reopened.functions("li-a")[0]
            assert reopened.traces("li-a", name) == corpus.traces(
                "li-a", name
            )

    def test_corrupt_pack_detected(self, corpus_env, tmp_path):
        session, _, paths, _ = corpus_env
        with TraceCorpus(tmp_path / "c", session=session) as corpus:
            corpus.ingest(paths["li-a"], run="r")
            pack = tmp_path / "c" / "blobs.pack"
            data = bytearray(pack.read_bytes())
            data[-1] ^= 0xFF  # flip one payload byte
            pack.write_bytes(bytes(data))
        with TraceCorpus(tmp_path / "c", session=session) as corpus:
            # The last record appended is a DCG chunk (digest blob
            # order puts them after every body and dictionary).
            with pytest.raises(ValueError, match="content check"):
                corpus.dcg("r")


def committed_rows(root):
    """Every committed catalog row, read through a second connection."""
    db = sqlite3.connect(str(root / "corpus.sqlite"))
    try:
        return {
            table: db.execute(f"SELECT * FROM {table} ORDER BY rowid").fetchall()
            for table in ("blobs", "runs", "functions", "pairs", "dcg_chunks")
        }
    finally:
        db.close()


def assert_pack_replays_to_catalog(corpus):
    replayed = list(corpus._pack.iter_records())
    assert len(replayed) == sum(
        count for count, _ in corpus._catalog.blob_totals().values()
    )
    for sha, kind, offset, length in replayed:
        row = corpus._catalog.blob_id(sha)
        assert row is not None
        assert (row[1], row[2], row[3]) == (kind, offset, length)


def assert_refs_count_manifests(corpus):
    """Each blob's refs is the number of runs whose manifest uses it."""
    uses = Counter()
    for record in corpus.runs():
        manifest = decode_manifest(Path(record.manifest_path).read_bytes())
        ids = set(manifest.dcg_chunks)
        for fn in manifest.functions:
            ids.update(fn.bodies)
            ids.update(fn.dicts)
        uses.update(ids)
    refs = {
        blob_id: refs
        for blob_id, _sha, _kind, _offset, _length, refs in committed_rows(
            corpus.root
        )["blobs"]
    }
    assert refs == dict(uses)


def fail_manifest_encode(monkeypatch):
    def boom(manifest):
        raise RuntimeError("injected failure before the manifest")

    monkeypatch.setattr(corpus_module, "encode_manifest", boom)


def fail_run_insert(monkeypatch):
    def boom(self, *args):
        raise RuntimeError("injected failure at the run row")

    monkeypatch.setattr(CatalogTransaction, "add_run", boom)


class TestIngestTransaction:
    @pytest.mark.parametrize(
        "inject", [fail_manifest_encode, fail_run_insert]
    )
    def test_failed_ingest_leaves_nothing_behind(
        self, corpus_env, tmp_path, monkeypatch, inject
    ):
        session, _, paths, _ = corpus_env
        with TraceCorpus(tmp_path / "clean", session=session) as clean:
            clean.ingest(paths["li-a"], run="a")
            expected = clean.ingest(paths["li-b"], run="b")
        with TraceCorpus(tmp_path / "c", session=session) as corpus:
            corpus.ingest(paths["li-a"], run="a")
            rows = committed_rows(corpus.root)
            pack_size = corpus._pack.size()
            with monkeypatch.context() as patch:
                inject(patch)
                with pytest.raises(RuntimeError, match="injected"):
                    corpus.ingest(paths["li-b"], run="b")
            assert committed_rows(corpus.root) == rows
            assert corpus._pack.size() == pack_size
            assert not (corpus.root / "runs" / "b.manifest").exists()
            assert_pack_replays_to_catalog(corpus)
            assert_refs_count_manifests(corpus)

            # The retry is indistinguishable from a clean ingest.
            assert corpus.ingest(paths["li-b"], run="b") == expected
        for name in ("blobs.pack", "runs/a.manifest", "runs/b.manifest"):
            assert (tmp_path / "c" / name).read_bytes() == (
                tmp_path / "clean" / name
            ).read_bytes()

    def test_refs_count_manifest_references(self, corpus_env, tmp_path):
        session, corpus, paths, _ = corpus_env
        assert_refs_count_manifests(corpus)  # serial ingest_runs
        with TraceCorpus(tmp_path / "pooled", session=session) as pooled:
            pooled.ingest_runs(list(paths.values()), jobs=2)
            assert_refs_count_manifests(pooled)
        with TraceCorpus(tmp_path / "again", session=session) as again:
            again.ingest(paths["li-a"], run="one")
            again.ingest(paths["li-b"], run="two")
            again.ingest(paths["li-a"], run="three")
            assert_refs_count_manifests(again)

    def test_one_commit_per_ingested_run(self, corpus_env, tmp_path):
        session, _, paths, _ = corpus_env
        with TraceCorpus(tmp_path / "c", session=session) as corpus:
            statements = []
            corpus._catalog._db.set_trace_callback(statements.append)
            corpus.ingest(paths["li-a"], run="one")
            corpus.ingest(paths["li-a"], run="two")  # every blob shared
            corpus.ingest_runs([paths["li-b"], paths["ijpeg"]])
            corpus._catalog._db.set_trace_callback(None)
        assert statements.count("COMMIT") == 4
        assert "ROLLBACK" not in statements

    def test_scan_does_not_pin_engines(self, corpus_env, tmp_path):
        _, _, paths, _ = corpus_env
        with Session() as session, session.corpus(tmp_path / "c") as corpus:
            corpus.ingest(paths["li-a"], run="cold")
            assert len(session._engines) == 0

            warm = session.engine(paths["li-b"])
            warm.traces(warm.header.entries[0].name)
            corpus.ingest(paths["li-b"], run="warm")
            assert session._engines == {str(paths["li-b"]): warm}
            assert warm.cache_stats()["bytes"] > 0

    def test_pooled_scan_does_not_pin_worker_engines(
        self, corpus_env, tmp_path
    ):
        _, _, paths, _ = corpus_env
        with Session(jobs=2) as session, \
                session.corpus(tmp_path / "c") as corpus:
            corpus.ingest_runs([paths["li-a"], paths["li-b"]])
            stats = session.pool().worker_stats()
            assert session.metrics.counter("corpus.scan_pooled") == 2
            assert all(worker["caches"] == {} for worker in stats)


class TestSessionFacade:
    def test_session_corpus_shares_metrics(self, corpus_env, tmp_path):
        with Session() as session:
            _, _, paths, _ = corpus_env
            with session.corpus(tmp_path / "c") as corpus:
                corpus.ingest(paths["li-a"], run="r")
            assert session.metrics.counter("corpus.runs_ingested") == 1

    def test_session_ingest_run_verb(self, corpus_env, tmp_path):
        _, _, paths, _ = corpus_env
        with Session() as session:
            result = session.ingest_run(
                tmp_path / "c", paths["li-a"], run="r"
            )
            assert result.run == "r" and result.blobs_added > 0


class TestCli:
    @pytest.fixture(scope="class")
    def cli_root(self, corpus_env, tmp_path_factory):
        from repro.cli import main

        _, _, paths, _ = corpus_env
        root = tmp_path_factory.mktemp("cli-corpus")
        corpus_dir = root / "corpus"
        rc = main(
            ["corpus", "ingest", str(corpus_dir)]
            + [str(paths[name]) for name in ("li-a", "li-c")]
        )
        assert rc == 0
        return corpus_dir

    def test_ingest_reports_compaction(self, cli_root, capsys):
        from repro.cli import main

        assert main(["corpus", "stats", str(cli_root)]) == 0
        out = capsys.readouterr().out
        assert "li-a" in out and "li-c" in out
        assert "blobs[body]" in out and "total:" in out

    def test_diff_exit_codes_and_parity(self, corpus_env, cli_root, capsys):
        from repro.cli import main

        _, _, paths, _ = corpus_env
        rc = main(["corpus", "diff", str(cli_root), "li-a", "li-c"])
        corpus_out = capsys.readouterr().out
        file_rc = main(["diff", str(paths["li-a"]), str(paths["li-c"])])
        file_out = capsys.readouterr().out
        assert rc == file_rc == 1
        assert corpus_out == file_out
        assert main(["corpus", "diff", str(cli_root), "li-a", "li-a"]) == 0

    def test_hot_prints_profile(self, cli_root, capsys):
        from repro.cli import main

        assert main(["corpus", "hot", str(cli_root), "--top", "3"]) == 0
        assert capsys.readouterr().out.strip()

    def test_unknown_run_is_a_clean_error(self, cli_root, capsys):
        from repro.cli import main

        assert main(["corpus", "diff", str(cli_root), "li-a", "nosuch"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_hot_json_is_the_daemon_document(self, cli_root, capsys):
        """``corpus hot --json`` and ``GET /corpus/hot`` share one shape."""
        import json

        from repro.cli import main
        from repro.corpus import TraceCorpus, hot_doc

        assert main(
            ["corpus", "hot", str(cli_root), "--top", "3", "--json"]
        ) == 0
        out = capsys.readouterr().out
        with TraceCorpus(cli_root) as corpus:
            expected = hot_doc(corpus.hot_paths(), top=3)
        assert json.loads(out) == expected

    def test_diff_json_is_the_daemon_document(self, cli_root, capsys):
        import json

        from repro.cli import main
        from repro.corpus import TraceCorpus, diff_doc

        rc = main(
            ["corpus", "diff", str(cli_root), "li-a", "li-c", "--json"]
        )
        out = capsys.readouterr().out
        with TraceCorpus(cli_root) as corpus:
            delta = corpus.diff("li-a", "li-c")
        assert rc == 1  # still signals "runs differ" in json mode
        assert json.loads(out) == diff_doc(delta)
