import json
import math

import numpy as np
import pytest

from reviewfunnel import cli
from reviewfunnel.cli import main
from reviewfunnel.corpus import PROVENANCES, load_corpus, load_labels
from reviewfunnel.labeling import KnownStore, LabelBatch
from reviewfunnel.pipeline import compute_metrics

GEN_CONFIG = {
    "schema_version": 2,
    "kind": "generator",
    "n_clusters": 30,
    "cluster_size_mean": 8,
    "positive_cluster_rate": 0.2,
    "n_accounts": 25,
    "rng_seed": 17,
}

RUN_CONFIG = {
    "schema_version": 2,
    "kind": "pipeline",
    "rounds": 2,
    "budget_per_round": 6,
    "bootstrap_seeds": 3,
    "graph_mode": "exact",
    "oracle": {"tpr": 1.0, "tnr": 1.0, "seed": 0},
}


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


@pytest.fixture
def corpus_file(tmp_path):
    config = write_json(tmp_path / "gen.json", GEN_CONFIG)
    out = tmp_path / "corpus.jsonl"
    assert main(["generate", "--config", config, "--out", str(out)]) == 0
    return out


class TestGenerate:
    def test_generates_file_and_summary(self, tmp_path, capsys):
        config = write_json(tmp_path / "gen.json", GEN_CONFIG)
        out = tmp_path / "corpus.jsonl"
        assert main(["generate", "--config", config, "--out", str(out)]) == 0
        assert out.exists()
        summary = capsys.readouterr().out
        assert "items" in summary and "positive rate" in summary

    def test_deterministic_bytes(self, tmp_path):
        config = write_json(tmp_path / "gen.json", GEN_CONFIG)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["generate", "--config", config, "--out", str(a)])
        main(["generate", "--config", config, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        doc = dict(GEN_CONFIG, dup_fraction=3.0)
        config = write_json(tmp_path / "gen.json", doc)
        code = main(["generate", "--config", config, "--out", str(tmp_path / "c")])
        assert code == 2
        assert "dup_fraction" in capsys.readouterr().err

    def test_failed_write_keeps_previous_corpus(self, tmp_path, monkeypatch):
        config = write_json(tmp_path / "gen.json", GEN_CONFIG)
        out = tmp_path / "corpus.jsonl"
        assert main(["generate", "--config", config, "--out", str(out)]) == 0
        before = out.read_bytes()

        def half_then_fail(corpus, path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write('{"item_id": 0}\n')  # a whole line: loads as a smaller corpus
            raise OSError("disk full")

        monkeypatch.setattr(cli, "save_corpus", half_then_fail)
        assert main(["generate", "--config", config, "--out", str(out)]) == 3
        assert out.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "gen.json"]

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        doc = dict(GEN_CONFIG, turbo=True)
        config = write_json(tmp_path / "gen.json", doc)
        code = main(["generate", "--config", config, "--out", str(tmp_path / "c")])
        assert code == 2
        assert "turbo" in capsys.readouterr().err


class TestRun:
    def run_once(self, tmp_path, corpus_file, out_name="run", config_doc=None):
        config = write_json(tmp_path / f"{out_name}.config.json", config_doc or RUN_CONFIG)
        out = tmp_path / out_name
        code = main([
            "run", "--corpus", str(corpus_file), "--config", config, "--out", str(out)
        ])
        return code, out

    def test_outputs_and_summary(self, tmp_path, corpus_file, capsys):
        code, out = self.run_once(tmp_path, corpus_file)
        assert code == 0
        for name in ("manifest.json", "metrics.json", "labels.jsonl", "audit.jsonl"):
            assert (out / name).exists()
        lines = capsys.readouterr().out.strip().splitlines()
        round_lines = [l for l in lines if l.startswith("round ")]
        assert len(round_lines) == 2
        assert "cumulative_recall=" in round_lines[0]

    def test_manifest_completed_and_rerunnable(self, tmp_path, corpus_file):
        code, out = self.run_once(tmp_path, corpus_file)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "completed"
        assert manifest["finished_at"] is not None
        assert manifest["corpus"]["content_hash"]
        # rerun straight from the manifest: byte-identical metrics
        rerun_out = tmp_path / "rerun"
        code = main([
            "run", "--config", str(out / "manifest.json"), "--out", str(rerun_out)
        ])
        assert code == 0
        assert (out / "metrics.json").read_bytes() == (rerun_out / "metrics.json").read_bytes()
        assert (out / "labels.jsonl").read_bytes() == (rerun_out / "labels.jsonl").read_bytes()

    def snapshot(self, out):
        return {path.name: path.read_bytes() for path in sorted(out.iterdir())}

    def test_replay_refuses_changed_corpus(self, tmp_path, corpus_file, capsys):
        code, out = self.run_once(tmp_path, corpus_file)
        assert code == 0
        before = self.snapshot(out)
        lines = corpus_file.read_text().splitlines()
        doc = json.loads(lines[3])
        doc["account_id"] += 1
        lines[3] = json.dumps(doc)
        corpus_file.write_text("\n".join(lines) + "\n")
        manifest = str(out / "manifest.json")
        # into the run's own directory and into a new one: nothing is written
        assert main(["run", "--config", manifest, "--out", str(out)]) == 2
        assert "differs from the manifest" in capsys.readouterr().err
        assert self.snapshot(out) == before
        assert main(["run", "--config", manifest, "--out", str(tmp_path / "new")]) == 2
        assert not (tmp_path / "new").exists()

    def test_replay_refuses_changed_item_count(self, tmp_path, corpus_file):
        _, out = self.run_once(tmp_path, corpus_file)
        doc = json.loads((out / "manifest.json").read_text())
        doc["corpus"]["items"] += 1
        manifest = write_json(tmp_path / "edited.json", doc)
        assert main(["run", "--config", manifest, "--out", str(tmp_path / "new")]) == 2
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("victim", ["manifest.json", "metrics.json", "labels.jsonl"])
    def test_failed_write_keeps_previous_outputs(self, tmp_path, corpus_file, monkeypatch,
                                                 victim):
        _, out = self.run_once(tmp_path, corpus_file)
        before = self.snapshot(out)
        write_text, save_labels = cli.Path.write_text, cli.save_labels

        def half_then_fail(path, write):
            # a temp file is named after its target; fail that one mid-write
            if victim not in path.name:
                return write()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write('{"half": ')
            raise OSError("disk full")

        monkeypatch.setattr(cli.Path, "write_text", lambda path, *a, **k: half_then_fail(
            path, lambda: write_text(path, *a, **k)))
        monkeypatch.setattr(cli, "save_labels", lambda records, path: half_then_fail(
            path, lambda: save_labels(records, path)))
        config = str(tmp_path / "run.config.json")
        code = main(["run", "--corpus", str(corpus_file), "--config", config, "--out", str(out)])
        assert code == 3
        after = self.snapshot(out)
        if victim == "manifest.json":
            # the manifest that describes the earlier outputs still stands
            assert after == before
            return
        manifest = json.loads(after.pop("manifest.json"))
        assert manifest["status"] == "failed" and "disk full" in manifest["error"]
        # no temp file, no victim, and no output of the earlier run
        assert sorted(after) == {"metrics.json": [], "labels.jsonl": ["metrics.json"]}[victim]
        for name, data in after.items():
            assert json.loads(data)["corpus_hash"] == manifest["corpus"]["content_hash"]

    def test_failed_run_leaves_no_earlier_outputs(self, tmp_path, corpus_file):
        # a run of another corpus fails in the directory of a completed run
        code, out = self.run_once(tmp_path, corpus_file)
        assert code == 0
        raw = tmp_path / "raw.jsonl"
        raw.write_text("".join(json.dumps(dict(json.loads(line), ground_truth=None)) + "\n"
                               for line in corpus_file.read_text().splitlines()))
        config = str(tmp_path / "run.config.json")
        assert main(["run", "--corpus", str(raw), "--config", config, "--out", str(out)]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["corpus"]["content_hash"] == load_corpus(raw).content_hash
        assert [path.name for path in out.iterdir()] == ["manifest.json"]

    def test_failed_delete_is_recorded(self, tmp_path, corpus_file):
        # an earlier output that cannot be deleted fails the run, not leaves it running
        (tmp_path / "run" / "metrics.json").mkdir(parents=True)
        code, out = self.run_once(tmp_path, corpus_file)
        assert code == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed" and "metrics.json" in manifest["error"]

    def test_interrupted_run_stays_running(self, tmp_path, corpus_file, monkeypatch):
        # only a run that finished or failed is stamped; an interrupt is neither
        def interrupt(corpus, config):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_pipeline_detailed", interrupt)
        with pytest.raises(KeyboardInterrupt):
            self.run_once(tmp_path, corpus_file)
        out = tmp_path / "run"
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["status"], manifest["finished_at"], manifest["error"]) == (
            "running", None, None)
        assert [path.name for path in out.iterdir()] == ["manifest.json"]

    def test_failed_baseline_write_keeps_previous_metrics(self, tmp_path, corpus_file,
                                                          monkeypatch):
        out = tmp_path / "base"
        argv = ["baseline", "--corpus", str(corpus_file), "--budget", "5", "--out", str(out)]
        assert main(argv) == 0
        before = self.snapshot(out)

        def half_then_fail(path, *args, **kwargs):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("{")
            raise OSError("disk full")

        monkeypatch.setattr(cli.Path, "write_text", half_then_fail)
        assert main(argv) == 3
        assert self.snapshot(out) == before

    def test_zero_budget_run(self, tmp_path, corpus_file):
        doc = dict(RUN_CONFIG, rounds=1, budget_per_round=0)
        code, out = self.run_once(tmp_path, corpus_file, "zb", doc)
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["review_fraction"] == 0.0

    def test_label_store_loadable(self, tmp_path, corpus_file):
        _, out = self.run_once(tmp_path, corpus_file)
        records = load_labels(out / "labels.jsonl")
        assert any(r.provenance == "oracle" for r in records)
        assert any(r.provenance == "seed" for r in records)

    def test_audit_schema(self, tmp_path, corpus_file):
        _, out = self.run_once(tmp_path, corpus_file)
        entries = [
            json.loads(line)
            for line in (out / "audit.jsonl").read_text().splitlines()
        ]
        stages = {e["stage"] for e in entries}
        assert {"select", "dedup_cross_round", "filter_eligible",
                "dedup_intra_batch", "sample"} <= stages
        shrinking = {"dedup_cross_round", "filter_eligible", "dedup_intra_batch", "sample"}
        for entry in entries:
            assert set(entry) == {"round", "stage", "in", "out", "removed_reason_counts"}
            if entry["stage"] in shrinking:
                assert entry["out"] <= entry["in"]
                assert entry["in"] - entry["out"] == sum(
                    entry["removed_reason_counts"].values()
                )

    def test_audit_lines_are_the_metrics_stage_entries(self, tmp_path, corpus_file):
        _, out = self.run_once(tmp_path, corpus_file)
        metrics = json.loads((out / "metrics.json").read_text())
        entries = [entry for rm in metrics["rounds"] for entry in rm["stages"]]
        assert len(entries) == 2 * 7
        assert (out / "audit.jsonl").read_text().splitlines() == [
            json.dumps(entry, separators=(",", ":")) for entry in entries
        ]

    def test_unknown_config_key_exits_2(self, tmp_path, corpus_file, capsys):
        doc = dict(RUN_CONFIG, warp_speed=9)
        code, _ = self.run_once(tmp_path, corpus_file, "bad", doc)
        assert code == 2
        assert "warp_speed" in capsys.readouterr().err

    def test_wrong_schema_version_exits_2(self, tmp_path, corpus_file, capsys):
        doc = dict(RUN_CONFIG, schema_version=1)
        code, _ = self.run_once(tmp_path, corpus_file, "v1", doc)
        assert code == 2
        assert "schema_version must be 2" in capsys.readouterr().err

    def test_corpus_without_ground_truth_exits_3(self, tmp_path):
        corpus = tmp_path / "raw.jsonl"
        doc = {
            "item_id": 0, "embedding": [1.0, 0.0], "account_id": 0,
            "impressions": 1, "exact_hash": "0",
            "ground_truth": None,
        }
        corpus.write_text(json.dumps(doc) + "\n")
        config = write_json(tmp_path / "c.json", RUN_CONFIG)
        code = main([
            "run", "--corpus", str(corpus), "--config", config,
            "--out", str(tmp_path / "out"),
        ])
        assert code == 3


MANIFEST = {"schema_version": 2, "kind": "run_manifest"}


def exits_2_before_writing(tmp_path, corpus_file, command, doc):
    """``doc`` is the config as an object, as raw text, or None for no file."""
    config = tmp_path / "config.json"
    if isinstance(doc, str):
        config.write_text(doc)
    elif doc is not None:
        write_json(config, doc)
    config = str(config)
    out = tmp_path / "out"
    command, *args = {
        "generate": ["generate"],
        "run": ["run", "--corpus", str(corpus_file)],
        # a manifest replayed without --corpus reads its recorded path
        "replay": ["run"],
        "baseline": ["baseline", "--corpus", str(corpus_file), "--budget", "5"],
    }[command]
    assert main([command, "--config", config, "--out", str(out), *args]) == 2
    assert not out.exists()  # no manifest, no corpus, no report


@pytest.mark.parametrize("command,doc,key", [
    pytest.param("run", dict(RUN_CONFIG, rounds="5"), "rounds", id="int-as-string"),
    pytest.param("run", dict(RUN_CONFIG, rounds=2.5), "rounds", id="int-as-float"),
    pytest.param("run", dict(RUN_CONFIG, budget_per_round=True), "budget_per_round",
                 id="int-as-bool"),
    pytest.param("run", dict(RUN_CONFIG, theta_dup=False), "theta_dup", id="float-as-bool"),
    pytest.param("run", dict(RUN_CONFIG, oracle={"tpr": "x"}), "tpr", id="nested-float"),
    pytest.param("run", dict(RUN_CONFIG, score={"seed": 1.0}), "seed", id="score-int"),
    pytest.param("run", dict(RUN_CONFIG, graph_mode=1), "graph_mode", id="str-as-int"),
    pytest.param("run", dict(RUN_CONFIG, impression_weighted_sampling=1),
                 "impression_weighted_sampling", id="bool-as-int"),
    pytest.param("run", MANIFEST, "config", id="run-manifest-without-config"),
    pytest.param("run", dict(MANIFEST, config=[1]), "config", id="run-manifest-config-list"),
    pytest.param("run", dict(MANIFEST, config=RUN_CONFIG, corpus=[1]), "corpus",
                 id="run-manifest-corpus-list"),
    pytest.param("run", dict(MANIFEST, config=RUN_CONFIG, corpus={"path": True}), "path",
                 id="run-manifest-path-bool"),
    # true and 5 would reach open() as file descriptors, 1 being stdout
    pytest.param("replay", dict(MANIFEST, config=RUN_CONFIG, corpus={"path": True}), "path",
                 id="replay-path-bool"),
    pytest.param("replay", dict(MANIFEST, config=RUN_CONFIG, corpus={"path": 5}), "path",
                 id="replay-path-int"),
    # a manifest's own envelope is checked before its config or corpus is read
    pytest.param("run", dict(MANIFEST, schema_version=99, config=RUN_CONFIG), 99,
                 id="run-manifest-schema-99"),
    pytest.param("replay", dict(MANIFEST, schema_version=99, config=RUN_CONFIG,
                                corpus={"path": "absent.jsonl"}), 99,
                 id="replay-manifest-schema-99"),
    pytest.param("baseline", dict(MANIFEST, schema_version=99, config=RUN_CONFIG), 99,
                 id="baseline-manifest-schema-99"),
    # null is no corpus record, never a reason to skip the hash check
    pytest.param("replay", dict(MANIFEST, config=RUN_CONFIG, corpus=None), "corpus",
                 id="replay-manifest-corpus-null"),
    pytest.param("baseline", MANIFEST, "config", id="baseline-manifest-without-config"),
    pytest.param("baseline", dict(MANIFEST, config=[1]), "config",
                 id="baseline-manifest-config-list"),
    pytest.param("baseline", dict(RUN_CONFIG, oracle={"tnr": True}), "tnr",
                 id="baseline-float-as-bool"),
    pytest.param("generate", dict(GEN_CONFIG, n_clusters=2.5), "n_clusters",
                 id="generator-int-as-float"),
    pytest.param("generate", {k: v for k, v in GEN_CONFIG.items() if k != "n_clusters"},
                 "n_clusters", id="generator-missing-n_clusters"),
])
def test_malformed_config_exits_2_before_writing(tmp_path, corpus_file, capsys, command, doc,
                                                 key):
    exits_2_before_writing(tmp_path, corpus_file, command, doc)
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("command,doc,field", [
    pytest.param("run", dict(RUN_CONFIG, rng_seed=-1), "rng_seed", id="rng_seed"),
    # the exact graph draws no planes, so only validation can catch it
    pytest.param("run", dict(RUN_CONFIG, graph_seed=-3), "graph_seed", id="graph_seed"),
    pytest.param("run", dict(RUN_CONFIG, oracle={"seed": -2}), "oracle.seed", id="oracle-seed"),
    pytest.param("run", dict(RUN_CONFIG, score={"seed": -1}), "score.seed", id="score-seed"),
    pytest.param("run", dict(RUN_CONFIG, score={"tau": 5.0}), "score.tau", id="score-tau"),
    pytest.param("run", dict(RUN_CONFIG, kind="generator"), "kind", id="wrong-kind"),
    pytest.param("run", dict(RUN_CONFIG, oracle=[1]), "oracle", id="oracle-list"),
    pytest.param("run", dict(RUN_CONFIG, score=5), "score", id="score-int-object"),
    pytest.param("run", dict(MANIFEST, config=dict(RUN_CONFIG, rng_seed=-1)), "rng_seed",
                 id="replay-rng_seed"),
    pytest.param("baseline", dict(RUN_CONFIG, oracle={"seed": -2}), "oracle.seed",
                 id="baseline-oracle-seed"),
    pytest.param("generate", dict(GEN_CONFIG, rng_seed=-1), "rng_seed", id="generator-rng_seed"),
    pytest.param("run", dict(RUN_CONFIG, oracle={"unit_cost": -5.0}), "oracle.unit_cost",
                 id="cost-negative"),
    # json reads NaN and Infinity, which would reach metrics.json as bare tokens
    pytest.param("run", dict(RUN_CONFIG, oracle={"unit_cost": math.nan}), "oracle.unit_cost",
                 id="cost-nan"),
    pytest.param("run", dict(RUN_CONFIG, oracle={"unit_cost": math.inf}), "oracle.unit_cost",
                 id="cost-inf"),
    # a blocked build would refuse it only after the manifest is written
    pytest.param("run", dict(RUN_CONFIG, graph_mode="blocked", graph_band_bits=63),
                 "graph_band_bits", id="band-bits-63"),
    # a NaN spread writes a corpus of NaN embeddings; a NaN or infinite mean
    # fails inside numpy's Poisson draw
    pytest.param("generate", dict(GEN_CONFIG, noise_sigma=math.nan), "noise_sigma",
                 id="generator-noise_sigma-nan"),
    pytest.param("generate", dict(GEN_CONFIG, noise_sigma=math.inf), "noise_sigma",
                 id="generator-noise_sigma-inf"),
    pytest.param("generate", dict(GEN_CONFIG, dup_sigma=math.nan), "dup_sigma",
                 id="generator-dup_sigma-nan"),
    pytest.param("generate", dict(GEN_CONFIG, cluster_size_mean=math.nan), "cluster_size_mean",
                 id="generator-cluster_size_mean-nan"),
    pytest.param("generate", dict(GEN_CONFIG, cluster_size_mean=math.inf), "cluster_size_mean",
                 id="generator-cluster_size_mean-inf"),
])
def test_out_of_range_value_exits_2_before_writing(tmp_path, corpus_file, capsys, command, doc,
                                                   field):
    exits_2_before_writing(tmp_path, corpus_file, command, doc)
    assert f"config error: {field} must be" in capsys.readouterr().err


@pytest.mark.parametrize("command,doc,message", [
    pytest.param("run", None, "cannot read {config}", id="unreadable"),
    pytest.param("generate", "{", "{config} is not valid JSON", id="invalid-json"),
    pytest.param("baseline", "[1]", "{config} must contain a JSON object", id="not-an-object"),
    pytest.param("replay", RUN_CONFIG, "--corpus is required", id="run-without-corpus"),
])
def test_unusable_input_exits_2_before_writing(tmp_path, corpus_file, capsys, command, doc,
                                               message):
    exits_2_before_writing(tmp_path, corpus_file, command, doc)
    assert message.format(config=tmp_path / "config.json") in capsys.readouterr().err


def recorded_manifest(tmp_path, corpus_file) -> dict:
    """The manifest of a completed run over corpus_file."""
    config = write_json(tmp_path / "run.json", RUN_CONFIG)
    out = tmp_path / "r1"
    assert main(["run", "--corpus", str(corpus_file), "--config", config, "--out", str(out)]) == 0
    return json.loads((out / "manifest.json").read_text())


def _negate_row(docs):
    docs[5]["embedding"] = [-x for x in docs[5]["embedding"]]


def _swap_rows(docs):
    docs[2]["embedding"], docs[7]["embedding"] = docs[7]["embedding"], docs[2]["embedding"]


def _move_one_ulp(docs):
    docs[5]["embedding"][3] = math.nextafter(docs[5]["embedding"][3], math.inf)


def _swap_dimensions(docs):
    for doc in docs:
        doc["embedding"][0], doc["embedding"][1] = doc["embedding"][1], doc["embedding"][0]


@pytest.mark.parametrize("edit", [_negate_row, _swap_rows, _move_one_ulp, _swap_dimensions],
                         ids=["negated-row", "swapped-rows", "one-ulp", "swapped-dimensions"])
def test_replay_refuses_changed_embeddings(tmp_path, corpus_file, capsys, edit):
    # the content hash covers the embeddings the graph, dedup and propagation read
    manifest = recorded_manifest(tmp_path, corpus_file)
    docs = [json.loads(line) for line in corpus_file.read_text().splitlines()]
    edit(docs)
    corpus_file.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    exits_2_before_writing(tmp_path, corpus_file, "replay", manifest)
    assert "differs from the manifest" in capsys.readouterr().err


def test_schema_1_manifest_exits_2_naming_version_2(tmp_path, corpus_file, capsys):
    # a manifest from before the hash covered embeddings is refused by its
    # config's version, before its corpus hash is compared
    manifest = recorded_manifest(tmp_path, corpus_file)
    manifest["schema_version"] = manifest["config"]["schema_version"] = 1
    manifest["corpus"]["content_hash"] = "0" * 32
    exits_2_before_writing(tmp_path, corpus_file, "replay", manifest)
    assert "schema_version must be 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "replay", "baseline"])
def test_completed_manifest_of_another_schema_exits_2(tmp_path, corpus_file, capsys, command):
    manifest = recorded_manifest(tmp_path, corpus_file)
    manifest["schema_version"] = 99
    exits_2_before_writing(tmp_path, corpus_file, command, manifest)
    assert "schema_version must be 2, got 99" in capsys.readouterr().err


class TestBaselineAndCompare:
    def test_baseline_report(self, tmp_path, corpus_file):
        out = tmp_path / "base"
        code = main([
            "baseline", "--corpus", str(corpus_file), "--budget", "10",
            "--trials", "3", "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["baseline"]["total_budget"] == 10
        assert metrics["review_fraction"] > 0

    def test_baseline_budget_zero(self, tmp_path, corpus_file):
        out = tmp_path / "b0"
        code = main([
            "baseline", "--corpus", str(corpus_file), "--budget", "0",
            "--out", str(out),
        ])
        assert code == 0
        assert json.loads((out / "metrics.json").read_text())["recall"] == 0.0

    @pytest.mark.parametrize("flag,value", [("--budget", "-1"), ("--trials", "0"),
                                            ("--seed", "-1")])
    def test_baseline_bad_flag_exits_2_before_loading(self, tmp_path, corpus_file,
                                                      monkeypatch, flag, value):
        loaded = []
        monkeypatch.setattr(cli, "load_corpus", loaded.append)
        argv = {"--budget": "5", "--trials": "3", flag: value}
        code = main(["baseline", "--corpus", str(corpus_file), "--out", str(tmp_path / "b"),
                     *(part for item in argv.items() for part in item)])
        assert (code, loaded) == (2, [])

    def test_baseline_budget_above_corpus_exits_2(self, tmp_path, corpus_file, capsys):
        out = tmp_path / "big"
        code = main(["baseline", "--corpus", str(corpus_file), "--budget", "999999",
                     "--out", str(out)])
        assert code == 2
        assert "exceeds the corpus size" in capsys.readouterr().err
        assert not out.exists()

    def test_baseline_deterministic(self, tmp_path, corpus_file):
        outs = []
        for name in ("b1", "b2"):
            out = tmp_path / name
            main([
                "baseline", "--corpus", str(corpus_file), "--budget", "8",
                "--trials", "5", "--seed", "3", "--out", str(out),
            ])
            outs.append((out / "metrics.json").read_bytes())
        assert outs[0] == outs[1]

    def test_compare_flow(self, tmp_path, corpus_file, capsys):
        config = write_json(tmp_path / "c.json", RUN_CONFIG)
        run_out = tmp_path / "run"
        main(["run", "--corpus", str(corpus_file), "--config", config,
              "--out", str(run_out)])
        base_out = tmp_path / "base"
        main(["baseline", "--corpus", str(corpus_file), "--budget", "12",
              "--trials", "3", "--seed", "1", "--out", str(base_out)])
        code = main([
            "compare", str(run_out / "metrics.json"), str(base_out / "metrics.json"),
            "--floor", "1.0",
        ])
        out = capsys.readouterr().out
        assert "recall_ratio=" in out
        assert code in (0, 1)

    def test_compute_metrics_report_names_its_corpus(self, tmp_path, corpus_file, capsys):
        # a report straight from compute_metrics passes compare's corpus guard
        corpus = load_corpus(corpus_file)
        positives = np.flatnonzero(corpus.truth == 1)
        reports = []
        for name, found in (("run.json", positives), ("base.json", positives[::2])):
            store = KnownStore(corpus.ids)
            store.write(LabelBatch.of(found, np.ones(len(found), dtype=bool),
                                      PROVENANCES.index("oracle"), 1))
            report = compute_metrics(store, corpus)
            assert report.corpus_hash == corpus.content_hash
            (tmp_path / name).write_text(report.to_json())
            reports.append(str(tmp_path / name))
        assert main(["compare", *reports, "--floor", "1.5"]) == 0
        assert "recall_ratio=" in capsys.readouterr().out

    def synth_report(self, tmp_path, name, recall, corpus_hash="abc"):
        doc = {
            "corpus_hash": corpus_hash, "recall": recall,
            "review_fraction": 0.001, "amplification": 2.0,
        }
        return write_json(tmp_path / name, doc)

    def test_compare_ratio_meets_floor(self, tmp_path):
        run = self.synth_report(tmp_path, "run.json", 0.6)
        base = self.synth_report(tmp_path, "base.json", 0.3)
        assert main(["compare", run, base, "--floor", "2.0"]) == 0
        assert main(["compare", run, base, "--floor", "2.1"]) == 1

    def test_compare_infinite_ratio(self, tmp_path, capsys):
        run = self.synth_report(tmp_path, "run.json", 0.4)
        base = self.synth_report(tmp_path, "base.json", 0.0)
        assert main(["compare", run, base, "--floor", "2.0"]) == 0
        assert "inf" in capsys.readouterr().out

    @pytest.mark.parametrize("floor", ["nan", "inf", "-inf", "-0.5"])
    def test_compare_floor_out_of_range_exits_2(self, tmp_path, capsys, floor):
        run = self.synth_report(tmp_path, "run.json", 0.6)
        base = self.synth_report(tmp_path, "base.json", 0.3)
        assert main(["compare", run, base, f"--floor={floor}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --floor must be finite and >= 0")

    @pytest.mark.parametrize("side, key, value", [
        ("run", "recall", "0.6"),  # failed on the division
        ("run", "recall", True),  # passed the floor as 1.0
        ("run", "recall", 1.5),
        ("run", "recall", math.nan),
        ("base", "recall", -0.1),  # a negative ratio
        ("base", "recall", math.inf),
        ("both", "corpus_hash", None),  # absent from both, so "equal"
        ("both", "corpus_hash", ""),
        ("both", "corpus_hash", 7),
    ], ids=["recall-str", "recall-bool", "recall-above-1", "recall-nan", "base-recall-negative",
            "base-recall-inf", "hash-missing", "hash-empty", "hash-int"])
    def test_compare_malformed_report_exits_2(self, tmp_path, capsys, side, key, value):
        docs = {}
        for name, recall in (("run", 0.6), ("base", 0.3)):
            doc = {"corpus_hash": "abc", "recall": recall, "review_fraction": 0.001,
                   "amplification": 2.0}
            if side in (name, "both"):
                doc[key] = value
                if value is None:
                    del doc[key]
            docs[name] = write_json(tmp_path / f"{name}.json", doc)
        assert main(["compare", docs["run"], docs["base"], "--floor", "2.0"]) == 2
        err = capsys.readouterr().err
        path = docs["base" if side == "base" else "run"]
        assert err.startswith(f"config error: {path}: {key} must be "), err

    def test_compare_hash_mismatch_exits_3(self, tmp_path, capsys):
        run = self.synth_report(tmp_path, "run.json", 0.5, "aaa")
        base = self.synth_report(tmp_path, "base.json", 0.25, "bbb")
        assert main(["compare", run, base]) == 3
        assert "mismatch" in capsys.readouterr().err
