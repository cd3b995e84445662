"""Command-line front door: generate corpora, run the funnel, run the random
baseline, and compare reports.

Exit codes: 0 success, 1 comparison floor not met, 2 config error,
3 runtime/stage error. Every output file is written to a temporary file
beside it and then renamed over it, so none is ever left half-written.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .corpus import (
    ConfigError,
    GeneratorConfig,
    generate_corpus_detailed,
    load_corpus,
    save_corpus,
    save_labels,
)
from .labeling import SimulatedOracle
from .pipeline import (
    ActorParams,
    OracleParams,
    PipelineConfig,
    ScoreParams,
    run_pipeline_detailed,
    run_random_baseline,
)

EXIT_OK = 0
EXIT_FLOOR = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

METRICS_NAME = "metrics.json"
LABELS_NAME = "labels.jsonl"
AUDIT_NAME = "audit.jsonl"
MANIFEST_NAME = "manifest.json"

SCHEMA_VERSION = 2


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must contain a JSON object")
    return doc


def _check_envelope(doc: dict, kind: str) -> dict:
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}, "
                          f"got {doc.get('schema_version')!r}")
    if doc.get("kind") != kind:
        raise ConfigError(f"kind must be {kind!r}, got {doc.get('kind')!r}")
    return {key: value for key, value in doc.items() if key not in ("schema_version", "kind")}


# The JSON types each scalar annotation accepts; a bool is never an int or a float.
_SCALARS = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}


def _build(cls, doc: dict, context: str):
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = sorted(set(doc) - set(types))
    if unknown:
        raise ConfigError(f"unknown {context} key {unknown[0]!r}")
    for key, value in doc.items():
        allowed = _SCALARS.get(types[key])
        if allowed is not None and type(value) not in allowed:
            raise ConfigError(f"{context} key {key!r} must be {types[key]}, got {value!r}")
    try:
        return cls(**doc)
    except TypeError as exc:
        raise ConfigError(f"invalid {context}: {exc}") from exc


def generator_config_from_doc(doc: dict) -> GeneratorConfig:
    body = _check_envelope(doc, "generator")
    cfg = _build(GeneratorConfig, body, "generator config")
    cfg.validate()
    return cfg


def pipeline_config_from_doc(doc: dict) -> PipelineConfig:
    body = _check_envelope(doc, "pipeline")
    for key, cls in (("oracle", OracleParams), ("actor", ActorParams)):
        if key in body:
            if not isinstance(body[key], dict):
                raise ConfigError(f"{key} must be an object")
            body[key] = _build(cls, body[key], key)
    if "score" in body and body["score"] is not None:
        if not isinstance(body["score"], dict):
            raise ConfigError("score must be an object or null")
        body["score"] = _build(ScoreParams, body["score"], "score")
    cfg = _build(PipelineConfig, body, "pipeline config")
    cfg.validate()
    return cfg


def pipeline_config_to_doc(config: PipelineConfig) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "kind": "pipeline"}
    doc.update(dataclasses.asdict(config))
    return doc


def _write_atomic(path: Path, write) -> None:
    """Call ``write(tmp)`` on a temp file beside path, then rename it over path."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_text(path: Path, text: str) -> None:
    _write_atomic(path, lambda tmp: tmp.write_text(text, encoding="utf-8"))


def _write_json(path: Path, doc: dict) -> None:
    _write_text(path, json.dumps(doc, indent=2) + "\n")


def cmd_generate(args) -> int:
    cfg = generator_config_from_doc(_load_json(args.config))
    corpus, _, clusters = generate_corpus_detailed(cfg)
    _write_atomic(Path(args.out), lambda tmp: save_corpus(corpus, tmp))
    positives = int((corpus.truth == 1).sum())
    rate = positives / len(corpus) if len(corpus) else 0.0
    dup_pairs = sum((len(c.dup_ids) + 1) * len(c.dup_ids) // 2 for c in clusters)
    print(
        f"generated {len(corpus)} items in {len(clusters)} clusters; "
        f"positive rate {rate:.4f}; near-duplicate pairs {dup_pairs}"
    )
    return EXIT_OK


def _config_of(path) -> tuple[PipelineConfig, dict | None]:
    """The config of a pipeline config or run manifest, and a manifest's corpus record."""
    doc = _load_json(path)
    if doc.get("kind") != "run_manifest":
        return pipeline_config_from_doc(doc), None
    doc = _check_envelope(doc, "run_manifest")
    if not isinstance(doc.get("config"), dict):
        raise ConfigError("manifest key 'config' must be an object")
    recorded = doc.get("corpus", {})
    if not isinstance(recorded, dict) or not isinstance(recorded.get("path", ""), str):
        raise ConfigError("manifest key 'corpus' must be an object with a string 'path'")
    return pipeline_config_from_doc(doc["config"]), recorded


def _resolve_run_inputs(args) -> tuple[PipelineConfig, str, dict | None]:
    """The config, the corpus path and, on replay, the manifest's corpus record."""
    config, recorded = _config_of(args.config)
    corpus_path = args.corpus or (recorded or {}).get("path")
    if not corpus_path:
        raise ConfigError("--corpus is required" if recorded is None
                          else "manifest has no corpus path; pass --corpus")
    return config, corpus_path, recorded


def cmd_run(args) -> int:
    config, corpus_path, recorded = _resolve_run_inputs(args)
    corpus = load_corpus(corpus_path)
    record = {"path": str(corpus_path), "content_hash": corpus.content_hash, "items": len(corpus)}
    if recorded is not None and any(
            recorded.get(k) != record[k] for k in ("content_hash", "items")):
        raise ConfigError(
            f"corpus {corpus_path} ({len(corpus)} items, hash {corpus.content_hash}) differs from "
            f"the manifest's ({recorded.get('items')} items, hash {recorded.get('content_hash')})"
        )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "kind": "run_manifest",
        "artifact_version": __version__,
        "status": "running",
        "error": None,
        "started_at": _utc_now(),
        "finished_at": None,
        "corpus": record,
        "config": pipeline_config_to_doc(config),
        "outputs": {"metrics": METRICS_NAME, "labels": LABELS_NAME, "audit": AUDIT_NAME},
    }
    manifest_path = out_dir / MANIFEST_NAME
    _write_json(manifest_path, manifest)

    def finish(status: str, error: str | None = None) -> None:
        manifest.update(status=status, error=error, finished_at=_utc_now())
        _write_json(manifest_path, manifest)

    try:
        # the manifest that described an earlier run's outputs is gone, so they go too
        for name in manifest["outputs"].values():
            (out_dir / name).unlink(missing_ok=True)
        # looked up in the module at call time, so callers can wrap it
        report, state = run_pipeline_detailed(corpus, config)
        _write_text(out_dir / METRICS_NAME, report.to_json() + "\n")
        _write_atomic(out_dir / LABELS_NAME, lambda tmp: save_labels(state.store.records(), tmp))
        _write_text(out_dir / AUDIT_NAME, "".join(
            json.dumps(entry, separators=(",", ":")) + "\n"
            for rm in report.rounds
            for entry in rm.stages
        ))
    except Exception as exc:
        finish("failed", str(exc))
        raise
    finish("completed")

    for rm in report.rounds:
        recall = (
            f"{rm.cumulative_recall:.4f}" if rm.cumulative_recall is not None else "n/a"
        )
        print(
            f"round {rm.round}: reviews={rm.oracle_reviews} "
            f"positives={rm.positives_oracle}/{rm.positives_propagated} "
            f"(oracle/propagated) cumulative_recall={recall}"
        )
    return EXIT_OK


def cmd_baseline(args) -> int:
    if args.budget is None or args.budget < 0:
        raise ConfigError("--budget is required and must be >= 0")
    if args.trials < 1:
        raise ConfigError("--trials must be >= 1")
    if args.seed < 0:
        raise ConfigError("--seed must be >= 0")
    oracle_params = OracleParams()
    if args.config:
        oracle_params = _config_of(args.config)[0].oracle
    corpus = load_corpus(args.corpus)
    if args.budget > len(corpus):
        raise ConfigError(f"--budget {args.budget} exceeds the corpus size {len(corpus)}")
    oracle = SimulatedOracle(oracle_params.tpr, oracle_params.tnr, oracle_params.seed,
                             corpus.ids, corpus.truth, oracle_params.unit_cost)
    report = run_random_baseline(corpus, args.budget, oracle, args.trials, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_text(out_dir / METRICS_NAME, report.to_json() + "\n")
    recall = f"{report.recall:.6f}" if report.recall is not None else "n/a"
    print(
        f"baseline: budget={args.budget} trials={args.trials} recall={recall} "
        f"review_fraction={report.review_fraction:.6f}"
    )
    return EXIT_OK


def _report(path) -> dict:
    """A metrics report that names its corpus and whose recall, if any, is in [0, 1]."""
    doc = _load_json(path)
    if not isinstance(doc.get("corpus_hash"), str) or not doc["corpus_hash"]:
        raise ConfigError(f"{path}: corpus_hash must be a non-empty string")
    recall = doc.get("recall")
    # a bool is no number, and NaN fails the range
    if recall is not None and (type(recall) not in (int, float) or not 0.0 <= recall <= 1.0):
        raise ConfigError(f"{path}: recall must be null or a number in [0, 1], got {recall!r}")
    return doc


def cmd_compare(args) -> int:
    if not 0.0 <= args.floor < math.inf:
        raise ConfigError(f"--floor must be finite and >= 0, got {args.floor}")
    run_doc = _report(args.run_report)
    base_doc = _report(args.baseline_report)
    if run_doc["corpus_hash"] != base_doc["corpus_hash"]:
        raise RuntimeError(
            "corpus hash mismatch: reports were produced from different corpora"
        )
    run_recall = run_doc.get("recall")
    base_recall = base_doc.get("recall")
    ratio: float | None
    if run_recall is None:
        ratio = None
    elif not base_recall:
        ratio = float("inf") if run_recall > 0 else None
    else:
        ratio = run_recall / base_recall
    ratio_text = "inf" if ratio == float("inf") else (
        "n/a" if ratio is None else f"{ratio:.4f}"
    )
    print(f"recall_ratio={ratio_text} (run={run_recall} baseline={base_recall})")
    print(
        f"review_fraction: run={run_doc.get('review_fraction')} "
        f"baseline={base_doc.get('review_fraction')}"
    )
    print(f"amplification: run={run_doc.get('amplification')}")
    if ratio is not None and ratio >= args.floor:
        return EXIT_OK
    return EXIT_FLOOR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reviewfunnel",
        description="Budgeted content-review funnel over embedding corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate a synthetic corpus")
    p_gen.add_argument("--config", required=True, help="generator config JSON")
    p_gen.add_argument("--out", required=True, help="output corpus file (JSONL)")
    p_gen.set_defaults(func=cmd_generate)

    p_run = sub.add_parser("run", help="run the multi-round pipeline")
    p_run.add_argument("--corpus", help="corpus file (JSONL)")
    p_run.add_argument(
        "--config", required=True, help="pipeline config JSON (or a run manifest)"
    )
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_base = sub.add_parser("baseline", help="budget-matched random-review baseline")
    p_base.add_argument("--corpus", required=True)
    p_base.add_argument("--budget", type=int, default=None, help="total reviews")
    p_base.add_argument("--trials", type=int, default=5)
    p_base.add_argument("--seed", type=int, default=0)
    p_base.add_argument("--config", help="pipeline config to borrow oracle params from")
    p_base.add_argument("--out", required=True, help="output directory")
    p_base.set_defaults(func=cmd_baseline)

    p_cmp = sub.add_parser("compare", help="compare a run report to a baseline")
    p_cmp.add_argument("run_report")
    p_cmp.add_argument("baseline_report")
    p_cmp.add_argument(
        "--floor", type=float, default=2.0, help="minimum acceptable recall ratio"
    )
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
