"""Command-line entry point.

    zsl-kep run     --config cfg.json [--output path] [--print-config]
    zsl-kep score   --pred predictions.json --gold claims.json [--report path]
    zsl-kep inspect --config cfg.json --claim ID [--no-llm]

Summary statistics go to stderr and data goes to files; stdout is reserved
for inspect dumps. Exit codes: 0 success, 1 configuration or I/O problem,
2 when at least one claim had to fall back to the failure verdict.
"""

import argparse
import json
import os
import sys

from .config import ConfigError, RunConfig
from .corpus import (MalformedInput, load_claims, load_predictions, load_store, write_json,
                     write_predictions)
from .keypoints import KeyPointSet, PromptLibrary, build_keypoint_prompt, make_keypoints
from .llm_gateway import ContextOverflow, Gateway, HttpBackend, MockBackend, RateLimited
from .pipeline import build_unified_string, run_batch, run_retrieval, store_path_for
from .scoring import score_run


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _build_gateway(cfg: RunConfig) -> Gateway:
    if cfg.backend == "mock":
        backend = MockBackend.from_file(cfg.mock_script_path)
    else:
        backend = HttpBackend(cfg.base_url, cfg.model_name)
    return Gateway(backend, max_attempts=cfg.max_attempts, prompt_budget=cfg.prompt_budget)


def _writable(path: str) -> bool:
    """Whether ``path`` names a file in an existing directory; checked before
    the work whose result it is to hold. An empty path names no file."""
    return bool(path) and os.path.isdir(os.path.dirname(path) or ".") and not os.path.isdir(path)


def _names_an_input(path: str, inputs) -> bool:
    """Whether ``path`` resolves to the same file as one of ``inputs``."""
    target = os.path.realpath(path)
    return any(name and os.path.realpath(name) == target for name in inputs)


def cmd_run(args) -> int:
    cfg = RunConfig.from_file(args.config)
    if args.output is not None:
        cfg.output_path = args.output
    cfg.validate()
    if args.print_config:
        json.dump({name: getattr(cfg, name) for name in RunConfig.__annotations__}, sys.stdout,
                  indent=2)
        sys.stdout.write("\n")
        return 0

    claims = load_claims(cfg.claims_path)
    store_paths = [store_path_for(cfg.store_dir, record.claim_id) for record in claims]
    for store_path in store_paths:
        if not os.path.exists(store_path):
            _log(f"error: missing knowledge store {store_path}")
            return 1
    if not _writable(cfg.output_path):
        _log(f"error: cannot write predictions to {cfg.output_path}")
        return 1
    inputs = [args.config, cfg.claims_path, cfg.mock_script_path,
              *cfg.prompt_overrides.values(), *store_paths]
    if _names_an_input(cfg.output_path, inputs):
        _log(f"error: output {cfg.output_path} is one of the run's inputs")
        return 1

    reports, interrupted = [], False
    try:  # a loop, not sorted(): on Ctrl-C the reports already yielded are kept
        for report in run_batch(claims, _build_gateway(cfg), cfg):
            reports.append(report)
    except KeyboardInterrupt:
        interrupted = True
    reports.sort(key=lambda r: r.claim_id)
    write_predictions(cfg.output_path, reports)
    if interrupted:
        _log(f"interrupted: flushed {len(reports)} completed reports to {cfg.output_path}")
        return 130

    truncated = sum(r.truncated for r in reports)
    fallbacks = sum(r.parse_fallbacks for r in reports)
    failed = sum(r.failed for r in reports)
    gateway_failures = [kind for r in reports for kind in r.gateway_failures]
    _log(f"claims processed: {len(reports)}")
    _log(f"truncated runs: {truncated}")
    _log(f"parse fallbacks: {fallbacks}")
    _log(f"failed claims: {failed}")
    _log(f"gateway overflows: {gateway_failures.count(ContextOverflow.kind)}")
    _log(f"gateway rate limits: {gateway_failures.count(RateLimited.kind)}")
    _log(f"wrote predictions to {cfg.output_path}")
    return 2 if failed else 0


def cmd_score(args) -> int:
    report_path = (args.report if args.report is not None
                   else os.path.splitext(args.pred)[0] + ".scores.json")
    if _names_an_input(report_path, [args.pred, args.gold]):
        _log(f"error: score report {report_path} is one of the inputs")
        return 1
    gold = load_claims(args.gold)
    reports = load_predictions(args.pred)
    if not _writable(report_path):
        _log(f"error: cannot write score report to {report_path}")
        return 1
    result = score_run(reports, gold)

    _log(f"q_only={result.aggregate['q_only']:.4f}")
    _log(f"q_plus_a={result.aggregate['q_plus_a']:.4f}")
    _log(f"averitec={result.aggregate['averitec']:.4f}")

    write_json(report_path, result.to_dict())
    _log(f"wrote score report to {report_path}")
    return 0


def cmd_inspect(args) -> int:
    cfg = RunConfig.from_file(args.config)
    cfg.validate(require_backend=not args.no_llm)

    claims = load_claims(cfg.claims_path)
    if not 0 <= args.claim < len(claims):
        _log(f"error: unknown claim id {args.claim} (file has {len(claims)} claims)")
        return 1
    record = claims[args.claim]

    store_path = store_path_for(cfg.store_dir, record.claim_id)
    if not os.path.exists(store_path):
        _log(f"error: missing knowledge store {store_path}")
        return 1
    store = load_store(store_path, record.claim_id)
    library = PromptLibrary.load(cfg.prompt_overrides)

    # JSON decoding can leave a lone surrogate in any string; it prints escaped
    sys.stdout.reconfigure(errors="backslashreplace")
    print(f"claim {record.claim_id}: {record.text}")
    if args.no_llm:
        keypoints = KeyPointSet()
        system, user = build_keypoint_prompt(record.text, library)
        print("key points skipped (--no-llm); keypoint prompt shown instead")
        print("--- keypoint system prompt ---")
        print(system)
        print("--- keypoint user prompt ---")
        print(user)
    else:
        gateway = _build_gateway(cfg)
        keypoints, _ = make_keypoints(gateway, record.text, cfg, library, record.claim_id)
        print(f"key points: {keypoints.n} "
              f"(primitives {len(keypoints.primitives)}, combined {len(keypoints.combined)})")
        for i, kp in enumerate(keypoints.primitives, start=1):
            print(f"  P{i}. {kp}")
        for i, kp in enumerate(keypoints.combined, start=1):
            print(f"  C{i}. {kp}")

    groups = run_retrieval(store, keypoints, record.text, cfg)
    print(f"groups: {len(groups)}")
    for pos, group in enumerate(groups, start=1):
        kind, cap = (("claim", cfg.claim_top_k) if pos == len(groups)
                     else ("keypoint", cfg.keypoint_top_k))
        print(f"group {pos}/{len(groups)} kind={kind} cap={cap} "
              f"docs={len(group.docs)} query={group.query!r}")
        for (ref, text), score in zip(group.docs, group.scores):
            snippet = text if len(text) <= 80 else text[:77] + "..."
            print(f"  {score:.6f} <{ref.serialize()}> {snippet}")

    print("unified retrieval string:")
    print(build_unified_string(groups))
    return 0


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zsl-kep",
        description="Batch fact checking: key-point retrieval, LLM verdicts, evidence scoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="process every claim and write predictions")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--output", help="override output_path from the config")
    run_p.add_argument("--print-config", action="store_true",
                       help="print the effective configuration and exit")
    run_p.set_defaults(func=cmd_run)

    score_p = sub.add_parser("score", help="score predictions against gold claims")
    score_p.add_argument("--pred", required=True)
    score_p.add_argument("--gold", required=True)
    score_p.add_argument("--report", help="score report path (default: <pred>.scores.json)")
    score_p.set_defaults(func=cmd_score)

    inspect_p = sub.add_parser("inspect", help="dump retrieval internals for one claim")
    inspect_p.add_argument("--config", required=True)
    inspect_p.add_argument("--claim", type=int, required=True)
    inspect_p.add_argument("--no-llm", action="store_true",
                           help="skip the key point call; claim-only retrieval")
    inspect_p.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, MalformedInput, OSError) as exc:
        _log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
