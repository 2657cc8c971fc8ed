"""Spans around the package's layer boundaries, and the per-layer metrics
folded from them.

``Tracer`` replaces each traced name in the namespace where the caller looks
it up (``zsl_kep.pipeline.build_index``, not ``zsl_kep.bm25.build_index``) with
a wrapper that records a span, and puts the originals back on exit. Spans
stay in memory as plain lists until the run ends:

    [name, claim_id, thread_id, start, end, parent_index, error_kind, extra]

A span's parent is the innermost open span on the same thread; a span with
no claim of its own inherits its parent's. Self time is a span's duration
minus the part of it its children cover.
"""

import statistics
import threading
import time

NAME, CLAIM, THREAD, START, END, PARENT, ERROR, EXTRA = range(8)


def _store_claim(args, kwargs):
    return args[1]


def _record_claim(args, kwargs):
    return args[0].claim_id


def _complete_claim(args, kwargs):
    return args[2] if len(args) > 2 else kwargs.get("claim_id")


def _passages(args, kwargs, result):
    return sum(len(entry.passages) for entry in result.entries)


def _postings(tokenize):
    def count(args, kwargs, result):
        index, query = args[0], args[1]
        return sum(len(index.postings.get(term, ())) for term in set(tokenize(query)))
    return count


def _queries(args, kwargs, result):
    keypoints, fallbacks = result
    return {"queries": keypoints.n + 1, "fallbacks": fallbacks}


def _prompt_words(args, kwargs, result):
    system, user = result
    return len(system.split()) + len(user.split())


class Tracer:
    """Installs span-recording wrappers for one traced invocation; pass the
    backend class whose ``send`` to trace, or None when nothing is sent."""

    def __init__(self, backend_cls):
        import zsl_kep.bm25
        import zsl_kep.cli as cli
        import zsl_kep.keypoints as keypoints
        import zsl_kep.llm_gateway as llm_gateway
        import zsl_kep.pipeline as pipeline
        import zsl_kep.scoring as scoring

        self.spans: list = []
        self._local = threading.local()
        self._saved: list = []
        postings = _postings(zsl_kep.bm25.tokenize)
        # (namespace, attribute, span name, claim getter, extra getter)
        self._targets = [
            (pipeline, "load_store", "corpus.load_store", _store_claim, _passages),
            (cli, "write_predictions", "corpus.write_predictions", None, None),
            (cli, "load_predictions", "corpus.load_predictions", None, None),
            (pipeline, "build_index", "bm25.build_index", None, None),
            (pipeline, "retrieve", "bm25.retrieve", None, postings),
            (pipeline, "make_keypoints", "keypoints.make_keypoints", None, _queries),
            (keypoints, "parse_keypoints", "keypoints.parse_keypoints", None, None),
            (pipeline, "run_claim", "pipeline.run_claim", _record_claim, None),
            (pipeline, "run_retrieval", "pipeline.run_retrieval", None, None),
            (pipeline, "build_unified_string", "pipeline.build_unified_string", None, None),
            (pipeline, "build_prediction_prompt", "pipeline.build_prediction_prompt", None,
             _prompt_words),
            (pipeline, "predict_with_retry", "pipeline.predict_with_retry", None, None),
            (pipeline, "parse_prediction", "pipeline.parse_prediction", None, None),
            (llm_gateway.Gateway, "complete", "llm_gateway.complete", _complete_claim, None),
            (cli, "score_run", "scoring.score_run", None, None),
            (scoring, "evidence_score", "scoring.evidence_score", None, None),
            (scoring, "meteor", "scoring.meteor", None, None),
            (scoring, "hungarian_max", "scoring.hungarian_max", None, None),
        ]
        if backend_cls is not None:
            self._targets.append((backend_cls, "send", "llm_gateway.send", _complete_claim, None))
        self._cli = cli

    def __enter__(self):
        for owner, attr, name, claim, extra in self._targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, claim, extra))
        # The gateway sleeps through the ``sleep`` it was built with; hand the
        # CLI's constructor a traced one so backoff shows as its own span.
        gateway_cls = self._cli.Gateway
        traced_sleep = self._wrap(time.sleep, "llm_gateway.backoff", None, None)

        def traced_gateway(*args, **kwargs):
            kwargs.setdefault("sleep", traced_sleep)
            return gateway_cls(*args, **kwargs)

        self._saved.append((self._cli, "Gateway", gateway_cls))
        self._cli.Gateway = traced_gateway
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, fn, name, claim_getter, extra_getter):
        spans, local = self.spans, self._local

        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            claim = claim_getter(args, kwargs) if claim_getter else None
            if claim is None and parent is not None:
                claim = parent[CLAIM]
            span = [name, claim, threading.get_ident(), time.perf_counter(), None, parent,
                    None, None]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if extra_getter is not None:
                span[EXTRA] = extra_getter(args, kwargs, result)
            return result

        return wrapper

    def export(self) -> list:
        """Spans as JSON-ready lists, parents replaced by list indices."""
        position = {id(span): i for i, span in enumerate(self.spans)}
        return [[*span[:PARENT], position[id(span[PARENT])] if span[PARENT] is not None else None,
                 *span[PARENT + 1:]] for span in self.spans]


# --------------------------------------------------------------------------
# folding spans into per-layer metrics


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def self_times(spans: list) -> list:
    children: dict = {}
    for i, span in enumerate(spans):
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(i)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span[START]
        for start, end in sorted((spans[c][START], spans[c][END]) for c in children.get(i, ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out.append(span[END] - span[START] - covered)
    return out


def layer_metrics(spans: list, run_wall: float, score_wall: float, run_counts: dict,
                  workers: int) -> dict:
    """Per-layer metrics of one traced run + score: name -> (value, unit, samples).
    ``run_counts`` is the traced run's stderr summary; the prediction parse
    fallbacks are its ``parse fallbacks`` minus those of the key points."""
    by_name: dict = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(i)
    selfs = self_times(spans)

    def durations(name):
        return [spans[i][END] - spans[i][START] for i in by_name.get(name, ())]

    def extras(name):
        return [spans[i][EXTRA] for i in by_name.get(name, ())]

    def errors(name, kinds=None):
        return sum(1 for i in by_name.get(name, ())
                   if spans[i][ERROR] and (kinds is None or spans[i][ERROR] in kinds))

    def total(name):
        d = durations(name)
        return sum(d), "s", len(d)

    def pct(name, q, scale, unit):
        d = durations(name)
        return percentile(d, q) * scale, unit, len(d)

    claims = durations("pipeline.run_claim")
    n_claims = len(claims)
    keypoint_extras = extras("keypoints.make_keypoints")
    keypoint_fallbacks = sum(e["fallbacks"] for e in keypoint_extras)
    prompt_words = extras("pipeline.build_prediction_prompt")
    sends = len(by_name.get("llm_gateway.send", ()))
    failed_sends = errors("llm_gateway.send")
    rejected_keypoints = errors("keypoints.parse_keypoints")
    complete_s, send_s = sum(durations("llm_gateway.complete")), sum(durations("llm_gateway.send"))
    backoff_s = sum(durations("llm_gateway.backoff"))
    claim_s = sum(claims)
    bm25_s = sum(durations("bm25.build_index")) + sum(durations("bm25.retrieve"))
    meteor_s = sum(durations("scoring.meteor"))

    m = {
        "corpus.load_store.s": total("corpus.load_store"),
        "corpus.load_store.passages": (sum(extras("corpus.load_store")), "count",
                                       len(extras("corpus.load_store"))),
        "corpus.write_predictions.s": total("corpus.write_predictions"),
        "corpus.load_predictions.s": total("corpus.load_predictions"),
        "bm25.build_index.s": total("bm25.build_index"),
        "bm25.build_index.p50_ms": pct("bm25.build_index", 50, 1000.0, "ms"),
        "bm25.retrieve.calls": (len(durations("bm25.retrieve")), "count",
                                len(durations("bm25.retrieve"))),
        "bm25.retrieve.s": total("bm25.retrieve"),
        "bm25.retrieve.p50_ms": pct("bm25.retrieve", 50, 1000.0, "ms"),
        "bm25.retrieve.p95_ms": pct("bm25.retrieve", 95, 1000.0, "ms"),
        "bm25.retrieve.postings": (sum(extras("bm25.retrieve")), "count",
                                   len(extras("bm25.retrieve"))),
        "bm25.share_of_claim": (bm25_s / claim_s if claim_s else 0.0, "ratio", n_claims),
        "keypoints.make_keypoints.s": total("keypoints.make_keypoints"),
        "keypoints.parse_keypoints.s": total("keypoints.parse_keypoints"),
        "keypoints.fallbacks": (keypoint_fallbacks, "count", len(keypoint_extras)),
        "keypoints.queries_per_claim": (
            statistics.mean(e["queries"] for e in keypoint_extras) if keypoint_extras else 0.0,
            "queries", len(keypoint_extras)),
        "pipeline.run_claim.p50_s": pct("pipeline.run_claim", 50, 1.0, "s"),
        "pipeline.run_claim.p95_s": pct("pipeline.run_claim", 95, 1.0, "s"),
        "pipeline.run_retrieval.self_s": (
            sum(selfs[i] for i in by_name.get("pipeline.run_retrieval", ())), "s",
            len(by_name.get("pipeline.run_retrieval", ()))),
        "pipeline.build_unified_string.s": total("pipeline.build_unified_string"),
        "pipeline.parse_prediction.s": total("pipeline.parse_prediction"),
        "pipeline.prompt_words.p50": (percentile(prompt_words, 50), "words", len(prompt_words)),
        "pipeline.prompt_words.p95": (percentile(prompt_words, 95), "words", len(prompt_words)),
        "pipeline.prompt_builds_per_claim": (len(prompt_words) / n_claims if n_claims else 0.0,
                                             "ratio", len(prompt_words)),
        "pipeline.parse_fallbacks": (run_counts["parse fallbacks"] - keypoint_fallbacks,
                                     "count", n_claims),
        "pipeline.truncated_claims": (run_counts["truncated runs"], "count", n_claims),
        "pipeline.worker_busy_share": (
            (claim_s + sum(durations("corpus.load_store"))) / (workers * run_wall),
            "ratio", n_claims),
        "llm_gateway.complete.calls": (len(durations("llm_gateway.complete")), "count",
                                       len(durations("llm_gateway.complete"))),
        "llm_gateway.send.calls": (sends, "count", sends),
        "llm_gateway.send.s": (send_s, "s", sends),
        "llm_gateway.send.share_of_claim": (send_s / claim_s if claim_s else 0.0, "ratio",
                                            sends),
        "llm_gateway.overhead_s": (complete_s - send_s - backoff_s, "s",
                                   len(durations("llm_gateway.complete"))),
        "llm_gateway.backoff_s": (backoff_s, "s", len(durations("llm_gateway.backoff"))),
        "llm_gateway.overflows": (errors("llm_gateway.complete", {"ContextOverflow"}), "count",
                                  len(durations("llm_gateway.complete"))),
        "llm_gateway.rate_limits": (errors("llm_gateway.send", {"RateLimited"}), "count", sends),
        "llm_gateway.errors": (failed_sends - errors("llm_gateway.send", {"RateLimited"}),
                               "count", sends),
        "llm_gateway.useful_share": (
            (sends - failed_sends - rejected_keypoints) / sends if sends else 0.0, "ratio", sends),
        "scoring.meteor.calls": (len(durations("scoring.meteor")), "count",
                                 len(durations("scoring.meteor"))),
        "scoring.meteor.s": total("scoring.meteor"),
        "scoring.meteor.p50_ms": pct("scoring.meteor", 50, 1000.0, "ms"),
        "scoring.meteor.p99_ms": pct("scoring.meteor", 99, 1000.0, "ms"),
        "scoring.meteor.max_ms": pct("scoring.meteor", 100, 1000.0, "ms"),
        "scoring.meteor.share_of_score": (meteor_s / score_wall if score_wall else 0.0, "ratio",
                                          len(durations("scoring.meteor"))),
        "scoring.hungarian_max.calls": (len(durations("scoring.hungarian_max")), "count",
                                        len(durations("scoring.hungarian_max"))),
        "scoring.hungarian_max.s": total("scoring.hungarian_max"),
        "scoring.evidence_score.s": total("scoring.evidence_score"),
    }
    return m
