"""Per-claim orchestration: multi-query retrieval, unified retrieval string,
zero-shot prediction with overflow-truncation retries, and response parsing.

Every claim always ends in a VerdictReport. Parse problems degrade field by
field, and an irrecoverable gateway failure or a malformed or unreadable
knowledge store produces a Not Enough Evidence report for that claim alone,
rather than no report at all. Each stage returns what it degraded, and the
report carries it: ``truncated``, ``parse_fallbacks`` (key points and
prediction fields together, added up in ``run_claim``) and ``failed``.
"""

import os
import queue
import re
import threading
from collections import namedtuple

from .bm25 import build_index, retrieve
from .corpus import (MAX_EVIDENCE, AnswerType, ClaimRecord, DocRef, EvidenceItem, KnowledgeStore,
                     MalformedInput, UnknownDocRef, VerdictLabel, VerdictReport, load_store,
                     resolve)
from .keypoints import KeyPointSet, PromptLibrary, fill_placeholders, make_keypoints
from .llm_gateway import ChatRequest, ContextOverflow, GatewayError

GROUP_SEPARATOR = "\n\n-----\n\n"

FALLBACK_QUESTION = "What does the retrieved evidence say about the claim?"
FALLBACK_ANSWER_CHARS = 200

# A label is its name, blanks and a colon on one line, after blanks only, and its value
# runs to that line's end and is stripped in Python, so no attempt rescans later lines or
# a value's blanks: the parse is linear in the reply. An empty value stays empty, and a
# VERDICT line counts whatever its value: an empty one is Not Enough Evidence.
_FIELD_RE = re.compile(r"^[^\S\n]*(Q|A|TYPE|CITE)(\d+)[^\S\n]*:[^\S\n]*(.*)$",
                       re.IGNORECASE | re.MULTILINE)
_JUSTIFICATION_RE = re.compile(r"^[^\S\n]*JUSTIFICATION[^\S\n]*:", re.IGNORECASE | re.MULTILINE)
_VERDICT_RE = re.compile(r"^[^\S\n]*VERDICT[^\S\n]*:(.*)$", re.IGNORECASE | re.MULTILINE)


# one group per query, the claim's last; scores holds each doc's BM25 score
RetrievalGroup = namedtuple("RetrievalGroup", "query docs scores", defaults=((), ()))


def run_retrieval(store: KnowledgeStore, keypoints: KeyPointSet, claim: str,
                  cfg) -> list[RetrievalGroup]:
    """Index the terms of the claim's queries, then retrieve one group per
    query, key points first and the claim last; the claim query uses the
    large top_k. A document already placed in an earlier group is omitted
    from later ones."""
    queries = keypoints.all_queries(claim)
    index = build_index(store, queries, k1=cfg.k1, b=cfg.b)
    seen: set[DocRef] = set()
    groups: list[RetrievalGroup] = []
    for pos, query in enumerate(queries):
        top_k = cfg.claim_top_k if pos == len(queries) - 1 else cfg.keypoint_top_k
        docs, scores = [], []
        for hit in retrieve(index, query, top_k):
            if hit.ref in seen:
                continue
            seen.add(hit.ref)
            docs.append((hit.ref, resolve(store, hit.ref)[1]))
            scores.append(hit.score)
        groups.append(RetrievalGroup(query, docs, scores))
    return groups


def build_unified_string(groups: list[RetrievalGroup]) -> str:
    """Each document rendered as ``{passage} <{i}_{j}>``, newline between
    documents of a group, dashed separator between groups. Empty groups
    contribute nothing, separators included."""
    parts = []
    for group in groups:
        if not group.docs:
            continue
        parts.append("\n".join(f"{text} <{ref.serialize()}>" for ref, text in group.docs))
    return GROUP_SEPARATOR.join(parts)


def build_prediction_prompt(claim: str, unified: str,
                            library: PromptLibrary) -> tuple[str, str]:
    """Prediction prompt carries the claim and the retrieval string only;
    key points are deliberately kept out of it."""
    user = fill_placeholders(library.prediction_user,
                             {"<claim>": claim, "<retrieval>": unified})
    return library.prediction_system, user


def _truncate_groups(groups: list[RetrievalGroup], claim_cap: int,
                     keypoint_cap: int) -> list[RetrievalGroup]:
    """Cap each group's documents: the claim group, last, at ``claim_cap``."""
    caps = [keypoint_cap] * (len(groups) - 1) + [claim_cap]
    return [RetrievalGroup(g.query, g.docs[:cap], g.scores[:cap]) for g, cap in zip(groups, caps)]


def _top_doc(groups: list[RetrievalGroup], store: KnowledgeStore) -> tuple[DocRef, str, str]:
    """Fallback citation (ref, url, text): the first document of the claim
    group, or failing that of any group, or an empty one at 0_0."""
    for group in groups[-1:] + groups:
        if group.docs:
            ref, text = group.docs[0]
            return ref, resolve(store, ref)[0], text
    return DocRef(0, 0), "", ""


def parse_prediction(response: str, store: KnowledgeStore, groups: list[RetrievalGroup]):
    """Parse the labeled-line prediction grammar into (evidence, justification,
    verdict, fallbacks). Each unparseable field degrades individually: bad
    citation -> top claim-group document, bad answer type -> Abstractive, bad
    verdict -> Not Enough Evidence, no pairs at all -> one synthesized pair.
    ``fallbacks`` counts the degradations."""
    fallbacks = 0
    fields: dict[tuple[str, int], str] = {}  # (label, number) -> the first value given
    for m in _FIELD_RE.finditer(response):
        try:
            number = int(m.group(2))
        except ValueError:  # more digits than int() converts: no field
            continue
        fields.setdefault((m.group(1).upper(), number), m.group(3).strip())

    def resolve_citation(raw: str) -> "tuple[DocRef, str, str] | None":
        ref = DocRef.find(raw)
        try:
            return None if ref is None else (ref, *resolve(store, ref))
        except UnknownDocRef:
            return None

    evidence: list[EvidenceItem] = []
    for k in sorted(number for label, number in fields if label == "Q"):
        if len(evidence) == MAX_EVIDENCE:
            break
        question = fields["Q", k]
        if not question:
            continue
        answer = fields.get(("A", k), "")

        answer_type = AnswerType.parse_lenient(fields.get(("TYPE", k), ""))
        if answer_type is None:
            answer_type = AnswerType.ABSTRACTIVE
            fallbacks += 1

        resolved = resolve_citation(fields.get(("CITE", k), ""))
        if resolved is None:
            ref, url, text = _top_doc(groups, store)
            fallbacks += 1
        else:
            ref, url, text = resolved
        evidence.append(EvidenceItem(question=question, answer=answer,
                                     answer_type=answer_type, citation=ref,
                                     url=url, scraped_text=text))

    if not evidence:
        ref, url, text = _top_doc(groups, store)
        evidence.append(EvidenceItem(
            question=FALLBACK_QUESTION,
            answer=text[:FALLBACK_ANSWER_CHARS],
            answer_type=AnswerType.ABSTRACTIVE,
            citation=ref, url=url, scraped_text=text,
        ))
        fallbacks += 1

    justification = ""
    just_headers = list(_JUSTIFICATION_RE.finditer(response))
    if just_headers:
        start = just_headers[-1].end()
        # searched in place, so "^" matches at line starts only, not at the label's colon
        verdict_after = _VERDICT_RE.search(response, start)
        justification = response[start:verdict_after.start() if verdict_after else None].strip()

    verdict = None
    verdict_matches = _VERDICT_RE.findall(response)
    if verdict_matches:
        verdict = VerdictLabel.parse_lenient(verdict_matches[-1])
    if verdict is None:
        verdict = VerdictLabel.NOT_ENOUGH_EVIDENCE
        fallbacks += 1

    return evidence, justification, verdict, fallbacks


def _failure_report(claim_id: int, claim: str, groups: list[RetrievalGroup],
                    store: KnowledgeStore, detail: str, truncated: bool = False) -> VerdictReport:
    ref, url, text = _top_doc(groups, store)
    placeholder = EvidenceItem(question="", answer="", answer_type=AnswerType.UNANSWERABLE,
                               citation=ref, url=url, scraped_text=text)
    return VerdictReport(
        claim_id=claim_id,
        claim=claim,
        evidence=[placeholder],
        justification=f"No verdict could be generated: {detail}",
        verdict=VerdictLabel.NOT_ENOUGH_EVIDENCE,
        truncated=truncated,
        failed=True,
    )


def predict_with_retry(gateway, groups: list[RetrievalGroup], claim: str,
                       store: KnowledgeStore, cfg, *, claim_id: int = 0,
                       library: PromptLibrary) -> VerdictReport:
    """Send the prediction prompt, shrinking the document set on context
    overflow: first to the configured truncation caps, then by halving them
    (floor one document per group) until the prompt fits or nothing is left
    to cut. The report is ``truncated`` when any cap was applied."""
    caps: "tuple[int, int] | None" = None
    current = groups
    while True:
        unified = build_unified_string(current)
        system, user = build_prediction_prompt(claim, unified, library)
        request = ChatRequest(system_message=system, user_message=user,
                              temperature=cfg.temperature, top_p=cfg.top_p,
                              max_new_tokens=cfg.max_tokens_prediction)
        try:
            response = gateway.complete(request, claim_id)
            break
        except ContextOverflow as exc:
            if caps is None:
                caps = (cfg.truncate_claim, cfg.truncate_keypoint)
            elif caps == (1, 1):
                return _failure_report(claim_id, claim, current, store,
                                       f"context overflow persisted at minimum caps ({exc.detail})",
                                       truncated=True)
            else:
                caps = (max(1, caps[0] // 2), max(1, caps[1] // 2))
            current = _truncate_groups(groups, *caps)
        except GatewayError as exc:
            return _failure_report(claim_id, claim, current, store,
                                   f"{exc.kind}: {exc.detail}", truncated=caps is not None)

    evidence, justification, verdict, fallbacks = parse_prediction(response.text, store, current)
    return VerdictReport(claim_id=claim_id, claim=claim, evidence=evidence,
                         justification=justification, verdict=verdict,
                         truncated=caps is not None, parse_fallbacks=fallbacks)


def run_claim(record: ClaimRecord, store: KnowledgeStore, gateway, cfg,
              library: PromptLibrary) -> VerdictReport:
    """Full pipeline for one claim: key points, index of their terms, retrieval,
    prediction. The report counts the key point fallbacks with its own."""
    keypoints, fallbacks = make_keypoints(gateway, record.text, cfg, library, record.claim_id)
    groups = run_retrieval(store, keypoints, record.text, cfg)
    report = predict_with_retry(gateway, groups, record.text, store, cfg,
                                claim_id=record.claim_id, library=library)
    return report._replace(parse_fallbacks=report.parse_fallbacks + fallbacks)


def store_path_for(store_dir: str, claim_id: int) -> str:
    return os.path.join(store_dir, f"{claim_id}.json")


def run_batch(claims: list[ClaimRecord], gateway, cfg,
              completed: "list[VerdictReport] | None" = None) -> list[VerdictReport]:
    """Process claims on a few worker threads; results come back in claim
    order regardless of completion order, so runs are reproducible.

    When a ``completed`` list is given, every finished report is appended to
    it as it arrives, so an interrupted run can still flush what it has.
    """
    library = PromptLibrary.load(cfg.prompt_overrides)

    def work(record: ClaimRecord) -> VerdictReport:
        try:
            store = load_store(store_path_for(cfg.store_dir, record.claim_id), record.claim_id)
        except (MalformedInput, OSError) as exc:
            return _failure_report(record.claim_id, record.text, [],
                                   KnowledgeStore(record.claim_id), str(exc))
        return run_claim(record, store, gateway, cfg, library)

    # daemon threads, not a pool: after Ctrl-C the interpreter must not wait
    # for claims still in flight (an HTTP call may take minutes)
    todo: queue.SimpleQueue = queue.SimpleQueue()
    for pos in range(len(claims)):
        todo.put(pos)
    finished: queue.SimpleQueue = queue.SimpleQueue()
    stop = threading.Event()

    def worker() -> None:
        while not stop.is_set():
            try:
                pos = todo.get_nowait()
            except queue.Empty:
                return
            try:
                finished.put((pos, work(claims[pos]), None))
            except BaseException as exc:
                finished.put((pos, None, exc))
                return

    for _ in range(min(cfg.workers, len(claims))):
        threading.Thread(target=worker, daemon=True).start()
    results: list["VerdictReport | None"] = [None] * len(claims)
    try:
        for _ in claims:
            pos, report, exc = finished.get()
            if exc is not None:
                raise exc
            results[pos] = report
            if completed is not None:
                completed.append(report)
    except BaseException:
        stop.set()  # claims not yet started are dropped, those in flight abandoned
        raise
    return results  # type: ignore[return-value]
