import json
import re
import sys
import threading
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from zsl_kep.bm25 import build_index, retrieve
from zsl_kep.config import RunConfig
from zsl_kep.corpus import AnswerType, ClaimRecord, DocRef, VerdictLabel, resolve
from zsl_kep.keypoints import KeyPointSet, PromptLibrary
from zsl_kep.llm_gateway import Gateway, MockBackend, TransportFailure
from zsl_kep import pipeline
from zsl_kep.pipeline import (GROUP_SEPARATOR, RetrievalGroup, _truncate_groups,
                              build_prediction_prompt, build_unified_string, parse_prediction,
                              predict_with_retry, run_batch, run_claim, run_retrieval)

from helpers import ORACLE_REPLY_PATTERNS, make_store

CFG = RunConfig()
LIBRARY = PromptLibrary.load()


GOOD_RESPONSE = """EVIDENCE:
Q1: What colour is it?
A1: It is blue.
TYPE1: Extractive
CITE1: 3_1

JUSTIFICATION: Because the document says so.

VERDICT: Supported"""


def test_run_retrieval_claim_only():
    store = make_store([["alpha one", "alpha two", "beta"]])
    groups = run_retrieval(store, KeyPointSet(), "alpha", CFG)
    assert len(groups) == 1  # the claim group alone, so last
    assert groups[0].query == "alpha"
    assert 0 < len(groups[0].docs) <= 70


def test_run_retrieval_group_shape_and_order():
    kps = KeyPointSet(["alpha", "beta", "gamma"], ["alpha beta"])
    store = make_store([["alpha", "beta", "gamma", "delta", "alpha beta"]])
    groups = run_retrieval(store, kps, "delta", CFG)
    # key point groups in key point order, the claim group last
    assert [g.query for g in groups] == ["alpha", "beta", "gamma", "alpha beta", "delta"]
    for g in groups[:-1]:
        assert len(g.docs) <= 12
    assert len(groups[-1].docs) <= 70


def test_run_retrieval_first_occurrence_dedup():
    # passage (0,0) matches both the key point and the claim; it must appear
    # only in the earlier (key point) group
    kps = KeyPointSet(["shared term"], [])
    store = make_store([["shared term claim", "claim only words", "other filler"]])
    groups = run_retrieval(store, kps, "claim words", CFG)
    kp_refs = {ref for ref, _ in groups[0].docs}
    claim_refs = {ref for ref, _ in groups[1].docs}
    assert DocRef(0, 0) in kp_refs
    assert DocRef(0, 0) not in claim_refs
    assert kp_refs.isdisjoint(claim_refs)


def test_run_retrieval_unique_keypoint_match_stays_in_keypoint_group():
    # synthetic corpus: doc (4, 2) uniquely matches key point kp1 but also
    # scores on the claim query; dedup keeps it in kp1's group only
    passages = [[f"filler text number {i}" for i in range(6)] for _ in range(4)]
    passages.append(["x a", "x b", "unique marker claimword", "x c", "x d", "x e"])
    kps = KeyPointSet(["unique marker"], [])
    store = make_store(passages)
    groups = run_retrieval(store, kps, "claimword number", CFG)
    assert DocRef(4, 2) in {ref for ref, _ in groups[0].docs}
    assert DocRef(4, 2) not in {ref for ref, _ in groups[1].docs}


def test_unified_string_single_doc():
    group = RetrievalGroup("q", [(DocRef(0, 0), "hello")])
    assert build_unified_string([group]) == "hello <0_0>"


def test_unified_string_groups_and_separator():
    groups = [
        RetrievalGroup("q1", [(DocRef(0, 0), "p1")]),
        RetrievalGroup("q2", [(DocRef(1, 0), "p2")]),
    ]
    assert build_unified_string(groups) == "p1 <0_0>\n\n-----\n\np2 <1_0>"


def test_unified_string_skips_empty_groups():
    groups = [
        RetrievalGroup("q1", []),
        RetrievalGroup("q2", [(DocRef(0, 1), "a")]),
        RetrievalGroup("q3", [(DocRef(2, 0), "b"), (DocRef(2, 1), "c")]),
    ]
    assert build_unified_string(groups) == "a <0_1>\n\n-----\n\nb <2_0>\nc <2_1>"


def test_unified_string_ids_resolve():
    kps = KeyPointSet(["beta", "delta"], [])
    store = make_store([["alpha beta", "beta gamma", "gamma delta"],
                        ["delta alpha", "epsilon zeta"]])
    groups = run_retrieval(store, kps, "alpha gamma", CFG)
    unified = build_unified_string(groups)
    ids = re.findall(r"<(\d+_\d+)>", unified)
    assert ids
    for raw in ids:
        url, passage = resolve(store, DocRef.parse(raw))
        assert url.startswith("https://")
        assert f"{passage} <{raw}>" in unified


def test_prediction_prompt_contract():
    system, user = build_prediction_prompt("my claim", "doc one <0_0>", LIBRARY)
    assert "my claim" in user
    assert "doc one <0_0>" in user
    assert "<claim>" not in user
    assert "<retrieval>" not in user
    for header in ("EVIDENCE:", "JUSTIFICATION:", "VERDICT:"):
        assert header in user
    for label in ("Supported", "Refuted", "Not Enough Evidence",
                  "Conflicting Evidence/Cherry-Picking"):
        assert label in user
    assert system.strip()


def test_prediction_prompt_excludes_keypoints():
    marker = "zz-keypoint-marker-never-in-corpus"
    kps = KeyPointSet([marker], [])
    store = make_store([["alpha beta", "beta gamma"]])
    groups = run_retrieval(store, kps, "alpha", CFG)
    _, user = build_prediction_prompt("alpha", build_unified_string(groups), LIBRARY)
    assert marker not in user


def _groups_for(store, texts_by_ref):
    return [RetrievalGroup("q", [(ref, text) for ref, text in texts_by_ref])]


def test_parse_prediction_well_formed():
    store = make_store([["a", "b"], [], ["x", "blue doc", "z"], ["p", "q"]])
    groups = _groups_for(store, [(DocRef(0, 0), "a")])
    evidence, justification, verdict, fallbacks = parse_prediction(GOOD_RESPONSE, store, groups)
    assert len(evidence) == 1
    assert evidence[0].question.startswith("What")
    assert evidence[0].answer == "It is blue."
    assert evidence[0].answer_type is AnswerType.EXTRACTIVE
    assert evidence[0].citation == DocRef(3, 1)
    assert evidence[0].url == "https://example.test/3"
    assert evidence[0].scraped_text == "q"
    assert justification == "Because the document says so."
    assert verdict is VerdictLabel.SUPPORTED
    assert fallbacks == 0


def test_parse_prediction_verdict_normalization():
    store = make_store([["a"]])
    groups = _groups_for(store, [(DocRef(0, 0), "a")])
    _, _, verdict, _ = parse_prediction("Q1: q\nA1: a\nVERDICT: refuted.", store, groups)
    assert verdict is VerdictLabel.REFUTED


def test_parse_prediction_keeps_first_four_pairs():
    store = make_store([["a"]])
    groups = _groups_for(store, [(DocRef(0, 0), "a")])
    blocks = "\n".join(
        f"Q{k}: question {k}\nA{k}: answer {k}\nTYPE{k}: Boolean\nCITE{k}: 0_0"
        for k in range(1, 7)
    )
    evidence, _, _, _ = parse_prediction(blocks + "\nVERDICT: Supported", store, groups)
    assert [ev.question for ev in evidence] == [f"question {k}" for k in range(1, 5)]


def test_parse_prediction_bad_citation_recites_top_claim_doc():
    store = make_store([["top passage", "other"]])
    groups = _groups_for(store, [(DocRef(0, 0), "top passage")])
    response = "Q1: q\nA1: a\nTYPE1: Extractive\nCITE1: 99_99\nVERDICT: Supported"
    evidence, _, _, fallbacks = parse_prediction(response, store, groups)
    assert evidence[0].citation == DocRef(0, 0)
    assert evidence[0].scraped_text == "top passage"
    assert fallbacks == 1


def test_parse_prediction_over_long_numbers_degrade_their_own_fields():
    # int() refuses more than 4,300 digits: such a field number is no field,
    # and such a citation falls back to the top claim-group document
    store = make_store([["top passage", "other"]])
    groups = _groups_for(store, [(DocRef(0, 0), "top passage")])
    nines = "9" * 4301
    response = (f"Q1: q\nA1: a\nTYPE1: Extractive\nCITE1: {nines}_1\n"
                f"Q{nines}: lost\nA2: a2\nQ2: q2\nTYPE2: Boolean\nCITE2: 0_1\nVERDICT: Supported")
    evidence, _, verdict, fallbacks = parse_prediction(response, store, groups)
    assert [(ev.question, ev.citation) for ev in evidence] == [("q", DocRef(0, 0)),
                                                                ("q2", DocRef(0, 1))]
    assert verdict is VerdictLabel.SUPPORTED
    assert fallbacks == 1


def test_parse_prediction_bad_type_defaults_abstractive():
    store = make_store([["a"]])
    groups = _groups_for(store, [(DocRef(0, 0), "a")])
    response = "Q1: q\nA1: a\nTYPE1: mystery\nCITE1: 0_0\nVERDICT: Supported"
    evidence, _, _, fallbacks = parse_prediction(response, store, groups)
    assert evidence[0].answer_type is AnswerType.ABSTRACTIVE
    assert fallbacks == 1


def test_parse_prediction_missing_verdict_defaults_nee():
    store = make_store([["a"]])
    groups = _groups_for(store, [(DocRef(0, 0), "a")])
    _, _, verdict, fallbacks = parse_prediction("Q1: q\nA1: a\nTYPE1: Boolean\nCITE1: 0_0",
                                                store, groups)
    assert verdict is VerdictLabel.NOT_ENOUGH_EVIDENCE
    assert fallbacks == 1


def test_parse_prediction_justification_ends_at_any_verdict_label():
    store = make_store([["a"]])
    groups = _groups_for(store, [(DocRef(0, 0), "a")])
    for reply in ("JUSTIFICATION: why\nVERDICT:", "JUSTIFICATION: why\n  VERDICT :\n\n"):
        _, justification, verdict, _ = parse_prediction(reply, store, groups)
        assert (justification, verdict) == ("why", VerdictLabel.NOT_ENOUGH_EVIDENCE)
    # a "verdict:" after the justification's own label starts no line, so it is text
    reply = "JUSTIFICATION: Verdict: the source says so.\nVERDICT: Supported"
    _, justification, verdict, _ = parse_prediction(reply, store, groups)
    assert (justification, verdict) == ("Verdict: the source says so.", VerdictLabel.SUPPORTED)


def test_parse_prediction_empty_value_stays_empty():
    # the empty question does not take the next line, so A1 keeps its own label
    store = make_store([["a"]])
    groups = _groups_for(store, [(DocRef(0, 0), "a")])
    for reply in ("Q1:\nA1: x\nVERDICT: Supported", "Q1\t:\r\nA1: x\nVERDICT: Supported"):
        evidence, _, verdict, fallbacks = parse_prediction(reply, store, groups)
        assert [ev.question for ev in evidence] == [pipeline.FALLBACK_QUESTION]
        assert (verdict, fallbacks) == (VerdictLabel.SUPPORTED, 1)
    # a label and its colon share a line
    evidence, _, _, _ = parse_prediction("Q1\n: q\nQ2: q2\nVERDICT: Supported", store, groups)
    assert [ev.question for ev in evidence] == ["q2"]


@pytest.mark.parametrize("bare", ["VERDICT:", "VERDICT: ", "verdict :\n\n", "VERDICT:\nSupported"])
def test_parse_prediction_bare_verdict_line_counts_as_nee(bare):
    store = make_store([["a"]])
    groups = _groups_for(store, [(DocRef(0, 0), "a")])
    reply = "Q1: q\nA1: a\nTYPE1: Boolean\nCITE1: 0_0\nVERDICT: Supported\n" + bare
    _, _, verdict, fallbacks = parse_prediction(reply, store, groups)
    assert (verdict, fallbacks) == (VerdictLabel.NOT_ENOUGH_EVIDENCE, 1)


def test_parse_prediction_no_pairs_synthesizes_one():
    long_text = "word " * 100
    store = make_store([[long_text]])
    groups = _groups_for(store, [(DocRef(0, 0), long_text)])
    evidence, _, verdict, fallbacks = parse_prediction("nothing structured\nVERDICT: Supported",
                                                       store, groups)
    assert len(evidence) == 1
    assert evidence[0].question == "What does the retrieved evidence say about the claim?"
    assert evidence[0].answer == long_text[:200]
    assert evidence[0].answer_type is AnswerType.ABSTRACTIVE
    assert evidence[0].citation == DocRef(0, 0)
    assert fallbacks == 1
    assert verdict is VerdictLabel.SUPPORTED


_BLANKS = st.text(" \t\r\x0b\x0c\x85\xa0\u2028", max_size=3)
_REPLY_LINE = st.tuples(
    _BLANKS,
    st.sampled_from(["Q1", "q2", "A1", "a2", "TYPE1", "Type2", "CITE1", "cite2", "Q3", "Q03",
                     "VERDICT", "verdict", "JUSTIFICATION", "Q", "words", ""]),
    _BLANKS,
    st.sampled_from([":", ": ", "", ":\n", "\n:"]),
    _BLANKS,
    st.sampled_from(["", "Supported", "refuted.", "Boolean", "extractive", "0_0", "0_1", "1_0",
                     "9_9", "what is it?", "VERDICT: Refuted", "Q2: nested", "x  y"]),
    _BLANKS,
).map("".join) | st.sampled_from(["Q1: q", "A1: a", "TYPE1: Boolean", "CITE1: 0_0",
                                  "JUSTIFICATION: why", "VERDICT: Supported"])


@settings(max_examples=400, deadline=None)
@given(st.lists(_REPLY_LINE, max_size=8), st.sampled_from(["\n", "\n\n", "\r\n"]),
       st.sampled_from(["", "\n", " ", "\nVERDICT:", "\nVERDICT :\n\n", "\nverdict: \n",
                        "\nJUSTIFICATION:", "\nQ2:"]))
@example(["VERDICT: Supported"], "\n", "\nVERDICT:")  # a bare last label counts, and wins
@example(["VERDICT: Supported"], "\n", "\nverdict: \n")  # so does one with blanks after it
@example(["Q1:", "A1: x"], "\n", "")  # an empty value stays empty
def test_parse_prediction_equals_the_oracle_patterns(lines, newline, end):
    store = make_store([["top passage", "other"], ["second url"]])
    groups = _groups_for(store, [(DocRef(0, 1), "other")])
    reply = newline.join(lines) + end
    with pytest.MonkeyPatch.context() as mp:
        for name, pattern in ORACLE_REPLY_PATTERNS.items():
            mp.setattr(pipeline, name, pattern)
        expected = parse_prediction(reply, store, groups)
    assert parse_prediction(reply, store, groups) == expected


@pytest.mark.parametrize("reply", [
    "\n" * 100_000 + "VERDICT: Supported",
    "Q1: a" + " " * 100_000 + "b\nVERDICT: Refuted" + " " * 100_000 + "x",
], ids=["newlines", "spaces"])
def test_parse_prediction_is_fast_on_long_blank_runs(reply):
    # the cost was the square of the reply's length: minutes for these replies
    store = make_store([["a"]])
    groups = _groups_for(store, [(DocRef(0, 0), "a")])
    start = time.perf_counter()
    parse_prediction(reply, store, groups)
    assert time.perf_counter() - start < 2.0

def _truncation_fixture():
    claim_passages = [f"alpha reading number {i} from the sensor" for i in range(60)]
    kp_passages = [f"gamma beacon log entry {i}" for i in range(14)]
    store = make_store([claim_passages, kp_passages])
    kps = KeyPointSet(["gamma beacon"], [])
    groups = run_retrieval(store, kps, "alpha sensor", CFG)
    assert len(groups[0].docs) == 12  # keypoint group at its cap
    assert len(groups[1].docs) == 60  # claim group has all alpha docs
    return store, groups


def _doc_counts(user_message):
    retrieval = user_message.split("Retrieved documents:\n", 1)[1]
    return [len(part.splitlines()) for part in retrieval.split(GROUP_SEPARATOR)]


def test_predict_no_truncation_on_success():
    store, groups = _truncation_fixture()
    backend = MockBackend({0: [GOOD_RESPONSE.replace("3_1", "0_0")]})
    report = predict_with_retry(Gateway(backend), groups, "alpha sensor", store, CFG,
                                claim_id=0, library=LIBRARY)
    assert report.truncated is False
    assert report.verdict is VerdictLabel.SUPPORTED
    assert _doc_counts(backend.calls_for(0)[0].user_message) == [12, 60]


def test_predict_truncates_to_55_and_9_after_overflow():
    store, groups = _truncation_fixture()
    backend = MockBackend({0: [{"error": "context_overflow"},
                               GOOD_RESPONSE.replace("3_1", "0_0")]})
    report = predict_with_retry(Gateway(backend), groups, "alpha sensor", store, CFG,
                                claim_id=0, library=LIBRARY)
    calls = backend.calls_for(0)
    assert len(calls) == 2
    assert _doc_counts(calls[0].user_message) == [12, 60]
    assert _doc_counts(calls[1].user_message) == [9, 55]
    assert report.truncated is True


def test_predict_halves_caps_on_second_overflow():
    store, groups = _truncation_fixture()
    backend = MockBackend({0: [{"error": "context_overflow"},
                               {"error": "context_overflow"},
                               GOOD_RESPONSE.replace("3_1", "0_0")]})
    report = predict_with_retry(Gateway(backend), groups, "alpha sensor", store, CFG,
                                claim_id=0, library=LIBRARY)
    calls = backend.calls_for(0)
    assert _doc_counts(calls[2].user_message) == [4, 27]
    assert report.truncated is True


def test_group_scores_align_with_docs_through_truncation():
    store, groups = _truncation_fixture()
    index = build_index(store, [group.query for group in groups])
    n_passages = sum(len(entry.passages) for entry in store.entries)
    for group in groups:
        score_of = {hit.ref: hit.score for hit in retrieve(index, group.query, n_passages)}
        assert group.scores == [score_of[ref] for ref, _ in group.docs]
    for caps in ((55, 9), (27, 4), (1, 1)):
        for pos, (cut, full) in enumerate(zip(_truncate_groups(groups, *caps), groups)):
            kept = len(cut.docs)  # the claim group, last, takes the claim cap
            assert kept == min(len(full.docs), caps[0] if pos == len(groups) - 1 else caps[1])
            assert (cut.docs, cut.scores) == (full.docs[:kept], full.scores[:kept])


def test_truncation_monotonic_document_subsequence():
    store, groups = _truncation_fixture()
    overflow_entries = [{"error": "context_overflow"}] * 4
    backend = MockBackend({0: overflow_entries + [GOOD_RESPONSE.replace("3_1", "0_0")]})
    predict_with_retry(Gateway(backend), groups, "alpha sensor", store, CFG, claim_id=0,
                       library=LIBRARY)
    calls = backend.calls_for(0)
    previous = None
    for call in calls:
        ids = re.findall(r"<(\d+_\d+)>", call.user_message)
        if previous is not None:
            assert set(ids) <= set(previous)
            # subsequence, not just subset
            it = iter(previous)
            assert all(ref in it for ref in ids)
        previous = ids


def test_predict_gives_up_at_minimum_caps():
    store, groups = _truncation_fixture()
    backend = MockBackend({0: [{"error": "context_overflow"}] * 20})
    report = predict_with_retry(Gateway(backend), groups, "alpha sensor", store, CFG,
                                claim_id=0, library=LIBRARY)
    assert report.failed is True
    assert report.verdict is VerdictLabel.NOT_ENOUGH_EVIDENCE
    # caps sequence: full, 55/9, 27/4, 13/2, 6/1, 3/1, 1/1 -> 7 attempts
    assert len(backend.calls_for(0)) == 7


def test_predict_irrecoverable_failure_degrades():
    store, groups = _truncation_fixture()
    backend = MockBackend({7: [{"error": "transport", "detail": "socket closed"}]})
    report = predict_with_retry(Gateway(backend), groups, "alpha sensor", store, CFG,
                                claim_id=7, library=LIBRARY)
    assert report.claim_id == 7
    assert report.failed is True
    assert report.verdict is VerdictLabel.NOT_ENOUGH_EVIDENCE
    assert len(report.evidence) == 1
    assert report.evidence[0].question == ""
    # placeholder cites the top claim-group document
    assert report.evidence[0].citation == groups[-1].docs[0][0]
    assert "socket closed" in report.justification


def test_run_claim_end_to_end_with_mock():
    store = make_store([["the comet passed in 1910", "comet tails point away from the sun",
                         "observers recorded the comet"],
                        ["unrelated filler text", "more filler"]])
    script = {3: [
        "PRIMITIVE:\n1. comet passed\n2. passed in 1910\nCOMBINED:\n1. comet passed in 1910",
        "EVIDENCE:\nQ1: When did the comet pass?\nA1: In 1910.\nTYPE1: Extractive\n"
        "CITE1: 0_0\n\nJUSTIFICATION: The record says 1910.\n\nVERDICT: Supported",
    ]}
    record = ClaimRecord(claim_id=3, text="the comet passed in 1910")
    report = run_claim(record, store, Gateway(MockBackend(script)), CFG, LIBRARY)
    assert report.claim_id == 3
    assert report.verdict is VerdictLabel.SUPPORTED
    assert report.parse_fallbacks == 0
    assert 1 <= len(report.evidence) <= 4
    assert report.evidence[0].scraped_text == "the comet passed in 1910"


def test_run_claim_indexes_only_the_query_terms_after_key_points(monkeypatch):
    import zsl_kep.pipeline as pipeline_mod
    calls = []
    real_keypoints, real_build = pipeline_mod.make_keypoints, pipeline_mod.build_index

    def recording_keypoints(*args, **kwargs):
        calls.append("make_keypoints")
        return real_keypoints(*args, **kwargs)

    def recording_build(*args, **kwargs):
        index = real_build(*args, **kwargs)
        calls.append(("build_index", set(index.postings)))
        return index

    monkeypatch.setattr(pipeline_mod, "make_keypoints", recording_keypoints)
    monkeypatch.setattr(pipeline_mod, "build_index", recording_build)
    store = make_store([["the comet passed in 1910", "observers recorded the comet"],
                        ["unrelated filler text", "more filler"]])
    script = {3: [
        "PRIMITIVE:\n1. comet passed\n2. Halley sighting\nCOMBINED:\n1. comet sighting",
        "EVIDENCE:\nQ1: q?\nA1: a\nTYPE1: Extractive\nCITE1: 0_0\n\n"
        "JUSTIFICATION: j\n\nVERDICT: Supported",
    ]}
    record = ClaimRecord(claim_id=3, text="the comet passed in 1910")
    run_claim(record, store, Gateway(MockBackend(script)), CFG, LIBRARY)
    # "halley" and "sighting" are in no passage but are indexed all the same
    assert calls == ["make_keypoints", ("build_index", {
        "comet", "passed", "halley", "sighting", "the", "in", "1910"})]


def test_run_claim_non_string_keypoint_reply_falls_back_to_claim_only():
    store = make_store([["alpha beta", "gamma delta"]])
    backend = MockBackend({0: [{"text": 5}, GOOD_RESPONSE.replace("3_1", "0_0")]})
    report = run_claim(ClaimRecord(claim_id=0, text="alpha"), store, Gateway(backend), CFG,
                       LIBRARY)
    assert report.verdict is VerdictLabel.SUPPORTED
    assert report.parse_fallbacks == 1
    claim_only = run_retrieval(store, KeyPointSet(), "alpha", CFG)
    _, user = build_prediction_prompt("alpha", build_unified_string(claim_only), LIBRARY)
    assert backend.calls_for(0)[-1].user_message == user


def test_run_claim_keypoint_failure_still_produces_report():
    store = make_store([["alpha beta"]])
    script = {0: [
        "garbage with no numbered lines",
        "EVIDENCE:\nQ1: q\nA1: a\nTYPE1: Boolean\nCITE1: 0_0\n\n"
        "JUSTIFICATION: j\n\nVERDICT: Refuted",
    ]}
    record = ClaimRecord(claim_id=0, text="alpha beta")
    report = run_claim(record, store, Gateway(MockBackend(script)), CFG, LIBRARY)
    assert report.verdict is VerdictLabel.REFUTED
    assert report.parse_fallbacks == 1


def test_run_batch_blank_claim_costs_only_itself(tmp_path):
    store_dir = tmp_path / "stores"
    store_dir.mkdir()
    for cid in (0, 1):
        (store_dir / f"{cid}.json").write_text(
            json.dumps({"url": "u", "url2text": ["alpha beta", "gamma"]}) + "\n",
            encoding="utf-8")
    claims = [ClaimRecord(0, " "), ClaimRecord(1, "alpha")]
    prediction = GOOD_RESPONSE.replace("3_1", "0_0")
    backend = MockBackend({0: ["no key points for a blank claim", prediction],
                           1: ["PRIMITIVE:\n1. beta", prediction]})
    reports = run_batch(claims, Gateway(backend), RunConfig(store_dir=str(store_dir), workers=2))
    assert [(r.claim_id, r.verdict, r.failed) for r in reports] == [
        (0, VerdictLabel.SUPPORTED, False), (1, VerdictLabel.SUPPORTED, False)]
    assert reports[0].parse_fallbacks == 1  # the key points only
    _, user = build_prediction_prompt(" ", "", LIBRARY)  # " " has no term to retrieve on
    assert backend.calls_for(0)[-1].user_message == user
    assert "alpha beta <0_0>" in backend.calls_for(1)[-1].user_message


@pytest.fixture
def release():
    event = threading.Event()
    yield event
    event.set()  # lets the claim still in flight finish after the test


def test_run_batch_interrupt_does_not_wait_for_claims_in_flight(tmp_path, release):
    store_dir = tmp_path / "stores"
    store_dir.mkdir()
    for cid in (0, 1):
        (store_dir / f"{cid}.json").write_text(
            json.dumps({"url": "u", "url2text": ["alpha beta"]}) + "\n", encoding="utf-8")
    cfg = RunConfig(store_dir=str(store_dir), workers=2)
    claims = [ClaimRecord(claim_id=0, text="alpha"), ClaimRecord(claim_id=1, text="beta")]
    in_flight = threading.Event()

    class _Gateway:
        def complete(self, request, claim_id=None):
            if claim_id == 0:
                in_flight.set()
                release.wait(30)
                raise TransportFailure("released")
            in_flight.wait(5)
            raise KeyboardInterrupt

    outcome = []

    def batch():
        try:
            run_batch(claims, _Gateway(), cfg)
        except KeyboardInterrupt:
            outcome.append("interrupted")

    caller = threading.Thread(target=batch, daemon=True)
    caller.start()
    caller.join(2.0)
    assert not caller.is_alive(), "run_batch waited for the claim still in flight"
    assert outcome == ["interrupted"]


def test_run_batch_many_workers_keeps_claim_order(tmp_path):
    n = 120
    store_dir = tmp_path / "stores"
    store_dir.mkdir()
    for cid in range(n):
        (store_dir / f"{cid}.json").write_text(
            json.dumps({"url": "u", "url2text": [f"alpha {cid}", "beta"]}) + "\n",
            encoding="utf-8")
    claims = [ClaimRecord(claim_id=cid, text=f"alpha {cid}") for cid in range(n)]
    script = {cid: ["PRIMITIVE:\n1. alpha", GOOD_RESPONSE.replace("3_1", "0_0")]
              for cid in range(n)}
    backend = MockBackend(script)
    completed, outcome = [], []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=lambda: outcome.append(run_batch(
            claims, Gateway(backend), RunConfig(store_dir=str(store_dir), workers=16),
            completed=completed)), daemon=True)
        caller.start()
        caller.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive() and len(outcome) == 1
    assert [r.claim_id for r in outcome[0]] == list(range(n))
    assert all(r.verdict is VerdictLabel.SUPPORTED for r in outcome[0])
    assert sorted(r.claim_id for r in completed) == list(range(n))
    assert all(len(backend.calls_for(cid)) == 2 for cid in range(n))


def test_run_batch_raises_a_worker_error(tmp_path):
    store_dir = tmp_path / "stores"
    store_dir.mkdir()
    for cid in (0, 1, 2):
        (store_dir / f"{cid}.json").write_text(
            json.dumps({"url": "u", "url2text": ["alpha beta"]}) + "\n", encoding="utf-8")
    claims = [ClaimRecord(claim_id=cid, text="alpha") for cid in (0, 1, 2)]

    class _Gateway:
        def complete(self, request, claim_id=None):
            raise RuntimeError(f"bug in claim {claim_id}")

    with pytest.raises(RuntimeError, match="bug in claim"):
        run_batch(claims, _Gateway(), RunConfig(store_dir=str(store_dir), workers=2))
