import json
import os

import pytest
from hypothesis import given, strategies as st

from zsl_kep.corpus import (MAX_EVIDENCE, AnswerType, DocRef, EvidenceItem, MalformedInput,
                            UnknownDocRef, VerdictLabel, VerdictReport, load_claims,
                            load_predictions, load_store, resolve, write_predictions)

from helpers import make_store


def _write(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_load_claims_minimal(tmp_path):
    path = _write(tmp_path / "claims.json", [{"claim": "X happened"}])
    records = load_claims(path)
    assert len(records) == 1
    assert records[0].claim_id == 0
    assert records[0].text == "X happened"
    assert records[0].gold_verdict is None
    assert records[0].gold_evidence is None


def test_load_claims_gold_fields(tmp_path):
    payload = [
        {"claim": "a", "label": "Refuted",
         "questions": [{"question": "q?", "answers": [{"answer": "one"}, {"answer": "two"}]}]},
        {"claim": "b", "label": "Supported", "questions": []},
    ]
    records = load_claims(_write(tmp_path / "claims.json", payload))
    assert [r.claim_id for r in records] == [0, 1]
    assert records[0].gold_verdict is VerdictLabel.REFUTED
    assert records[0].gold_evidence[0].question == "q?"
    assert records[0].gold_evidence[0].answers == ["one", "two"]
    assert records[1].gold_evidence == []


def test_load_claims_empty_claim_rejected(tmp_path):
    path = _write(tmp_path / "claims.json", [{"claim": ""}])
    with pytest.raises(MalformedInput):
        load_claims(path)


def test_load_claims_label_without_questions_rejected(tmp_path):
    path = _write(tmp_path / "claims.json", [{"claim": "a", "label": "Refuted"}])
    with pytest.raises(MalformedInput):
        load_claims(path)


def test_load_claims_bad_label_rejected(tmp_path):
    path = _write(tmp_path / "claims.json",
                  [{"claim": "a", "label": "Nope", "questions": []}])
    with pytest.raises(MalformedInput):
        load_claims(path)


def test_load_claims_not_json(tmp_path):
    path = tmp_path / "claims.json"
    path.write_text("not json", encoding="utf-8")
    with pytest.raises(MalformedInput):
        load_claims(path)


@pytest.mark.parametrize("question", [
    {"question": "q?", "answers": ["plain string"]},
    {"question": "q?", "answers": "one"},
    {"question": 5, "answers": [{"answer": "one"}]},
], ids=["answer_string", "answers_string", "question_int"])
def test_load_claims_wrongly_shaped_question_rejected(tmp_path, question):
    path = _write(tmp_path / "claims.json",
                  [{"claim": "a", "label": "Refuted", "questions": [question]}])
    with pytest.raises(MalformedInput, match="question 0 needs a string 'question'"):
        load_claims(path)


@pytest.mark.parametrize("answers, message", [
    ([{"answer": 5}], "question 0 answer 0 is int, not str"),
    ([{"answer": "one"}, {"answer": None}], "question 0 answer 1 is NoneType, not str"),
    ([{"answer": ""}], "question 0 has empty answers"),
    ([{}], "question 0 has empty answers"),
    ([], "question 0 has empty answers"),
], ids=["answer_int", "answer_null", "answer_empty", "answer_missing", "answers_empty"])
def test_load_claims_bad_gold_answer_rejected(tmp_path, answers, message):
    path = _write(tmp_path / "claims.json",
                  [{"claim": "a", "label": "Refuted",
                    "questions": [{"question": "q?", "answers": answers}]}])
    with pytest.raises(MalformedInput, match=message):
        load_claims(path)


@pytest.mark.parametrize("payload, message", [
    ({"claim": "a"}, "expected a JSON array of claim objects"),
    ([{"text": "a"}], "element 0 has no 'claim' field"),
    (["a"], "element 0 has no 'claim' field"),
    ([{"claim": "a", "label": "Refuted", "questions": {"question": "q?"}}],
     "element 0 'questions' must be an array"),
    ([{"claim": " \t\n"}], "element 0 has an empty claim"),
    ([{"claim": 5}], "element 0 has an empty claim"),
    ([{"claim": "a", "questions": []}], "element 0 must carry both 'label' and 'questions'"),
], ids=["not_array", "no_claim", "row_not_object", "questions_not_array", "blank_claim",
        "claim_not_string", "questions_without_label"])
def test_load_claims_wrongly_shaped_file_rejected(tmp_path, payload, message):
    with pytest.raises(MalformedInput, match=message):
        load_claims(_write(tmp_path / "claims.json", payload))


def test_load_store_counts_and_order(tmp_path):
    path = tmp_path / "0.json"
    lines = [
        {"url": "u0", "url2text": ["a", "b", "c"]},
        {"url": "u1", "url2text": ["d", "e"]},
    ]
    path.write_text("\n".join(json.dumps(x) for x in lines) + "\n", encoding="utf-8")
    store = load_store(path, 0)
    assert store.claim_id == 0
    assert [len(e.passages) for e in store.entries] == [3, 2]
    assert store.entries[0].url == "u0"
    assert sum(len(e.passages) for e in store.entries) == 5


def test_load_store_empty_file(tmp_path):
    path = tmp_path / "0.json"
    path.write_text("", encoding="utf-8")
    store = load_store(path, 0)
    assert store.entries == []


def test_load_store_missing_field_names_line(tmp_path):
    path = tmp_path / "0.json"
    path.write_text('{"url": "u0", "url2text": ["a"]}\n{"url": "u1"}\n', encoding="utf-8")
    with pytest.raises(MalformedInput, match="line 2"):
        load_store(path, 0)


@pytest.mark.parametrize("url", [None, 5, ["u"]])
def test_load_store_non_string_url_names_line(tmp_path, url):
    path = tmp_path / "0.json"
    path.write_text('{"url": "u0", "url2text": ["a"]}\n'
                    + json.dumps({"url": url, "url2text": ["b"]}) + "\n", encoding="utf-8")
    with pytest.raises(MalformedInput, match="line 2 'url' must be a string"):
        load_store(path, 0)


@pytest.mark.parametrize("line, message", [
    ('["url", "url2text"]', "line 2 needs 'url' and 'url2text'"),
    ("5", "line 2 needs 'url' and 'url2text'"),
    ('{"url": "u1", "url2text": "b"}', "line 2 'url2text' must be a string array"),
    # no JSONDecodeError: nesting past the recursion limit raises RecursionError,
    # and more digits than int() takes a plain ValueError
    ("[" * 100_000, "line 2 is not valid JSON"),
    ('{"n": ' + "9" * 5000 + "}", "line 2 is not valid JSON"),
], ids=["array", "number", "url2text_string", "deep", "long_int"])
def test_load_store_wrongly_shaped_line_names_line(tmp_path, line, message):
    path = tmp_path / "0.json"
    path.write_text('{"url": "u0", "url2text": ["a"]}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(MalformedInput, match=message):
        load_store(path, 0)


def test_load_store_invalid_json_names_line(tmp_path):
    path = tmp_path / "0.json"
    path.write_text('{"url": "u0", "url2text": ["a"]}\n{"url": "u1", \n', encoding="utf-8")
    with pytest.raises(MalformedInput, match="line 2 is not valid JSON"):
        load_store(path, 0)


def test_load_store_skips_blank_lines(tmp_path):
    path = tmp_path / "0.json"
    path.write_text('\n{"url": "u0", "url2text": ["a"]}\n  \n\n{"url": "u1", "url2text": ["b"]}\n',
                    encoding="utf-8")
    store = load_store(path, 0)
    assert [(e.url, e.passages) for e in store.entries] == [("u0", ["a"]), ("u1", ["b"])]


def test_load_store_accepts_duplicate_urls(tmp_path):
    path = tmp_path / "0.json"
    path.write_text('{"url": "same", "url2text": ["a"]}\n{"url": "same", "url2text": ["b"]}\n',
                    encoding="utf-8")
    store = load_store(path, 0)
    assert len(store.entries) == 2


def test_docref_serialize_parse():
    ref = DocRef(3, 1)
    assert ref.serialize() == "3_1"
    assert DocRef.parse("3_1") == ref
    with pytest.raises(MalformedInput):
        DocRef.parse("3-1")
    with pytest.raises(MalformedInput):
        DocRef.parse("3_1_2")


def test_docref_parse_takes_the_whole_stripped_text():
    assert DocRef.parse(" 0_1\n") == DocRef(0, 1)
    with pytest.raises(MalformedInput):
        DocRef.parse("x0_1")


@pytest.mark.parametrize("text, ref", [
    ("see <3_1> and 0_0", DocRef(3, 1)),
    ("no id", None),
    ("5" * 5000 + "_1", None),  # more digits than int() converts
], ids=["first-of-two", "none", "too-many-digits"])
def test_docref_find_gives_the_first_id_in_the_text(text, ref):
    assert DocRef.find(text) == ref


@given(st.integers(0, 10**6 - 1), st.integers(0, 10**6 - 1))
def test_docref_round_trip(i, j):
    ref = DocRef(i, j)
    assert DocRef.parse(ref.serialize()) == ref


def test_resolve_direct():
    store = make_store([["p00"], ["p10", "p11"], ["x", "y", "z", "w", "q", "alpha"]])
    url, passage = resolve(store, DocRef(2, 5))
    assert url == "https://example.test/2"
    assert passage == "alpha"


def test_resolve_out_of_bounds():
    store = make_store([])
    with pytest.raises(UnknownDocRef):
        resolve(store, DocRef(0, 0))
    store = make_store([["only"]])
    with pytest.raises(UnknownDocRef):
        resolve(store, DocRef(0, 1))


def test_verdict_label_round_trip():
    for label in VerdictLabel:
        assert VerdictLabel.from_string(label.value) is label
    assert VerdictLabel.parse_lenient("refuted.") is VerdictLabel.REFUTED
    assert VerdictLabel.parse_lenient("conflicting evidence / cherry-picking") is VerdictLabel.CONFLICTING
    assert VerdictLabel.parse_lenient("maybe") is None


def test_answer_type_round_trip():
    for at in AnswerType:
        assert AnswerType.from_string(at.value) is at
    assert AnswerType.parse_lenient("extractive") is AnswerType.EXTRACTIVE
    assert AnswerType.parse_lenient("??") is None


def _report(claim_id, verdict, evidence):
    return VerdictReport(claim_id=claim_id, claim=f"claim {claim_id}", evidence=evidence,
                         justification="because", verdict=verdict)


def test_write_predictions_empty(tmp_path):
    path = tmp_path / "pred.json"
    write_predictions(path, [])
    assert json.loads(path.read_text(encoding="utf-8")) == []


def test_write_predictions_failing_partway_keeps_the_old_file(tmp_path):
    path = tmp_path / "pred.json"
    write_predictions(path, [_report(0, VerdictLabel.SUPPORTED, [])])
    before = path.read_bytes()
    # the dump has written a whole row, 64 KiB of justification, when it
    # reaches the claim it cannot encode
    long = _report(1, VerdictLabel.REFUTED, [])._replace(justification="x" * 65536)
    broken = _report(2, VerdictLabel.REFUTED, [])._replace(claim=object())
    with pytest.raises(TypeError):
        write_predictions(path, [long, broken])
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["pred.json"]


def test_write_predictions_interrupted_leaves_no_temp_file(tmp_path, monkeypatch):
    # the temp file is written beside the target, and Ctrl-C removes it too
    path = tmp_path / "pred.json"

    def replace(src, dst):
        assert os.path.dirname(src) == str(tmp_path) and os.path.exists(src)
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(KeyboardInterrupt):
        write_predictions(path, [_report(0, VerdictLabel.SUPPORTED, [])])
    assert os.listdir(tmp_path) == []


def test_predictions_round_trip(tmp_path):
    ev = EvidenceItem(question="q?", answer="a", answer_type=AnswerType.BOOLEAN,
                      citation=DocRef(1, 2), url="https://u", scraped_text="text")
    reports = [
        _report(0, VerdictLabel.SUPPORTED, [ev]),
        _report(1, VerdictLabel.NOT_ENOUGH_EVIDENCE, [ev, ev]),
    ]
    path = tmp_path / "pred.json"
    write_predictions(path, reports)

    data = json.loads(path.read_text(encoding="utf-8"))
    assert len(data) == 1 + 1
    assert data[0]["pred_label"] == "Supported"
    assert data[0]["evidence"][0]["citation_id"] == "1_2"

    loaded = load_predictions(path)
    assert [r.claim_id for r in loaded] == [0, 1]
    assert loaded[0].verdict is VerdictLabel.SUPPORTED
    assert loaded[0].evidence[0].citation == DocRef(1, 2)
    assert loaded[0].evidence[0].answer_type is AnswerType.BOOLEAN
    assert loaded[1].justification == "because"
    assert loaded[0].evidence[0].scraped_text == "text"


@pytest.mark.parametrize("label, answer_type", [
    ("Probably True", "Boolean"),
    ("Supported", "Guesswork"),
])
def test_load_predictions_unknown_enum_rejected(tmp_path, label, answer_type):
    row = {"claim_id": 0, "claim": "c", "pred_label": label, "justification": "",
           "evidence": [{"question": "q?", "answer": "a", "answer_type": answer_type,
                         "url": "https://u", "scraped_text": "t", "citation_id": "0_0"}]}
    with pytest.raises(MalformedInput, match="^unknown "):
        load_predictions(_write(tmp_path / "pred.json", [row]))


@pytest.mark.parametrize("field, value", [
    ("claim_id", "abc"),
    ("evidence", [{"question": "q?", "answer": "a", "answer_type": "Boolean",
                   "url": "https://u", "scraped_text": "t", "citation_id": 7}]),
], ids=["claim_id_not_int", "citation_not_string"])
def test_load_predictions_wrongly_shaped_row_rejected(tmp_path, field, value):
    row = {"claim_id": 0, "claim": "c", "pred_label": "Supported", "justification": "",
           "evidence": []}
    row[field] = value
    with pytest.raises(MalformedInput, match="element 0 is malformed"):
        load_predictions(_write(tmp_path / "pred.json", [row]))


def _prediction_row(claim_id, n_evidence=1):
    evidence = {"question": "q?", "answer": "a", "answer_type": "Boolean",
                "url": "https://u", "scraped_text": "t", "citation_id": "0_0"}
    return {"claim_id": claim_id, "claim": "c", "pred_label": "Supported",
            "justification": "", "evidence": [evidence] * n_evidence}


def test_load_predictions_not_array_rejected(tmp_path):
    with pytest.raises(MalformedInput, match="expected a JSON array of prediction objects"):
        load_predictions(_write(tmp_path / "pred.json", _prediction_row(0)))


def test_load_predictions_rejects_more_than_max_evidence(tmp_path):
    full = _prediction_row(0, MAX_EVIDENCE)
    assert len(load_predictions(_write(tmp_path / "ok.json", [full]))[0].evidence) == MAX_EVIDENCE
    rows = [full, _prediction_row(1, 12)]
    with pytest.raises(MalformedInput, match="element 1 has 12 evidence items, more than 4"):
        load_predictions(_write(tmp_path / "pred.json", rows))


def test_load_predictions_rejects_repeated_claim_id(tmp_path):
    rows = [_prediction_row(0), _prediction_row(1), _prediction_row(0)]
    with pytest.raises(MalformedInput, match="elements 0 and 2 both hold claim_id 0"):
        load_predictions(_write(tmp_path / "pred.json", rows))


def test_load_predictions_rejects_one_evidence_item_past_the_cap(tmp_path):
    rows = [_prediction_row(0, MAX_EVIDENCE + 1)]
    with pytest.raises(MalformedInput, match="element 0 has 5 evidence items, more than 4"):
        load_predictions(_write(tmp_path / "pred.json", rows))


def test_load_predictions_keys_repeats_by_claim_id_not_by_element(tmp_path):
    # claim ids that equal other elements' positions are no repeat
    rows = [_prediction_row(1), _prediction_row(0)]
    assert [r.claim_id for r in load_predictions(_write(tmp_path / "ok.json", rows))] == [1, 0]
    rows = [_prediction_row(7), _prediction_row(3), _prediction_row(7)]
    with pytest.raises(MalformedInput, match="elements 0 and 2 both hold claim_id 7"):
        load_predictions(_write(tmp_path / "pred.json", rows))


def test_load_predictions_rejects_a_repeat_before_the_last_element(tmp_path):
    rows = [_prediction_row(0), _prediction_row(0), _prediction_row(1)]
    with pytest.raises(MalformedInput, match="elements 0 and 1 both hold claim_id 0"):
        load_predictions(_write(tmp_path / "pred.json", rows))


def test_load_predictions_justification_may_be_absent(tmp_path):
    row = _prediction_row(0)
    del row["justification"]
    assert load_predictions(_write(tmp_path / "pred.json", [row]))[0].justification == ""


def test_load_predictions_rejects_a_justification_that_is_not_a_string(tmp_path):
    row = _prediction_row(0)
    row["justification"] = 7
    with pytest.raises(MalformedInput,
                       match=r"element 0 is malformed \(justification is int, not str\)"):
        load_predictions(_write(tmp_path / "pred.json", [row]))
