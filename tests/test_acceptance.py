"""Acceptance suite: one test per criterion, each reporting a PASS/FAIL line.

Run with plain ``pytest tests/test_acceptance.py``; the status lines are
printed in the terminal summary after the run.
"""

import json
import random
import re
import sys
import time
from pathlib import Path

from zsl_kep.bm25 import build_index, retrieve
from zsl_kep.cli import main
from zsl_kep.config import RunConfig
from zsl_kep.corpus import DocRef, VerdictLabel, load_store
from zsl_kep.keypoints import KeyPointSet, PromptLibrary
from zsl_kep.llm_gateway import Gateway, MockBackend
from zsl_kep.pipeline import GROUP_SEPARATOR, predict_with_retry, run_retrieval
from zsl_kep.scoring import hungarian_max, meteor

from conftest import ACCEPTANCE_LINES
from helpers import (brute_force_assignment, independent_meteor, make_store,
                     naive_bm25_scores)

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "e2e"


def _criterion(num, label, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"criterion {num} {label}: {status}{suffix}"
    ACCEPTANCE_LINES.append(line)
    print(line, file=sys.stderr)
    assert passed, f"acceptance criterion {num} failed: {label}{suffix}"


def test_criterion_1_bm25_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(101)
    vocab = ["ash", "birch", "cedar", "dune", "elm", "fern", "gale", "heath",
             "iris", "juno", "kelp", "loch"]
    checked = 0
    ok = True
    for _ in range(100):
        n_docs = rng.randint(1, 20)
        passages = [" ".join(rng.choices(vocab, k=rng.randint(1, 12)))
                    for _ in range(n_docs)]
        split = rng.randint(0, n_docs)
        store = make_store([passages[:split], passages[split:]])
        refs = [DocRef(0, i) for i in range(split)] + \
               [DocRef(1, i) for i in range(n_docs - split)]
        cases = []
        for _ in range(10):
            query = " ".join(rng.choices(vocab + ["zzz"], k=rng.randint(1, 4)))
            cases.append((query, rng.choice([0, 3, n_docs, n_docs + 5])))
        index = build_index(store, [query for query, _ in cases])

        for query, top_k in cases:
            oracle = naive_bm25_scores(passages, query)
            expected = sorted(
                ((s, ref) for s, ref in zip(oracle, refs) if s > 0),
                key=lambda pair: (-pair[0], pair[1].url_index, pair[1].text_index),
            )
            got = retrieve(index, query, top_k)
            want = expected[:top_k]
            if [d.ref for d in got] != [ref for _, ref in want]:
                ok = False
            if any(abs(d.score - s) > 1e-9 for d, (s, _) in zip(got, want)):
                ok = False
            checked += 1
    elapsed = time.perf_counter() - started
    _criterion(1, "bm25 oracle equivalence", ok and elapsed < 5.0,
               f"{checked} queries in {elapsed:.2f}s")


def test_criterion_2_hungarian_exactness():
    started = time.perf_counter()
    rng = random.Random(202)
    cases = []
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 6)
        if rng.random() < 0.5:
            matrix = [[rng.uniform(-3, 3) for _ in range(cols)] for _ in range(rows)]
        else:
            matrix = [[float(rng.randint(0, 4)) for _ in range(cols)] for _ in range(rows)]
        cases.append(matrix)
    for k in range(1, 7):
        cases.append([[rng.uniform(-1, 1) for _ in range(k)]])        # 1 x k
        if k <= 4:
            cases.append([[rng.uniform(-1, 1)] for _ in range(k)])    # k x 1

    ok = True
    for matrix in cases:
        pairs = hungarian_max(matrix)
        best, _ = brute_force_assignment(matrix)
        total = sum(matrix[i][j] for i, j in pairs)
        if total != best or len(pairs) != min(len(matrix), len(matrix[0])):
            ok = False
    elapsed = time.perf_counter() - started
    _criterion(2, "hungarian exactness", ok and elapsed < 10.0,
               f"{len(cases)} matrices in {elapsed:.2f}s")


def test_criterion_3_meteor_fixtures():
    started = time.perf_counter()
    ok = abs(meteor("the cat sat on the mat", ["the cat sat on the mat"])
             - (1.0 - 0.5 / 216.0)) < 1e-6
    ok &= abs(meteor("b a", ["a b"]) - 0.5) < 1e-6
    ok &= meteor("aa bb", ["cc dd"]) == 0.0

    rng = random.Random(303)
    vocab = ["sun", "moon", "tide", "reef"]
    for _ in range(20):
        hyp = " ".join(rng.choices(vocab, k=rng.randint(1, 7)))
        ref = " ".join(rng.choices(vocab, k=rng.randint(1, 7)))
        if abs(meteor(hyp, [ref]) - independent_meteor(hyp, [ref])) > 1e-9:
            ok = False
    elapsed = time.perf_counter() - started
    _criterion(3, "meteor fixtures and independent evaluation", ok and elapsed < 1.0,
               f"{elapsed:.3f}s")


def test_criterion_4_end_to_end_determinism(tmp_path):
    started = time.perf_counter()
    out1, out2 = tmp_path / "run1.json", tmp_path / "run2.json"
    config = str(FIXTURE_DIR / "config.json")
    ok = main(["run", "--config", config, "--output", str(out1)]) == 0
    ok &= main(["run", "--config", config, "--output", str(out2)]) == 0
    ok &= out1.read_bytes() == out2.read_bytes()

    canonical = {label.value for label in VerdictLabel}
    data = json.loads(out1.read_text(encoding="utf-8"))
    ok &= len(data) == 4
    for row in data:
        store = load_store(FIXTURE_DIR / "stores" / f"{row['claim_id']}.json",
                           row["claim_id"])
        ok &= 1 <= len(row["evidence"]) <= 4
        ok &= row["pred_label"] in canonical
        for ev in row["evidence"]:
            ref = DocRef.parse(ev["citation_id"])
            url = store.entries[ref.url_index].url
            passage = store.entries[ref.url_index].passages[ref.text_index]
            ok &= ev["url"] == url and ev["scraped_text"] == passage
    elapsed = time.perf_counter() - started
    _criterion(4, "end-to-end determinism and structure", ok and elapsed < 5.0,
               f"{elapsed:.2f}s")


def test_criterion_5_truncation_protocol():
    started = time.perf_counter()
    claim_passages = [f"alpha reading number {i} from the sensor" for i in range(60)]
    kp_passages = [f"gamma beacon log entry {i}" for i in range(14)]
    store = make_store([claim_passages, kp_passages])
    cfg = RunConfig()
    keypoints = KeyPointSet(["gamma beacon"], [])
    groups = run_retrieval(store, keypoints, "alpha sensor", cfg)
    available = [len(g.docs) for g in groups]  # [12, 60]

    response = ("EVIDENCE:\nQ1: q?\nA1: a\nTYPE1: Abstractive\nCITE1: 0_0\n\n"
                "JUSTIFICATION: j\n\nVERDICT: Supported")
    backend = MockBackend({0: [{"error": "context_overflow"}, response]})
    report = predict_with_retry(Gateway(backend), groups, "alpha sensor", store, cfg,
                                claim_id=0, library=PromptLibrary.load())

    calls = backend.calls_for(0)
    ok = len(calls) == 2 and report.truncated

    def counts(message):
        retrieval = message.split("Retrieved documents:\n", 1)[1]
        return [len(part.splitlines()) for part in retrieval.split(GROUP_SEPARATOR)]

    ok &= counts(calls[0].user_message) == available
    ok &= counts(calls[1].user_message) == [min(9, available[0]), min(55, available[1])]
    elapsed = time.perf_counter() - started
    _criterion(5, "truncation to 55/9 after first overflow", ok and elapsed < 1.0,
               f"second prompt groups {counts(calls[1].user_message)} in {elapsed:.3f}s")


def _score_fixture(tmp_path, name, gold_rows, pred_rows):
    gold = tmp_path / f"{name}_gold.json"
    pred = tmp_path / f"{name}_pred.json"
    report = tmp_path / f"{name}_scores.json"
    gold.write_text(json.dumps(gold_rows), encoding="utf-8")
    pred.write_text(json.dumps(pred_rows), encoding="utf-8")
    code = main(["score", "--pred", str(pred), "--gold", str(gold),
                 "--report", str(report)])
    payload = json.loads(report.read_text(encoding="utf-8"))
    return code, payload["aggregate"]["averitec"]


def _gold_row(claim, label, qa_pairs):
    return {"claim": claim, "label": label,
            "questions": [{"question": q, "answers": [{"answer": a}]}
                          for q, a in qa_pairs]}


def _pred_row(claim_id, claim, label, qa_pairs):
    return {"claim_id": claim_id, "claim": claim, "pred_label": label,
            "justification": "j",
            "evidence": [{"question": q, "answer": a, "answer_type": "Abstractive",
                          "url": "u", "scraped_text": "t", "citation_id": "0_0"}
                         for q, a in qa_pairs]}


def test_criterion_6_gate_behavior(tmp_path):
    qa = [("did the storm reach the harbour", "yes the storm reached the harbour")]
    disjoint = [("entirely different interrogative", "unrelated reply text")]

    code_a, averitec_a = _score_fixture(
        tmp_path, "equal",
        [_gold_row("c0", "Supported", qa)],
        [_pred_row(0, "c0", "Supported", qa)])

    code_b, averitec_b = _score_fixture(
        tmp_path, "disjoint",
        [_gold_row("c0", "Refuted", qa)],
        [_pred_row(0, "c0", "Refuted", disjoint)])

    gold_rows = [
        _gold_row("c0", "Supported", qa),
        _gold_row("c1", "Supported", qa),
        _gold_row("c2", "Refuted", qa),
        _gold_row("c3", "Conflicting Evidence/Cherry-Picking", qa),
    ]
    pred_rows = [
        _pred_row(0, "c0", "Supported", qa),          # gated correct
        _pred_row(1, "c1", "Refuted", qa),            # wrong label
        _pred_row(2, "c2", "Refuted", disjoint),      # gate fails
        _pred_row(3, "c3", "Not Enough Evidence", disjoint),
    ]
    code_c, averitec_c = _score_fixture(tmp_path, "mixed", gold_rows, pred_rows)

    ok = (code_a == 0 and abs(averitec_a - 1.0) < 1e-9
          and code_b == 0 and abs(averitec_b - 0.0) < 1e-9
          and code_c == 0 and abs(averitec_c - 0.25) < 1e-9)
    _criterion(6, "conditioned gate at 0.25",
               ok, f"averitec {averitec_a:.4f}/{averitec_b:.4f}/{averitec_c:.4f}")


def test_criterion_7_n_plus_one_query_groups(capsys):
    # bundled claim 3 is scripted with 4 primitive + 2 combined key points
    code = main(["inspect", "--config", str(FIXTURE_DIR / "config.json"), "--claim", "3"])
    out = capsys.readouterr().out
    groups = re.findall(r"^group (\d+)/(\d+) kind=(\w+) cap=(\d+)", out, re.MULTILINE)
    ok = code == 0 and len(groups) == 7
    ok &= all(total == "7" for _, total, _, _ in groups)
    ok &= [kind for _, _, kind, _ in groups] == ["keypoint"] * 6 + ["claim"]
    caps = [int(cap) for _, _, _, cap in groups]
    ok &= caps == [12, 12, 12, 12, 12, 12, 70]
    _criterion(7, "seven retrieval groups with caps 12x6 and 70", ok,
               f"caps {caps}")


def test_criterion_8_keypoint_retrieval_recalls_more_gold():
    # gold passages share vocabulary with the key points but not with the claim
    gold_passages = [f"grain ledger page {i} harvest tally" for i in range(6)]
    claim_bait = [f"census figure {i} for the town" for i in range(40)]
    noise = [f"weather note {i} about wind" for i in range(20)]
    store = make_store([gold_passages, claim_bait, noise])
    gold_refs = {DocRef(0, i) for i in range(len(gold_passages))}

    cfg = RunConfig()
    claim = "the town census figure doubled"
    keypoints = KeyPointSet(["harvest tally", "grain ledger"], ["the grain ledger harvest tally"])
    claim_only = run_retrieval(store, KeyPointSet(), claim, cfg)
    augmented = run_retrieval(store, keypoints, claim, cfg)

    recall_claim = {ref for g in claim_only for ref, _ in g.docs} & gold_refs
    recall_aug = {ref for g in augmented for ref, _ in g.docs} & gold_refs

    ok = recall_claim <= recall_aug and len(recall_aug) > len(recall_claim)
    _criterion(8, "key point retrieval recalls strictly more gold passages", ok,
               f"claim-only {len(recall_claim)}, augmented {len(recall_aug)}")
