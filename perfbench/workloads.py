"""Seeded inputs for the three benchmark workloads.

Each generator writes a self-contained input directory (knowledge stores, a
claims file that doubles as gold, a mock script and a run config) and returns
a ``Generated`` record with what the harness needs to check the outputs: the
stderr counts the scripted fault mix must produce, the designed prompt shapes
and the claims sampled for oracle checks. The same seed always gives the same
files; the program under test sees only the files.

Every fault is placed on a fixed number of claims per workload and only the
choice of which claims is seeded, so the expected counts and the total work do
not drift with the seed.
"""

import json
import os
import random
import string
from dataclasses import dataclass, field
from itertools import accumulate

WORKERS = 2  # the program's own claim pool; nproc on the reference machine

# Top Zipf ranks. large_store queries take their function words by band, in
# turn, so that the posting-list volume the queries touch is the same from
# seed to seed.
FUNCTION_WORDS = (
    "the", "of", "and", "to", "a", "in", "is", "that", "for", "it",
    "was", "on", "as", "with", "by", "at", "from", "this", "be", "or",
    "are", "an", "which", "were", "not", "has", "had", "its", "but", "they",
)
_QUERY_BANDS = (FUNCTION_WORDS[0:2], FUNCTION_WORDS[2:4], FUNCTION_WORDS[4:7],
                FUNCTION_WORDS[7:10])
_ONSETS = "bcdfghjklmnprstvw"
_VOWELS = "aeiou"

ANSWER_TYPES = ("Extractive", "Abstractive", "Boolean", "Unanswerable")
VERDICTS = ("Supported", "Refuted", "Not Enough Evidence",
            "Conflicting Evidence/Cherry-Picking")
UNPARSEABLE_KEYPOINTS = "I could not break this claim into separate key points."
RATE_LIMITED = {"error": "rate_limited", "detail": "scripted HTTP 429"}
TRANSPORT = {"error": "transport", "detail": "scripted connection reset"}

# Prompt budget arithmetic for large_store (budget 8,000 whitespace tokens;
# the prediction prompt without documents is about 200 tokens; every document
# adds its words plus one citation tag). Full prompt: 10 x 12 + 70 = 190
# documents; after the 55/9 cut: 145; after one halving (27/4): 67.
_LENGTH_CLASSES = {
    "fit": (28, 36),      # 190 x 37 + 200 < 8000
    "once": (43, 50),     # 190 x 44 > 8000, 145 x 51 + 200 < 8000
    "halve": (60, 90),    # 145 x 61 > 8000, 67 x 91 + 200 < 8000
    "one_query": (20, 60),
}
_GROUP_SIZES = {
    "fit": [12] * 10 + [70],
    "once": [9] * 10 + [55],
    "halve": [4] * 10 + [27],
    "one_query": [70],
}


@dataclass
class Generated:
    name: str
    config_path: str
    claims_path: str
    n_claims: int
    latency_s: float
    expected_counts: dict           # the run's stderr summary lines
    oracle_claims: list             # claim ids checked against naive BM25
    assignment_claims: list         # claim ids checked against brute force
    queries: dict                   # claim id -> retrieval queries, claim last
    group_sizes: dict = field(default_factory=dict)  # claim id -> designed prompt groups
    params: dict = field(default_factory=dict)


class Vocab:
    """Function words on the top ranks, seeded pseudo-words below, sampled
    with Zipf weights 1/rank."""

    def __init__(self, rng: random.Random, n_content: int):
        self.content = pseudo_words(rng, n_content)
        self.words = list(FUNCTION_WORDS) + self.content
        self._cum = list(accumulate(1.0 / rank for rank in range(1, len(self.words) + 1)))

    def sample(self, rng: random.Random, k: int) -> list:
        return rng.choices(self.words, cum_weights=self._cum, k=k)


def pseudo_words(rng: random.Random, n: int, syllables=(2, 3)) -> list:
    seen = set(FUNCTION_WORDS)
    out = []
    while len(out) < n:
        word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS)
                       for _ in range(rng.randint(*syllables)))
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


def markers(rng: random.Random, n: int, taken: set) -> list:
    """Rare terms that never occur in the Zipf vocabulary ("zz" prefix)."""
    out = []
    while len(out) < n:
        word = "zz" + "".join(rng.choice(string.ascii_lowercase) for _ in range(6))
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


def banded_function_words(position: int, bands: slice) -> list:
    """One function word per band, the same multiset for every seed: query
    ``position`` takes each band's words in turn."""
    return [band[position % len(band)] for band in _QUERY_BANDS[bands]]


def shuffled(rng: random.Random, tokens: list) -> str:
    tokens = list(tokens)
    rng.shuffle(tokens)
    return " ".join(tokens)


def keypoint_reply(primitives: list, combined: list) -> str:
    lines = ["PRIMITIVE:"]
    lines += [f"{i}. {text}" for i, text in enumerate(primitives, start=1)]
    lines.append("")
    lines.append("COMBINED:")
    lines += [f"{i}. {text}" for i, text in enumerate(combined, start=1)]
    return "\n".join(lines)


def prediction_reply(pairs: list, justification: str, verdict: str) -> str:
    """``pairs`` holds (question, answer, answer type, citation text)."""
    lines = ["EVIDENCE:"]
    for k, (question, answer, answer_type, cite) in enumerate(pairs, start=1):
        lines += [f"Q{k}: {question}", f"A{k}: {answer}", f"TYPE{k}: {answer_type}",
                  f"CITE{k}: {cite}", ""]
    lines += [f"JUSTIFICATION: {justification}", "", f"VERDICT: {verdict}"]
    return "\n".join(lines)


def write_store(path: str, claim_id: int, passage_lists: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for u, passages in enumerate(passage_lists):
            row = {"url": f"https://source{u % 97}.example/{claim_id}/{u}", "url2text": passages}
            fh.write(json.dumps(row))
            fh.write("\n")


def write_inputs(out_dir: str, claims: list, script: dict) -> tuple:
    claims_path = os.path.join(out_dir, "claims.json")
    with open(claims_path, "w", encoding="utf-8") as fh:
        json.dump(claims, fh, indent=1)
    with open(os.path.join(out_dir, "mock_script.json"), "w", encoding="utf-8") as fh:
        json.dump({str(k): v for k, v in script.items()}, fh)
    config_path = os.path.join(out_dir, "config.json")
    config = {
        "claims_path": "claims.json",
        "store_dir": "stores",
        "output_path": "predictions.json",
        "backend": "mock",
        "mock_script_path": "mock_script.json",
        "workers": WORKERS,
    }
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
    return config_path, claims_path


def gold_record(claim: str, verdict: str, questions: list) -> dict:
    """``questions`` holds (question, [answers])."""
    return {"claim": claim, "label": verdict,
            "questions": [{"question": q, "answers": [{"answer": a} for a in answers]}
                          for q, answers in questions]}


def expected_counts(n: int, truncated: int, fallbacks: int, failed: int) -> dict:
    return {"claims processed": n, "truncated runs": truncated,
            "parse fallbacks": fallbacks, "failed claims": failed}


# --------------------------------------------------------------------------
# bulk_small: many cheap claims; the gateway's latency and the pool bound it


BULK = {"claims": 240, "passages": (50, 200), "passage_words": (8, 20),
        "latency_ms": 25, "unparseable_keypoints": 12, "uncitable_cites": 24,
        "rate_limited": 3, "transport": 6}


def gen_bulk_small(out_dir: str, seed: int) -> Generated:
    p = BULK
    rng = random.Random(f"bulk_small/{seed}")
    vocab = Vocab(rng, 6000)
    n = p["claims"]
    ids = list(range(n))
    rng.shuffle(ids)
    cut = iter(ids)
    bad_kp = {next(cut) for _ in range(p["unparseable_keypoints"])}
    bad_cite = {next(cut) for _ in range(p["uncitable_cites"])}
    limited = {next(cut) for _ in range(p["rate_limited"])}
    transport = {next(cut) for _ in range(p["transport"])}

    os.makedirs(os.path.join(out_dir, "stores"))
    claims, script, queries = [], {}, {}
    for cid in range(n):
        n_passages = rng.randint(*p["passages"])
        passage_lists, left = [], n_passages
        while left:
            take = min(left, rng.randint(5, 10))
            passage_lists.append([" ".join(vocab.sample(rng, rng.randint(*p["passage_words"])))
                                  for _ in range(take)])
            left -= take
        write_store(os.path.join(out_dir, "stores", f"{cid}.json"), cid, passage_lists)

        claim_words = vocab.sample(rng, rng.randint(8, 14))
        claim = " ".join(claim_words)

        def keypoint():
            return " ".join(rng.sample(claim_words, 3) + vocab.sample(rng, rng.randint(1, 4)))

        entries = []
        if cid in limited:
            entries.append(RATE_LIMITED)
        if cid in bad_kp:
            entries.append(UNPARSEABLE_KEYPOINTS)
            queries[cid] = [claim]
        else:
            primitives = [keypoint() for _ in range(rng.randint(2, 4))]
            combined = [keypoint() for _ in range(rng.randint(0, 3))]
            entries.append(keypoint_reply(primitives, combined))
            queries[cid] = primitives + combined + [claim]
        if cid in transport:
            entries.append(TRANSPORT)
        else:
            pairs = []
            for _ in range(rng.randint(2, 4)):
                u = rng.randrange(len(passage_lists))
                cite = f"{u}_{rng.randrange(len(passage_lists[u]))}"
                pairs.append((" ".join(rng.sample(vocab.content, rng.randint(6, 10))) + "?",
                              " ".join(rng.sample(vocab.content, rng.randint(5, 12))),
                              rng.choice(ANSWER_TYPES), cite))
            if cid in bad_cite:
                k = rng.randrange(len(pairs))
                pairs[k] = pairs[k][:3] + ("9999_0",)
            entries.append(prediction_reply(pairs, " ".join(vocab.sample(rng, 20)),
                                            rng.choice(VERDICTS)))
        script[cid] = entries

        # evidence text of distinct words, so that METEOR stays cheap and even
        questions = [(" ".join(rng.sample(vocab.content, rng.randint(5, 10))) + "?",
                      [" ".join(rng.sample(vocab.content, rng.randint(3, 8)))
                       for _ in range(rng.randint(1, 2))])
                     for _ in range(rng.randint(1, 3))]
        claims.append(gold_record(claim, rng.choice(VERDICTS), questions))

    config_path, claims_path = write_inputs(out_dir, claims, script)
    return Generated(
        name="bulk_small", config_path=config_path, claims_path=claims_path, n_claims=n,
        latency_s=p["latency_ms"] / 1000.0,
        expected_counts=expected_counts(n, 0, len(bad_kp) + len(bad_cite), len(transport)),
        oracle_claims=sorted(rng.sample(range(n), 3)),
        assignment_claims=sorted(rng.sample(sorted(set(range(n)) - transport), 3)),
        queries=queries, params=p,
    )


# --------------------------------------------------------------------------
# large_store: few claims over 30,000-passage stores; BM25 bounds it


LARGE = {"urls": 1000, "passages_per_url": 30, "background_words": (16, 40),
         "latency_ms": 20, "keypoint_docs": 15, "claim_docs": 90,
         "classes": ["fit", "once", "halve", "one_query"]}


def gen_large_store(out_dir: str, seed: int) -> Generated:
    """Each claim's store plants marker terms in disjoint passage sets: 15
    passages per key point and 90 for the claim, so every key point group
    holds 12 documents, the claim group 70, and the prompt size is set by the
    claim's passage length class. The claim of class one_query gets an
    unparseable key point reply (one query per index build) and a transport
    failure on its prediction call."""
    p = LARGE
    rng = random.Random(f"large_store/{seed}")
    vocab = Vocab(rng, 8000)
    n_docs = p["urls"] * p["passages_per_url"]
    pool = vocab.sample(rng, n_docs * 32)
    taken: set = set()
    classes = list(p["classes"])
    rng.shuffle(classes)

    os.makedirs(os.path.join(out_dir, "stores"))
    claims, script, group_sizes, queries = [], {}, {}, {}
    for cid, cls in enumerate(classes):
        claim_markers = markers(rng, 4, taken)
        kp_markers = [markers(rng, 3, taken) for _ in range(10)]
        claim = shuffled(rng, claim_markers + banded_function_words(cid, slice(0, 4)))
        kps = [shuffled(rng, m + banded_function_words(k, slice(2, 4)))
               for k, m in enumerate(kp_markers)]

        planted = rng.sample(range(n_docs), 10 * p["keypoint_docs"] + p["claim_docs"])
        plant = {}
        for i, doc in enumerate(planted):
            k = i // p["keypoint_docs"]
            plant[doc] = kp_markers[k] if k < 10 else claim_markers

        lo, hi = _LENGTH_CLASSES[cls]
        offset = rng.randrange(len(pool))
        passages = []
        for doc in range(n_docs):
            words = plant.get(doc, ())
            length = rng.randint(lo, hi) if words else rng.randint(*p["background_words"])
            take = length - len(words)
            if offset + take > len(pool):
                offset = 0
            tokens = pool[offset:offset + take] + list(words)
            offset += take
            passages.append(shuffled(rng, tokens) if words else " ".join(tokens))
        per = p["passages_per_url"]
        write_store(os.path.join(out_dir, "stores", f"{cid}.json"), cid,
                    [passages[u * per:(u + 1) * per] for u in range(p["urls"])])

        if cls == "one_query":
            script[cid] = [UNPARSEABLE_KEYPOINTS, TRANSPORT]
            queries[cid] = [claim]
        else:
            queries[cid] = kps + [claim]
            cited = [d for d, m in plant.items() if m is claim_markers][:4]
            pairs = [(" ".join(rng.sample(vocab.content, 8)) + "?",
                      " ".join(rng.sample(vocab.content, 10)),
                      rng.choice(ANSWER_TYPES), f"{d // per}_{d % per}") for d in cited]
            script[cid] = [keypoint_reply(kps[:4], kps[4:]),
                           prediction_reply(pairs, " ".join(vocab.sample(rng, 25)),
                                            rng.choice(VERDICTS))]
        group_sizes[cid] = _GROUP_SIZES[cls]
        # evidence text of distinct words, so that METEOR stays cheap and even
        questions = [(" ".join(rng.sample(vocab.content, 8)) + "?",
                      [" ".join(rng.sample(vocab.content, 8))]) for _ in range(4)]
        claims.append(gold_record(claim, rng.choice(VERDICTS), questions))

    config_path, claims_path = write_inputs(out_dir, claims, script)
    failing = classes.index("one_query")
    return Generated(
        name="large_store", config_path=config_path, claims_path=claims_path,
        n_claims=len(classes), latency_s=p["latency_ms"] / 1000.0,
        expected_counts=expected_counts(len(classes), 2, 1, 1),
        oracle_claims=[rng.randrange(len(classes))],
        assignment_claims=[c for c in range(len(classes)) if c != failing],
        queries=queries, group_sizes=group_sizes, params=p,
    )


# --------------------------------------------------------------------------
# score_heavy: repetition-heavy question/answer strings; METEOR bounds it


HEAVY = {"claims": 20, "passages": (40, 60), "latency_ms": 20,
         "gold_questions": (3, 5), "gold_answers": (1, 2), "transport": 1,
         "question_function_words": ["what", "the", "of", "in"],
         "answer_function_words": ["the", "of", "a", "in", "the", "to", "the", "and"],
         "question_topic": 5, "answer_topic": 10, "answer_repeats": 1}


def gen_score_heavy(out_dir: str, seed: int) -> Generated:
    """A claim's questions are permutations of the same function words and
    its five question-topic words; its answers are permutations of the same
    function words, its ten answer-topic words and one word of their
    question. Every alignment is therefore about equally ambiguous (with
    words drawn independently, the cost of one alignment varies so much that
    the seed would move the score time by several percent), while words,
    orders and repeated words change with the seed."""
    p = HEAVY
    rng = random.Random(f"score_heavy/{seed}")
    vocab = Vocab(rng, 3000)
    n = p["claims"]
    transport = set(rng.sample(range(n), p["transport"]))
    # fixed multiset of gold shapes; the seed only decides which claim gets which
    (q_lo, q_hi), (a_lo, a_hi) = p["gold_questions"], p["gold_answers"]
    shapes = []
    for i in range(n):
        n_questions = q_lo + i % (q_hi - q_lo + 1)
        shapes.append([a_lo + (i + j) % (a_hi - a_lo + 1) for j in range(n_questions)])
    rng.shuffle(shapes)

    os.makedirs(os.path.join(out_dir, "stores"))
    claims, script, queries = [], {}, {}
    for cid in range(n):
        topic = pseudo_words(rng, p["question_topic"] + p["answer_topic"], syllables=(3, 3))
        q_topic, a_topic = topic[:p["question_topic"]], topic[p["question_topic"]:]

        def qa_pair():
            question = shuffled(rng, p["question_function_words"] + q_topic) + "?"
            answer = shuffled(rng, p["answer_function_words"] + a_topic
                              + rng.sample(q_topic, p["answer_repeats"]))
            return question, answer

        passage_lists = [[" ".join(vocab.sample(rng, rng.randint(10, 20)) + rng.sample(topic, 2))
                          for _ in range(10)]
                         for _ in range(rng.randint(*p["passages"]) // 10)]
        write_store(os.path.join(out_dir, "stores", f"{cid}.json"), cid, passage_lists)

        claim = " ".join(rng.sample(topic, 5) + vocab.sample(rng, 6))
        keypoints = [" ".join(rng.sample(topic, k)) for k in (3, 3, 4)]
        entries = [keypoint_reply(keypoints[:2], keypoints[2:])]
        queries[cid] = keypoints + [claim]
        if cid in transport:
            entries.append(TRANSPORT)
        else:
            pairs = [qa_pair() + (rng.choice(ANSWER_TYPES),
                                  f"{rng.randrange(len(passage_lists))}_{rng.randrange(10)}")
                     for _ in range(4)]
            entries.append(prediction_reply(pairs, " ".join(vocab.sample(rng, 20)),
                                            rng.choice(VERDICTS)))
        script[cid] = entries
        questions = []
        for n_answers in shapes[cid]:
            question, answer = qa_pair()
            questions.append((question, [answer] + [qa_pair()[1] for _ in range(n_answers - 1)]))
        claims.append(gold_record(claim, rng.choice(VERDICTS), questions))

    config_path, claims_path = write_inputs(out_dir, claims, script)
    return Generated(
        name="score_heavy", config_path=config_path, claims_path=claims_path, n_claims=n,
        latency_s=p["latency_ms"] / 1000.0,
        expected_counts=expected_counts(n, 0, 0, len(transport)),
        oracle_claims=sorted(rng.sample(range(n), 2)),
        assignment_claims=sorted(rng.sample(sorted(set(range(n)) - transport), 2)),
        queries=queries, params=p,
    )


GENERATORS = {"bulk_small": gen_bulk_small, "large_store": gen_large_store,
              "score_heavy": gen_score_heavy}
