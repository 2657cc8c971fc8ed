import math
import random
import tracemalloc
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from zsl_kep.bm25 import _ASCII_TABLE, _BYTE_TABLE, Bm25Index, build_index, retrieve, tokenize
from zsl_kep.corpus import DocRef

from helpers import make_store, naive_bm25_scores, reference_tokenize


def test_tokenize_rules():
    assert tokenize("The cat, the CAT.") == ["the", "cat", "the", "cat"]
    assert tokenize("") == []
    assert tokenize("COVID-19 cases") == ["covid", "19", "cases"]
    # underscore is not alphanumeric: citation ids split apart
    assert tokenize("see <3_1>") == ["see", "3", "1"]


_TOKENIZER_CASES = [
    "snake_case_id", "__x__", "\x00a\x00", "a\x1cb\x1dc\x1ed\x1fe", "a\x7fb", "\tA\x0bB\x0cC\r\n",
    "İstanbul", "ΟΔΟΣ ΟΔΟΣ.", "x² ½ ٣", "Straße STRASSE", "ǅungla", "e\u0301t\u00e9", "a\u00a0b\u2028c",
    "\u201cΟΔΟΣ\u201d\u2014İ\u2026it\u2019s\u00a0\u2018x\u2013y\u2019",
]


@pytest.mark.parametrize("text", _TOKENIZER_CASES)
def test_tokenize_matches_reference_cases(text):
    assert tokenize(text) == reference_tokenize(text)


def test_tokenize_non_ascii_lowers_before_splitting():
    # 'İ' lowers to 'i' and a combining dot, which splits; a final sigma lowers to 'ς'
    assert tokenize("İstanbul") == ["i", "stanbul"]
    assert tokenize("ΟΔΟΣ") == ["οδος"]
    assert tokenize("x² a_b") == ["x²", "a", "b"]


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(st.characters(max_codepoint=127)),
    st.text(st.sampled_from("aZ09_ -.\x00\x1c\x1f\x7fİΣσς²é\u0301\u00a0")),
    # typographic separators mixed with text whose lowering is context dependent
    st.lists(st.sampled_from(["a", "Z9", " ", "_", "\u2018", "\u2019", "\u201c", "\u201d",
                              "\u2013", "\u2014", "\u2026", "\u00a0", "İ", "ΟΔΟΣ"])).map("".join),
    st.text(),
))
def test_tokenize_matches_reference(text):
    assert tokenize(text) == reference_tokenize(text)


def test_byte_table_is_the_ascii_table_encoded():
    for c in range(128):
        assert bytes([c]).translate(_BYTE_TABLE) == chr(c).translate(_ASCII_TABLE).encode()


def test_build_index_counts():
    store = make_store([["a b", "c d", "e"], ["f g", "h"]])
    index = build_index(store, ["a h"])
    assert index.starts == [0, 3]
    assert (index.postings["a"], index.postings["h"]) == (array("i", [0]), array("i", [4]))
    assert {d.ref for d in retrieve(index, "a h", 10)} == {DocRef(0, 0), DocRef(1, 1)}


def test_build_index_skips_empty_passage():
    store = make_store([["a b", "", "c"]])
    index = build_index(store, ["a c"])
    # the empty passage keeps its ordinal but holds no posting
    assert (index.postings["a"], index.postings["c"]) == (array("i", [0]), array("i", [2]))
    # neighbouring ids unchanged
    assert {d.ref for d in retrieve(index, "a c", 10)} == {DocRef(0, 0), DocRef(0, 2)}


def test_doc_refs_skip_url_entries_without_passages():
    store = make_store([[], ["a"], [], ["", "a b"], []])
    index = build_index(store, ["a"])
    assert index.starts == [0, 0, 1, 1, 3]
    assert [d.ref.serialize() for d in retrieve(index, "a", 10)] == ["1_0", "3_1"]


def test_doc_frequencies_by_hand():
    index = build_index(make_store([["a b", "b c b"]]), ["a b", "c"])
    assert {term: len(plist) for term, plist in index.postings.items()} == {"a": 1, "b": 2, "c": 1}
    assert index.postings["b"] == array("i", [0, 1])
    assert {v.typecode for v in index.postings.values()} == {"i"}
    assert {v.typecode for v in index.impacts.values()} == {"d"}
    # lengths 2 and 3, so avg 2.5; k1 = 1.2 and b = 0.75 by default
    norms = [1.2 * (1.0 - 0.75 + 0.75 * length / 2.5) for length in (2, 3)]
    idf = {df: math.log(1.0 + (2 - df + 0.5) / (df + 0.5)) for df in (1, 2)}
    assert index.impacts == {
        "a": array("d", [idf[1] * 1 * (1.2 + 1.0) / (1 + norms[0])]),
        "b": array("d", [idf[2] * 1 * (1.2 + 1.0) / (1 + norms[0]),
                         idf[2] * 2 * (1.2 + 1.0) / (2 + norms[1])]),
        "c": array("d", [idf[1] * 1 * (1.2 + 1.0) / (1 + norms[1])]),
    }
    with pytest.raises(KeyError):  # a miss does not grow the index
        index.postings["zz"]


def test_indexed_term_without_posting_has_no_hits():
    index = build_index(make_store([["a b", "b c"]]), ["a zz"])
    assert len(index.postings["zz"]) == len(index.impacts["zz"]) == 0
    # both passages have length 2, so the norm is k1 = 1.2
    idf = math.log(1.0 + (2 - 1 + 0.5) / (1 + 0.5))
    assert index.impacts["a"] == array("d", [idf * 1 * (1.2 + 1.0) / (1 + 1.2)])
    assert retrieve(index, "zz", 10) == []
    assert [d.ref for d in retrieve(index, "zz a", 10)] == [DocRef(0, 0)]


def test_unindexed_query_term_raises():
    index = build_index(make_store([["a b", "b c"]]), ["a"])
    assert set(index.postings) == set(index.impacts) == {"a"}
    # "b" is in the store but in no indexed query: never scored as df = 0
    for query in ("b", "a b", "qq"):
        with pytest.raises(KeyError):
            retrieve(index, query, 10)


def _scores(index, query):
    """Every passage's BM25 score for ``query``; passages retrieve leaves out
    scored zero. No more passages score than there are postings."""
    return {d.ref: d.score for d in retrieve(index, query, sum(map(len, index.postings.values())))}


def test_score_hand_evaluated():
    index = build_index(make_store([["a b", "b c"]]), ["a", "b"])
    [hit] = retrieve(index, "a", 10)
    assert hit.ref == DocRef(0, 0)
    assert hit.score == pytest.approx(math.log(2), abs=1e-12)
    b_scores = _scores(index, "b")
    assert b_scores[DocRef(0, 0)] == pytest.approx(math.log(1.2), abs=1e-12)
    assert b_scores[DocRef(0, 1)] == pytest.approx(math.log(1.2), abs=1e-12)


def test_score_absent_terms_contribute_zero():
    index = build_index(make_store([["a b", "b c"]]), ["a zz qq"])
    assert _scores(index, "zz") == {}
    assert _scores(index, "zz qq") == {}
    assert _scores(index, "a zz qq") == _scores(index, "a")
    # repeated query terms count once
    assert _scores(index, "a a") == _scores(index, "a")


def test_retrieve_top_k_zero_and_no_match():
    index = build_index(make_store([["a b", "b c"]]), ["a", "zz qq"])
    assert retrieve(index, "a", 0) == []
    assert retrieve(index, "zz qq", 10) == []


def test_retrieve_empty_store():
    index = build_index(make_store([]), ["anything"])
    assert retrieve(index, "anything", 5) == []


def test_retrieve_matches_naive_oracle():
    rng = random.Random(7)
    vocab = ["red", "blue", "green", "dog", "cat", "sun", "moon", "sea"]
    for _ in range(25):
        passages = [" ".join(rng.choices(vocab, k=rng.randint(1, 8)))
                    for _ in range(rng.randint(1, 12))]
        store = make_store([passages])
        query = " ".join(rng.choices(vocab, k=rng.randint(1, 4)))
        index = build_index(store, [query])

        oracle = naive_bm25_scores(passages, query)
        expected = sorted(
            ((s, DocRef(0, i)) for i, s in enumerate(oracle) if s > 0),
            key=lambda pair: (-pair[0], pair[1].url_index, pair[1].text_index),
        )
        got = retrieve(index, query, len(passages))
        assert [d.ref for d in got] == [ref for _, ref in expected]
        for doc, (exp_score, _) in zip(got, expected):
            assert doc.score == pytest.approx(exp_score, abs=1e-9)


def test_retrieve_prefix_property():
    store = make_store([["a b c", "a b", "a", "b c", "c c c", "a c"]])
    index = build_index(store, ["a c"])
    for k in range(6):
        shorter = [d.ref for d in retrieve(index, "a c", k)]
        longer = [d.ref for d in retrieve(index, "a c", k + 1)]
        assert longer[:k] == shorter


def test_scores_non_increasing_and_ties_by_ref():
    # identical docs tie; order must be ascending DocRef
    store = make_store([["a x", "a x"], ["a x"]])
    index = build_index(store, ["a"])
    got = retrieve(index, "a", 10)
    assert [d.ref for d in got] == [DocRef(0, 0), DocRef(0, 1), DocRef(1, 0)]
    assert all(got[i].score >= got[i + 1].score for i in range(len(got) - 1))


def test_idf_positive_for_all_indexed_terms():
    # "the" appears in every doc; idf must still be positive
    store = make_store([["the a", "the b", "the c", "the d"]])
    index = build_index(store, ["the"])
    scores = _scores(index, "the")
    assert len(scores) == 4
    assert all(s > 0 for s in scores.values())


def test_unrelated_doc_does_not_change_match_set():
    base = [["a b", "b c", "c d"]]
    with_extra = [["a b", "b c", "c d", "zz qq"]]
    idx1 = build_index(make_store(base), ["b"])
    idx2 = build_index(make_store(with_extra), ["b"])
    set1 = {d.ref for d in retrieve(idx1, "b", 10)}
    set2 = {d.ref for d in retrieve(idx2, "b", 10)}
    assert set1 == set2


@settings(max_examples=50)
@given(st.lists(st.text(alphabet="ab ", min_size=1, max_size=12), min_size=1, max_size=8),
       st.text(alphabet="ab ", min_size=1, max_size=8))
def test_postings_score_equals_naive_recount(passages, query):
    store = make_store([passages])
    index = build_index(store, [query])
    oracle = naive_bm25_scores([p for p in passages if p], query)
    kept = [i for i, p in enumerate(passages) if p]
    scores = _scores(index, query)
    for ordinal, i in enumerate(kept):
        assert scores.get(DocRef(0, i), 0.0) == pytest.approx(oracle[ordinal], abs=1e-9)
    # ordinals are positions, and no empty passage holds a posting
    assert index.starts == [0]
    assert all(passages[o] for plist in index.postings.values() for o in plist)


# ASCII separators and control characters beside letters whose lowering is
# context dependent or not one character, a digit-like '²' and a curly quote
_MIXED_TEXT = st.text(alphabet="aZ09_ -.\x00\x1c\x7fİΣς²é \u2019", max_size=10)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_MIXED_TEXT, max_size=6), min_size=1, max_size=4),
       st.lists(_MIXED_TEXT, min_size=1, max_size=3))
@example([["a Z", "é a", "", "Σa ς"], ["aé’Z9", "-."]], ["A é", "zz", "ς9"])
def test_index_over_ascii_and_non_ascii_passages_equals_naive_recount(passage_lists, queries):
    # ASCII passages are scanned as bytes and the others by tokenize, into one
    # index; the oracle recounts every passage with tokenize alone
    index = build_index(make_store(passage_lists), queries)
    kept = [(DocRef(u, t), p) for u, passages in enumerate(passage_lists)
            for t, p in enumerate(passages) if p]
    ordinal = {ref: o for o, ref in enumerate(
        DocRef(u, t) for u, passages in enumerate(passage_lists) for t in range(len(passages)))}
    for term in index.postings:
        holders = [ordinal[ref] for ref, p in kept if term in tokenize(p)]
        assert list(index.postings[term]) == holders
        # a one-term query scores each holder by its term count and length alone
        recount = naive_bm25_scores([p for _, p in kept], term)
        assert list(index.impacts[term]) == [s for s in recount if s > 0.0]
    for query in queries:
        assert [(d.ref, d.score) for d in retrieve(index, query, len(ordinal))] == \
            _oracle_ranking(kept, query)


_FUNCTION_WORDS = ["the", "of", "and", "to", "a", "in", "is", "that"]


def test_index_keeps_no_python_object_per_posting():
    # about 68,000 postings over 20,000 passages, half their words function words;
    # two typed arrays take 12 bytes a posting; a boxed int and float would take about 66
    rng = random.Random(26)
    vocab = _FUNCTION_WORDS + [f"w{i}" for i in range(200)]
    store = make_store([[" ".join(rng.choices(_FUNCTION_WORDS, k=4) + rng.choices(vocab, k=4))
                         for _ in range(100)] for _ in range(200)])
    tracemalloc.start()
    try:
        index = build_index(store, ["the of and", "to a in", "is that the"])
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    n_postings = sum(map(len, index.postings.values()))
    assert n_postings > 60_000
    assert retained / n_postings <= 20


def _zipf_passage_lists(rng):
    """Several URLs of passages drawn from a Zipfian vocabulary led by function
    words, with empty and token-free passages and exact duplicates (ties)."""
    vocab = _FUNCTION_WORDS + [f"w{i}" for i in range(rng.randint(5, 80))]
    weights = [1.0 / rank for rank in range(1, len(vocab) + 1)]
    passage_lists = []
    for _ in range(rng.randint(1, 6)):
        passages = []
        for _ in range(rng.randint(0, 30)):
            kind = rng.random()
            if kind < 0.06:
                passages.append("")
            elif kind < 0.1:
                passages.append("-- , . ;")
            elif kind < 0.25 and passages:
                passages.append(rng.choice(passages))
            else:
                passages.append(" ".join(rng.choices(vocab, weights, k=rng.randint(1, 40))))
        passage_lists.append(passages)
    return vocab, weights, passage_lists


def test_retrieve_equals_exact_oracle_prefix():
    """Ranks and scores are the oracle's to the last bit, for every cut-off."""
    rng = random.Random(20240)
    for _ in range(120):
        vocab, weights, passage_lists = _zipf_passage_lists(rng)
        kept = [(DocRef(u, t), passage) for u, passages in enumerate(passage_lists)
                for t, passage in enumerate(passages) if passage]
        n = sum(len(passages) for passages in passage_lists)
        queries = []
        for _ in range(4):
            terms = rng.choices(vocab, weights, k=rng.randint(1, 8))
            queries.append(" ".join(terms + rng.choice([[], [terms[0]], ["zzz"]])))
        # indexed from the queries it answers, "zzz" (in no passage) included
        index = build_index(make_store(passage_lists), queries)
        for query in queries:
            oracle = naive_bm25_scores([passage for _, passage in kept], query)
            expected = sorted(
                ((ref, s) for (ref, _), s in zip(kept, oracle) if s > 0.0),
                key=lambda pair: (-pair[1], pair[0].url_index, pair[0].text_index))
            for k in (0, 1, 12, 70, n):
                got = [(d.ref, d.score) for d in retrieve(index, query, k)]
                assert got == expected[:k]


class _CountedReads(list):
    """Impacts that count the times they are read whole. retrieve reads a
    term's impacts whole only once it has visited the term, and looks up an
    unvisited term's one candidate at a time, so a query that stopped early
    leaves some term's count at zero."""

    reads = 0

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


def _retrieve_counting_reads(index, query, top_k):
    """retrieve's (ref, score) pairs, and per query term the times its impact
    list was read whole during the call."""
    index = index._replace(impacts={term: _CountedReads(values)
                                    for term, values in index.impacts.items()})
    hits = [(d.ref, d.score) for d in retrieve(index, query, top_k)]
    return hits, {term: index.impacts[term].reads for term in tokenize(query)}


def _oracle_ranking(kept, query):
    oracle = naive_bm25_scores([passage for _, passage in kept], query)
    return sorted(((ref, s) for (ref, _), s in zip(kept, oracle) if s > 0.0),
                  key=lambda pair: (-pair[1], pair[0].url_index, pair[0].text_index))


def test_rare_terms_decide_without_reading_the_common_term():
    # "the" is in every passage; "mark" and "sign" in three and two of them
    passages = [f"the w{i} the" for i in range(40)]
    for i, extra in ((3, "mark"), (17, "mark sign"), (29, "mark"), (35, "sign")):
        passages[i] += " " + extra
    store = make_store([passages[:20], passages[20:]])
    kept = [(DocRef(i // 20, i % 20), p) for i, p in enumerate(passages)]
    query = "the mark sign"
    index = build_index(store, [query])
    expected = _oracle_ranking(kept, query)
    for k in range(1, 5):
        hits, reads = _retrieve_counting_reads(index, query, k)
        assert hits == expected[:k]
        # the first check decided: no list read twice, the common one never
        assert reads["the"] == 0 and max(reads.values()) == 1
    # five candidates hold a rare term: a top 6 needs the common term's whole list
    hits, reads = _retrieve_counting_reads(index, query, 6)
    assert hits == expected[:6] and reads["the"] == 1


def test_passage_outside_the_candidates_tying_the_kth_hit_wins_by_ordinal():
    # by hand: passage 2 alone holds "x" and scores 1.0, the ceiling of "y",
    # which passage 0 reaches; the tie goes to the lower ordinal
    index = Bm25Index(starts=[0],
                      postings={"x": array("i", [2]), "y": array("i", [0, 1, 3])},
                      impacts={"x": array("d", [1.0]), "y": array("d", [1.0, 0.5, 0.5])},
                      ceilings={"x": 1.0, "y": 1.0})
    hits, reads = _retrieve_counting_reads(index, "x y", 1)
    assert hits == [(DocRef(0, 0), 1.0)]
    # "x" is read by the check the tie refused and again by the full evaluation
    assert reads == {"x": 2, "y": 1}
    hits, reads = _retrieve_counting_reads(index, "x y", 2)
    assert hits == [(DocRef(0, 0), 1.0), (DocRef(0, 2), 1.0)]
    assert reads == {"x": 1, "y": 1}  # one candidate for a top 2: no check


def test_pruned_cut_inside_tie_groups_equals_oracle():
    """Rare terms planted in exact duplicates, so the k-th hit ties with the
    next ones; every k from 0 to n matches the oracle to the last bit."""
    rng = random.Random(1995)
    ties_at_pruned_cut = 0
    for _ in range(40):
        vocab, weights, passage_lists = _zipf_passage_lists(rng)
        rare = [f"r{i}" for i in range(rng.randint(1, 3))]
        for term in rare:
            planted = " ".join(rng.choices(vocab, weights, k=rng.randint(1, 12)) + [term])
            for _ in range(rng.randint(1, 4)):
                passages = rng.choice(passage_lists)
                passages.insert(rng.randint(0, len(passages)), planted)
        kept = [(DocRef(u, t), passage) for u, passages in enumerate(passage_lists)
                for t, passage in enumerate(passages) if passage]
        n = sum(len(passages) for passages in passage_lists)
        query = " ".join(rare + rng.sample(_FUNCTION_WORDS, rng.randint(1, 4)))
        index = build_index(make_store(passage_lists), [query])
        expected = _oracle_ranking(kept, query)
        for k in range(n + 1):
            hits, reads = _retrieve_counting_reads(index, query, k)
            assert hits == expected[:k]
            if 0 < k < len(expected) and min(reads.values()) == 0:
                ties_at_pruned_cut += expected[k - 1][1] == expected[k][1]
    assert ties_at_pruned_cut > 0


def test_function_word_query_never_prunes():
    rng = random.Random(2006)
    # every passage holds every query term, so no term is rarer than another
    passage_lists = [[" ".join(rng.choices(_FUNCTION_WORDS, k=rng.randint(0, 12)) + ["the of a"])
                      for _ in range(30)] for _ in range(3)]
    kept = [(DocRef(u, t), p) for u, passages in enumerate(passage_lists)
            for t, p in enumerate(passages)]
    query = "the of a"
    index = build_index(make_store(passage_lists), [query])
    expected = _oracle_ranking(kept, query)
    for k in (1, 5, 15, 90):
        hits, reads = _retrieve_counting_reads(index, query, k)
        assert hits == expected[:k]
        # each list read once, by the full evaluation, with no check before it
        assert reads == {"the": 1, "of": 1, "a": 1}


# an infinite k1 makes every impact and ceiling NaN, and the hits unordered
@pytest.mark.parametrize("k1, b", [(-0.9, 1.0), (-1e-9, 0.75), (float("nan"), 0.75),
                                   (1.2, -0.1), (1.2, 1.5), (1.2, float("nan")),
                                   (float("inf"), 0.75)])
def test_build_index_rejects_parameters_that_make_an_impact_non_positive(k1, b):
    with pytest.raises(ValueError, match="k1 must be >= 0|k1 must be finite|b must be in"):
        build_index(make_store([["r x", "y"]]), ["r x y"], k1=k1, b=b)


def test_build_index_accepts_the_parameter_edges():
    passages = ["r x", "x y y", "y", "r r x y"]
    for k1, b in ((0.0, 0.75), (1.2, 0.0), (1.2, 1.0), (0.0, 0.0)):
        index = build_index(make_store([passages]), ["r x y"], k1=k1, b=b)
        oracle = naive_bm25_scores(passages, "r x y", k1=k1, b=b)
        got = retrieve(index, "r x y", 4)
        assert all(value > 0.0 for values in index.impacts.values() for value in values)
        assert [d.score for d in got] == pytest.approx(sorted(oracle, reverse=True), abs=1e-12)
