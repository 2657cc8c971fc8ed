"""BM25 ranking over one knowledge store's passages.

The retrieval unit is the individual passage, scored with

    score(d, q) = sum over unique query terms t of
        idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(d) / avg_len))

with idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5)), which is strictly positive
for every indexed term, so any passage sharing a term with the query scores
above zero and zero-score passages are never returned.
"""

import math
import re
from collections import Counter
from dataclasses import dataclass, field

from .corpus import DocRef, KnowledgeStore, iter_docs

# alphanumeric runs only; underscore is a separator so citation ids split cleanly
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on every maximal run of non-alphanumeric characters."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 1.2
    b: float = 0.75


@dataclass
class ScoredDoc:
    ref: DocRef
    score: float


@dataclass
class Bm25Index:
    doc_refs: list[DocRef]
    doc_lengths: list[int]
    avg_doc_length: float
    doc_frequencies: dict[str, int]
    postings: dict[str, list[tuple[int, int]]]
    n_docs: int
    params: Bm25Params = field(default_factory=Bm25Params)


def build_index(store: KnowledgeStore, params: "Bm25Params | None" = None) -> Bm25Index:
    """Index every non-empty passage; empty ones stay out so they can never
    be retrieved, while their positional ids remain stable."""
    params = params or Bm25Params()
    doc_refs: list[DocRef] = []
    doc_lengths: list[int] = []
    postings: dict[str, list[tuple[int, int]]] = {}
    doc_frequencies: dict[str, int] = {}

    for ref, passage in iter_docs(store):
        if not passage:
            continue
        tokens = tokenize(passage)
        ordinal = len(doc_refs)
        doc_refs.append(ref)
        doc_lengths.append(len(tokens))
        for term, tf in Counter(tokens).items():
            postings.setdefault(term, []).append((ordinal, tf))
            doc_frequencies[term] = doc_frequencies.get(term, 0) + 1

    n_docs = len(doc_refs)
    avg = sum(doc_lengths) / n_docs if n_docs else 0.0
    return Bm25Index(doc_refs, doc_lengths, avg, doc_frequencies, postings, n_docs, params)


def retrieve(index: Bm25Index, query: str, top_k: int) -> list[ScoredDoc]:
    """Top-k positive-score passages, score descending, ties by ascending
    (url_index, text_index)."""
    if top_k <= 0 or index.n_docs == 0:
        return []
    k1, b = index.params.k1, index.params.b
    scores: dict[int, float] = {}
    for term in dict.fromkeys(tokenize(query)):
        plist = index.postings.get(term)
        if not plist:
            continue
        df = index.doc_frequencies[term]
        idf = math.log(1.0 + (index.n_docs - df + 0.5) / (df + 0.5))
        for ordinal, tf in plist:
            norm = k1 * (1.0 - b + b * index.doc_lengths[ordinal] / index.avg_doc_length)
            scores[ordinal] = scores.get(ordinal, 0.0) + idf * tf * (k1 + 1.0) / (tf + norm)

    ranked = sorted(
        ((s, index.doc_refs[o]) for o, s in scores.items() if s > 0.0),
        key=lambda pair: (-pair[0], pair[1].url_index, pair[1].text_index),
    )
    return [ScoredDoc(ref=ref, score=s) for s, ref in ranked[:top_k]]
