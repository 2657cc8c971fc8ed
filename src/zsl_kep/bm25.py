"""BM25 ranking over one knowledge store's passages.

The retrieval unit is the individual passage, scored with

    score(d, q) = sum over unique query terms t of
        idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(d) / avg_len))

with idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5)), which is strictly positive,
so any passage sharing a term with the query scores above zero and
zero-score passages are never returned.

An index serves the queries it was built for and holds their terms only:
scoring needs just their df and every passage's length (Robertson &
Zaragoza 2009), and a claim's queries use a few dozen terms of a store of
up to tens of thousands of passages. Per term it keeps the ascending
ordinals of the passages holding it (``postings``, so df is its length;
empty if none does) with each posting's impact, its whole term of the sum
above, computed once at build time (``impacts``, Anh & Moffat 2006). Per
ordinal it keeps the passage's ``(url_index, text_index)``, and a ``DocRef``
is made only for a passage that is returned. A term of no indexed query
raises ``KeyError``.

Per term the index also keeps its largest impact (``ceilings``), so
``retrieve`` can stop early, as MaxScore does (Turtle & Flood 1995). It
visits the query's terms rarest first and gathers the passages holding the
terms visited so far. Once scoring these candidates costs no more than the
postings still ahead, it scores them exactly and compares the k-th best with
the sum of the unvisited terms' ceilings. Float addition is monotone and no
impact is negative, so a passage holding none of the visited terms scores at
most that sum. When the k-th score is strictly above it, no such passage can
beat or tie a hit, and the candidates' top k is the answer, ties included;
otherwise every posting is summed. Either way each score adds its impacts in
query-term order from 0.0, the same floats in the same order as a direct
evaluation of the formula.
"""

import heapq
import math
import re
import string
from bisect import bisect_left
from dataclasses import dataclass

from .corpus import DocRef, KnowledgeStore

# alphanumeric runs only; underscore is a separator so citation ids split
# cleanly. Kept for non-ASCII text, where lower() is no per-character map ('İ'
# lowers to two code points, 'Σ' to 'ς' or 'σ' by its context), so the text
# is lowered whole and then split
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# the same rule on ASCII text, where [^\W_] is [A-Za-z0-9] and lower() maps
# only A-Z: letters lowercased, digits kept, every other code point below 128
# (underscore and control characters included) a space
_ASCII_TABLE = str.maketrans({chr(c): " " for c in range(128)}
                             | {c: c.lower() for c in string.ascii_letters + string.digits})


def tokenize(text: str) -> list[str]:
    """Lowercase and split on every maximal run of non-alphanumeric characters.

    ASCII text takes a translate-and-split path that gives the regex's tokens
    at a fraction of its cost; any other text is lowered whole and split by
    the regex.
    """
    if text.isascii():
        return text.translate(_ASCII_TABLE).split()
    return _TOKEN_RE.findall(text.lower())


@dataclass
class ScoredDoc:
    ref: DocRef
    score: float


@dataclass
class Bm25Index:
    locations: list[tuple[int, int]]
    postings: dict[str, list[int]]
    impacts: dict[str, list[float]]
    ceilings: dict[str, float]


def build_index(store: KnowledgeStore, queries: list[str], k1: float = 1.2,
                b: float = 0.75) -> Bm25Index:
    """Index the terms of ``queries`` over every non-empty passage; empty
    ones stay out so they can never be retrieved, while their positional ids
    remain stable."""
    # flat lists aligned per term, not a tuple per posting: less memory
    postings: dict[str, list[int]] = {t: [] for q in queries for t in tokenize(q)}
    term_freqs: dict[str, list[int]] = {term: [] for term in postings}
    vocab = set(postings)
    locations: list[tuple[int, int]] = []
    doc_lengths: list[int] = []

    for u, entry in enumerate(store.entries):
        for t, passage in enumerate(entry.passages):
            if not passage:
                continue
            tokens = tokenize(passage)
            ordinal = len(locations)
            locations.append((u, t))
            doc_lengths.append(len(tokens))
            for term in vocab.intersection(tokens):
                postings[term].append(ordinal)
                term_freqs[term].append(tokens.count(term))

    n_docs = len(locations)
    avg = sum(doc_lengths) / n_docs if n_docs else 0.0
    # avg is 0 only when no passage has a token, and then no posting needs a norm
    norms = [k1 * (1.0 - b + b * length / avg) for length in doc_lengths] if avg else []
    impacts: dict[str, list[float]] = {}
    for term, plist in postings.items():
        df = len(plist)
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        impacts[term] = [idf * tf * (k1 + 1.0) / (tf + norms[o])
                         for o, tf in zip(plist, term_freqs[term])]
    ceilings = {term: max(values, default=0.0) for term, values in impacts.items()}
    return Bm25Index(locations, postings, impacts, ceilings)


def retrieve(index: Bm25Index, query: str, top_k: int) -> list[ScoredDoc]:
    """Top-k positive-score passages, score descending, ties by ascending
    (url_index, text_index)."""
    if top_k <= 0 or not index.locations:
        return []
    postings = index.postings
    terms = list(dict.fromkeys(tokenize(query)))
    rarest = sorted(terms, key=lambda t: len(postings[t]))
    rest = sum(len(postings[t]) for t in terms)
    candidates: set[int] = set()
    for depth, term in enumerate(rarest[:-1], start=1):
        candidates.update(postings[term])
        rest -= len(postings[term])
        # scoring the candidates exactly must cost no more than the postings it skips
        if len(candidates) >= top_k and len(candidates) * len(terms) <= rest:
            best = _decided_top(index, terms, set(rarest[depth:]), candidates, top_k)
            if best is not None:
                return _hits(index, best)

    scores: dict[int, float] = {}
    get = scores.get
    for term in terms:
        for ordinal, impact in zip(postings[term], index.impacts[term]):
            scores[ordinal] = get(ordinal, 0.0) + impact
    # ordinals follow (url_index, text_index) order, so they break ties alike
    return _hits(index, heapq.nsmallest(top_k, ((-s, o) for o, s in scores.items() if s > 0.0)))


def _decided_top(index: Bm25Index, terms: list[str], unvisited: set[str],
                 candidates: set[int], top_k: int) -> list[tuple[float, int]] | None:
    """The top k of ``candidates``, scored exactly, if no passage outside them
    can reach it, else None. Outside passages hold only ``unvisited`` terms,
    so each scores at most those terms' ceilings summed in query order."""
    scored = []
    for ordinal in candidates:
        score = 0.0
        for term in terms:  # query order, so the same float as the accumulation
            plist = index.postings[term]
            i = bisect_left(plist, ordinal)
            if i < len(plist) and plist[i] == ordinal:
                score += index.impacts[term][i]
        scored.append((-score, ordinal))
    ceiling = 0.0
    for term in terms:  # a loop: sum() rounds floats differently from Python 3.12
        if term in unvisited:
            ceiling += index.ceilings[term]
    best = heapq.nsmallest(top_k, scored)
    # strictly above: an outside passage can neither beat nor tie a hit
    return best if -best[-1][0] > ceiling else None


def _hits(index: Bm25Index, best: list[tuple[float, int]]) -> list[ScoredDoc]:
    return [ScoredDoc(ref=DocRef(*index.locations[o]), score=-neg) for neg, o in best]
