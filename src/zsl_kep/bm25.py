"""BM25 ranking over one knowledge store's passages.

The retrieval unit is the individual passage, scored with

    score(d, q) = sum over unique query terms t of
        idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(d) / avg_len))

with idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5)), which is strictly positive;
so is every term of the sum under the finite k1 >= 0 and 0 <= b <= 1 that
``check_parameters`` enforces, and zero-score passages are never returned.

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

Per term the index also keeps its largest impact (``ceilings``). ``retrieve``
visits the query's terms rarest first, gathering the passages that hold a
visited term. Once scoring these candidates costs no more than the postings
still ahead, and after the last term, it scores them exactly: from 0.0 in
query-term order, each adds a visited term's impacts and an unvisited term's
impact found by search, the same floats in the same order as the formula. As
float addition is monotone and every impact positive, any other passage scores
at most the unvisited terms' ceilings summed in query order. When the k-th
score is strictly above that sum, or no term is left, the candidates' top k is
the answer, ties included: early, as MaxScore stops (Turtle & Flood 1995), or
with every passage holding a query term among the candidates.
"""

import heapq
import math
import re
from bisect import bisect_left
from collections import namedtuple

from .corpus import DocRef, KnowledgeStore

# alphanumeric runs only; underscore is a separator so citation ids split
# cleanly. Kept for non-ASCII text, where lower() is no per-character map ('İ'
# lowers to two code points, 'Σ' to 'ς' or 'σ' by its context), so the text
# is lowered whole and then split
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# the same rule on ASCII text, where [^\W_] is [A-Za-z0-9] and lower() maps
# only A-Z: letters lowercased, digits kept, every other code point below 128
# (underscore and control characters included) a space
_ASCII_TABLE = str.maketrans({chr(c): chr(c).lower() if chr(c).isalnum() else " "
                              for c in range(128)})


def tokenize(text: str) -> list[str]:
    """Lowercase and split on every maximal run of non-alphanumeric characters.

    ASCII text takes a translate-and-split path that gives the regex's tokens
    at a fraction of its cost; any other text is lowered whole and split by
    the regex.
    """
    if text.isascii():
        return text.translate(_ASCII_TABLE).split()
    return _TOKEN_RE.findall(text.lower())


ScoredDoc = namedtuple("ScoredDoc", "ref score")


Bm25Index = namedtuple("Bm25Index", "locations postings impacts ceilings")


def check_parameters(k1: float, b: float) -> None:
    """Raise ``ValueError`` for a negative or non-finite ``k1``, or ``b``
    outside [0, 1]: every impact must be positive for the early stop."""
    if not k1 >= 0:  # NaN too
        raise ValueError("k1 must be >= 0")
    if not math.isfinite(k1):  # an infinite k1 makes every impact NaN
        raise ValueError("k1 must be finite")
    if not 0 <= b <= 1:
        raise ValueError("b must be in [0, 1]")


def build_index(store: KnowledgeStore, queries: list[str], k1: float = 1.2,
                b: float = 0.75) -> Bm25Index:
    """Index the terms of ``queries`` over every non-empty passage; empty
    ones stay out so they can never be retrieved, while their positional ids
    remain stable. Bad ``k1`` or ``b`` raises ``ValueError`` (``check_parameters``)."""
    check_parameters(k1, b)
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
    if top_k <= 0:
        return []
    postings, impacts = index.postings, index.impacts
    terms = list(dict.fromkeys(tokenize(query)))
    rest = sum(len(postings[t]) for t in terms)
    visited: set[str] = set()
    candidates: set[int] = set()
    for term in sorted(terms, key=lambda t: len(postings[t])):
        visited.add(term)
        candidates.update(postings[term])
        rest -= len(postings[term])
        # before the last term, score only at no more cost than the postings it could skip
        if rest and (len(candidates) < top_k or len(candidates) * len(terms) > rest):
            continue
        scores = dict.fromkeys(candidates, 0.0)
        bound = 0.0
        for t in terms:  # query order, so each score is the formula's float
            plist = postings[t]
            if t in visited:  # every passage holding it is a candidate
                for ordinal, impact in zip(plist, impacts[t]):
                    scores[ordinal] += impact
            else:  # the bound summed here, as sum() rounds floats differently from Python 3.12
                bound += index.ceilings[t]
                for ordinal in candidates:
                    i = bisect_left(plist, ordinal)
                    if i < len(plist) and plist[i] == ordinal:
                        scores[ordinal] += impacts[t][i]
        # ordinals follow (url_index, text_index) order, so they break ties alike
        best = heapq.nsmallest(top_k, ((-s, o) for o, s in scores.items()))
        # strictly above: a passage outside the candidates can neither beat nor tie a hit
        if not rest or -best[-1][0] > bound:
            return [ScoredDoc(DocRef._make(index.locations[o]), -neg) for neg, o in best]
    return []
