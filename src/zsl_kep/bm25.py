"""BM25 ranking over one knowledge store's passages.

The retrieval unit is the individual passage, scored with

    score(d, q) = sum over unique query terms t of
        idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(d) / avg_len))

with idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5)), which is strictly positive;
so is every term of the sum under the finite k1 >= 0 and 0 <= b <= 1 that
``check_parameters`` enforces, and zero-score passages are never returned.

A token is a maximal run of alphanumeric characters, lowercased; underscores
and every other character separate tokens. ``tokenize`` returns ``str``
tokens, which queries, the index's terms and METEOR use. ``build_index``
scans an ASCII passage as bytes instead: ``bytes.translate`` is a plain
lookup in a 256-byte table, while ``str.translate`` looks up each character
in a dict, so the bytes scan tokenizes a store in about 60% of the time.
The byte table is the ASCII table encoded, one rule in two encodings, and
the ASCII query terms are matched encoded. A non-ASCII passage goes through
``tokenize`` and is matched against every term, ASCII ones included.

An index serves the queries it was built for and holds their terms only:
scoring needs just their df and every passage's length (Robertson &
Zaragoza 2009), and a claim's queries use a few dozen terms of a store of
up to tens of thousands of passages. An ordinal counts every passage of the
store by position, empty ones included. Per term the index keeps the
ascending ordinals of the passages holding it (``postings``, so df is its
length; empty if none does) with each posting's impact, its whole term of the
sum above, computed once at build time (``impacts``, Anh & Moffat 2006). Both
are typed arrays, ``array('i')`` and ``array('d')``, so no Python object is
kept per posting; a 32-bit C int bounds an ordinal to 2**31 - 1. Per URL entry
the index keeps the ordinal of its first passage (``starts``), and a
``DocRef`` is made, by search in ``starts``, only for a passage that is
returned. A term of no indexed query raises ``KeyError``.

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
from array import array
from bisect import bisect_left, bisect_right
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

# that table as bytes, for the passages build_index scans as bytes; an ASCII
# passage holds no byte above 127, so the padding is never read
_BYTE_TABLE = bytes(range(128)).decode().translate(_ASCII_TABLE).encode().ljust(256)


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


Bm25Index = namedtuple("Bm25Index", "starts postings impacts ceilings")


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
    # plain lists while scanning, as list.append is about 4x faster than array.append
    postings: dict[str, list[int]] = {t: [] for q in queries for t in tokenize(q)}
    term_freqs: dict[str, list[int]] = {term: [] for term in postings}
    # each term's two lists under the key its tokens take on each scan path,
    # and each path's vocabulary as a set, as set.intersection beats keys() &
    by_str = {term: (postings[term], term_freqs[term]) for term in postings}
    by_bytes = {term.encode(): lists for term, lists in by_str.items() if term.isascii()}
    str_vocab, bytes_vocab = set(by_str), set(by_bytes)
    starts: list[int] = []
    doc_lengths: list[int] = []  # one per ordinal, 0 for an empty passage
    n_docs = 0

    for entry in store.entries:
        starts.append(len(doc_lengths))
        for passage in entry.passages:
            if not passage:
                doc_lengths.append(0)
                continue
            if passage.isascii():
                tokens = passage.encode().translate(_BYTE_TABLE).split()
                vocab, lists = bytes_vocab, by_bytes
            else:
                tokens, vocab, lists = tokenize(passage), str_vocab, by_str
            ordinal = len(doc_lengths)
            doc_lengths.append(len(tokens))
            n_docs += 1
            for term in vocab.intersection(tokens):
                plist, tfs = lists[term]
                plist.append(ordinal)
                tfs.append(tokens.count(term))
    # emptied, not deleted, as ``lists`` still names one: no map may keep a
    # term's scan lists alive past its freeze
    by_str.clear()
    by_bytes.clear()

    avg = sum(doc_lengths) / n_docs if n_docs else 0.0
    # avg is 0 only when no passage has a token, and then no posting needs a norm
    norms = [k1 * (1.0 - b + b * length / avg) for length in doc_lengths] if avg else []
    # frozen per term into typed arrays: no Python object per posting
    impacts: dict[str, array] = {}
    for term, plist in postings.items():
        df = len(plist)
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        impacts[term] = array("d", [idf * tf * (k1 + 1.0) / (tf + norms[o])
                                    for o, tf in zip(plist, term_freqs.pop(term))])
        postings[term] = array("i", plist)
    ceilings = {term: max(values, default=0.0) for term, values in impacts.items()}
    return Bm25Index(starts, postings, impacts, ceilings)


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
            return [ScoredDoc(_doc_ref(index.starts, o), -neg) for neg, o in best]
    return []


def _doc_ref(starts: list[int], ordinal: int) -> DocRef:
    """The passage at ``ordinal``: the last URL entry starting at or before it
    holds it, as an entry without passages starts where the next one does."""
    u = bisect_right(starts, ordinal) - 1
    return DocRef(u, ordinal - starts[u])
