"""Shared test utilities: independent oracles and fixture builders.

The oracles here deliberately re-derive results from first principles
(exhaustive enumeration, direct recounting) so the production code is checked
against a second, structurally different implementation.
"""

import itertools
import math
import re
from collections import Counter

from zsl_kep.bm25 import tokenize
from zsl_kep.corpus import KnowledgeStore, UrlEntry


def make_store(passage_lists, claim_id=0):
    entries = [UrlEntry(url=f"https://example.test/{i}", passages=list(passages))
               for i, passages in enumerate(passage_lists)]
    return KnowledgeStore(claim_id=claim_id, entries=entries)


def reference_tokenize(text):
    """Tokens by a per-character loop over the lowered text: a token is a
    maximal run of characters for which ``str.isalnum()`` holds (Python's
    ``\\w`` is exactly that plus the underscore), independent of the regex
    and the ASCII table in ``zsl_kep.bm25``."""
    tokens, run = [], []
    for ch in text.lower():
        if ch.isalnum():
            run.append(ch)
        elif run:
            tokens.append("".join(run))
            run = []
    if run:
        tokens.append("".join(run))
    return tokens


# The reply grammar of ``zsl_kep.pipeline`` as plain patterns: each ``^\s*`` may run
# over later lines and each lazy value rescans its blanks, so they cost the square of
# the reply's length, but what they match is the grammar. ``parse_prediction`` with
# them swapped in for its own gives the oracle parse.
ORACLE_REPLY_PATTERNS = {
    "_FIELD_RE": re.compile(r"^\s*(Q|A|TYPE|CITE)(\d+)[^\S\n]*:[^\S\n]*(.*?)\s*$",
                            re.IGNORECASE | re.MULTILINE),
    "_JUSTIFICATION_RE": re.compile(r"^\s*JUSTIFICATION[^\S\n]*:", re.IGNORECASE | re.MULTILINE),
    "_VERDICT_RE": re.compile(r"^\s*VERDICT[^\S\n]*:[^\S\n]*(.*?)\s*$", re.IGNORECASE | re.MULTILINE),
}


def naive_bm25_scores(passages, query, k1=1.2, b=0.75):
    """Score every passage by recounting term frequencies from the text."""
    docs = [tokenize(p) for p in passages]
    n = len(docs)
    lengths = [len(d) for d in docs]
    avg = sum(lengths) / n if n else 0.0
    df = Counter()
    for doc in docs:
        for term in set(doc):
            df[term] += 1

    seen = set()
    unique_terms = [t for t in tokenize(query) if not (t in seen or seen.add(t))]

    scores = []
    for doc, length in zip(docs, lengths):
        tf_map = Counter(doc)
        total = 0.0
        for term in unique_terms:
            tf = tf_map.get(term, 0)
            if tf == 0:
                continue
            idf = math.log(1.0 + (n - df[term] + 0.5) / (df[term] + 0.5))
            total += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * length / avg))
        scores.append(total)
    return scores


def brute_force_assignment(matrix):
    """(best sum, lexicographically smallest optimal pair list) by enumerating
    every complete matching of the smaller side."""
    n_rows = len(matrix)
    n_cols = len(matrix[0]) if n_rows else 0
    size = min(n_rows, n_cols)
    if size == 0:
        return 0.0, []

    best_sum = None
    best_pairs = None
    if n_rows <= n_cols:
        candidates = (sorted(zip(range(n_rows), perm))
                      for perm in itertools.permutations(range(n_cols), n_rows))
    else:
        candidates = (sorted(zip(perm, range(n_cols)))
                      for perm in itertools.permutations(range(n_rows), n_cols))
    for pairs in candidates:
        total = sum(matrix[i][j] for i, j in pairs)
        if best_sum is None or total > best_sum:
            best_sum, best_pairs = total, pairs
        elif total == best_sum and pairs < best_pairs:
            best_pairs = pairs
    return best_sum, [tuple(p) for p in best_pairs]


def independent_meteor(hypothesis, references):
    """Separate evaluation of the same similarity equations, enumerating every
    maximum token alignment to find the true minimal chunk count."""
    best = 0.0
    hyp = tokenize(hypothesis)
    for reference in references:
        ref = tokenize(reference)
        if not hyp or not ref:
            continue
        h_count, r_count = Counter(hyp), Counter(ref)
        need = {t: min(c, r_count[t]) for t, c in h_count.items() if t in r_count}
        m = sum(need.values())
        if m == 0:
            continue

        per_type = []
        for term, k in need.items():
            h_pos = [i for i, t in enumerate(hyp) if t == term]
            r_pos = [j for j, t in enumerate(ref) if t == term]
            options = [list(zip(chosen_h, chosen_r))
                       for chosen_h in itertools.combinations(h_pos, k)
                       for chosen_r in itertools.permutations(r_pos, k)]
            per_type.append(options)

        min_chunks = None
        for combo in itertools.product(*per_type):
            pairs = sorted(pair for group in combo for pair in group)
            pair_set = set(pairs)
            chunks = sum(1 for h, r in pairs if (h - 1, r - 1) not in pair_set)
            if min_chunks is None or chunks < min_chunks:
                min_chunks = chunks

        precision = m / len(hyp)
        recall = m / len(ref)
        fmean = 10.0 * precision * recall / (recall + 9.0 * precision)
        score = fmean * (1.0 - 0.5 * (min_chunks / m) ** 3)
        best = max(best, score)
    return best


def chunk_floor(hyp, ref):
    """Fewest chunks the adjacency count allows a maximum alignment: a match
    continues a chunk only through a hypothesis bigram that lands on the same
    reference bigram, one occurrence of it on each side. Tokens of types in no
    such bigram are one chunk each; the other matches form at least one chunk
    and lose at most one per bigram occurrence both sides hold."""
    hyp_bigrams = [(hyp[i], hyp[i + 1]) for i in range(len(hyp) - 1)]
    ref_bigrams = [(ref[j], ref[j + 1]) for j in range(len(ref) - 1)]
    linked = {t for bigram in hyp_bigrams if bigram in ref_bigrams for t in bigram}
    matches = {t: min(hyp.count(t), ref.count(t)) for t in set(hyp)}
    lone = sum(c for t, c in matches.items() if t not in linked)
    if not linked:
        return lone
    links = sum(min(hyp_bigrams.count(b), ref_bigrams.count(b)) for b in set(hyp_bigrams))
    return lone + max(1, sum(matches[t] for t in linked) - links)
