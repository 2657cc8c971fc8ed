"""Evidence scoring: METEOR similarity, optimal assignment, conditioned labels.

METEOR here is the exact-match stage only: a maximum one-to-one token
alignment, chosen among the maximum alignments to minimize the number of
chunks (maximal runs matching contiguously on both sides), then

    P = m/|hyp|, R = m/|ref|, F = 10PR/(R+9P),
    penalty = GAMMA*(ch/m)**BETA, score = F*(1-penalty)

with the fixed constants GAMMA=0.5 and BETA=3. Stemming and synonym stages
are deliberately out.

Predicted evidence strings are matched to gold ones with a max-sum assignment
(exact subset search, exponential only in the smaller side, which predictions
cap at 4), and the matched similarity mass is normalized by the number of gold
strings. A claim counts toward the conditioned score only when its label is
right AND its question+answer evidence score reaches the 0.25 gate.

A matrix pairs every predicted string with every gold variant, so a string
meets several others; what METEOR needs of one string alone is computed once
per ``evidence_score`` matrix and shared by its cells. Two caches keyed by
its text hold it, both cleared when a matrix starts, so nothing carries over
from one matrix or call to the next. The first holds a string's tokens and
their set: every pair needs them, and the sets tell a pair that shares no
token, as most do where the evidence differs, without counting.
The second holds the token counts, bigrams, bigram counts and ``later`` that
the alignment search reads. It is built only for a string in a pair that
shares a token: built for every string, it cost more than it saved where
nearly every pair is disjoint.
"""

import functools
import math
from collections import Counter
from dataclasses import asdict, dataclass

from .bm25 import tokenize
from .corpus import MAX_EVIDENCE, ClaimRecord, MalformedInput, VerdictReport

GATE_THRESHOLD = 0.25
GAMMA = 0.5
BETA = 3.0

# minimal-chunk search nodes allowed after the first (greedy) complete
# alignment; past them the best alignment found so far is kept
_ALIGN_NODE_BUDGET = 200_000

# strings whose METEOR work one evidence_score matrix keeps (it clears them on
# entry); a matrix with more distinct strings only recomputes the evicted ones
_PROFILE_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=_PROFILE_CACHE_SIZE)
def _terms(text: str) -> tuple[list[str], set[str]]:
    """A string's tokens and their set, the set for the disjoint test."""
    tokens = tokenize(text)
    return tokens, set(tokens)


@functools.lru_cache(maxsize=_PROFILE_CACHE_SIZE)
def _profile(text: str) -> tuple:
    """What the alignment search needs of a string that shares a token with another:
    (tokens, token counts, bigrams, bigram counts, later), where later[i] counts the
    occurrences of tokens[i] in tokens[i+1:]."""
    tokens = _terms(text)[0]
    bigrams = list(zip(tokens, tokens[1:]))
    later, seen = [0] * len(tokens), {}
    for i in range(len(tokens) - 1, -1, -1):
        later[i] = seen.get(tokens[i], 0)
        seen[tokens[i]] = later[i] + 1
    return tokens, Counter(tokens), bigrams, Counter(bigrams), later


def _alignment(hyp_profile: tuple, ref_profile: tuple) -> tuple[int, int]:
    """(matches, chunks) of a maximum alignment with minimal chunk count.

    Depth-first branch and bound over hypothesis positions: each is matched to a free
    reference slot of its token or skipped while enough later occurrences remain. The
    current chunk is extended first, so the first complete alignment is the greedy one;
    after it a node budget caps the search (minimal chunks is NP-hard in general). A type
    in no hypothesis bigram the reference shares can never link, so its matches are counted
    as one-token chunks and the search visits only the linked positions: a gap between two
    of them resets ``prev``, so the match after it starts a chunk. A lone position has one
    choice and changes no chunk count, so leaving it out keeps the other states in order.

    Two bounds prune the search. Where it completes, they leave its result as it was;
    where the node budget cuts it, the nodes they save can only lower the chunk count it
    returns. A match joins its predecessor's chunk only where a hypothesis bigram lands on
    the same reference bigram (chunks are runs adjacent on both sides, Banerjee & Lavie
    2005), and each such link uses one bigram occurrence on each side: so no alignment of
    m matches has fewer than m - min(m - 1, links) chunks, with links the sum over bigram
    types of the smaller count, and the search returns as soon as it reaches that floor
    (the adjacency bound of minimum common string partition, Goldstein, Kilman & Zheng
    2005). Per state, each match still to place at or after linked position i starts a
    chunk unless it follows a match through one of the reach[i] shared bigrams ending there
    or later, so a state whose chunks plus the excess of its remaining matches over reach[i]
    cannot beat the best complete alignment is cut.

    The arguments are the strings' ``_profile`` entries, the second cache level: counts,
    bigrams and ``later`` depend on one string only, so each string's are built once per
    matrix however many cells it is in. ``meteor`` tests the pair for a shared token on
    the first level (``_terms``) before asking for them, so a disjoint pair builds none.
    Only what depends on both strings is built here: ``need``, the linked types, the link
    count, ``ref_positions``, the linked positions and their ``joined`` and ``reach``.
    """
    hyp, h_count, bigrams, h_bigram_count, later = hyp_profile
    ref, r_count, _, shared, _ = ref_profile
    need = {t: min(c, r_count[t]) for t, c in h_count.items() if t in r_count}
    m = sum(need.values())
    links, linked = 0, set()
    for pair, count in h_bigram_count.items():
        if pair in shared:
            links += min(count, shared[pair])
            linked.update(pair)
    if not linked:
        return m, m
    need = {t: need[t] for t in linked}  # the other types' positions are not visited
    lone = m - sum(need.values())
    m -= lone  # from here on, the matches the search places
    floor = m - min(m - 1, links)
    ref_positions: dict[str, list[int]] = {}
    for pos, tok in enumerate(ref):
        if tok in need:
            ref_positions.setdefault(tok, []).append(pos)
    kept = [i for i, tok in enumerate(hyp) if tok in need]  # linked positions: the states
    n = len(kept)
    # joined[k]: kept[k] directly follows kept[k-1]; reach[k]: shared hypothesis bigrams
    # ending at kept[k] or later (both ends of a shared bigram are linked)
    joined, reach = [False] * (n + 1), [0] * (n + 1)
    for k in range(n - 1, 0, -1):
        joined[k] = kept[k] == kept[k - 1] + 1
        reach[k] = reach[k + 1] + (joined[k] and bigrams[kept[k] - 1] in shared)
    reach[0] = reach[1]

    best, nodes = m + 1, 0
    # frames (i, remaining, used, prev, chunks, todo): a state at linked position kept[i]
    # (lone positions have none, and a gap before kept[i] resets prev) and its untried
    # choices, taken from the end of todo: extension to prev + 1, new chunks by ascending
    # slot, skip (-2, also "no previous slot"); the first frame skips into 0
    stack = [(-1, m, 0, -2, 0, [-2])]
    while stack:
        i, remaining, used, prev, chunks, todo = stack[-1]
        pos = todo.pop()
        if not todo:
            stack.pop()
        while True:  # take choice pos, then go on with the first choice of the new state
            if pos >= 0:
                remaining, used = remaining - 1, used | 1 << pos
                chunks += pos != prev + 1
            i, prev = i + 1, pos if joined[i + 1] else -2
            excess = remaining - reach[i]  # at least this many matches left start a chunk
            if chunks + (excess if excess > 0 else 0) >= best or (remaining and i == n):
                break
            if remaining == 0:
                if chunks == floor:
                    return m + lone, chunks + lone
                best = chunks
                break
            nodes += best <= m  # counted once a complete alignment exists
            if nodes > _ALIGN_NODE_BUDGET:
                break

            tok = hyp[kept[i]]
            positions = ref_positions[tok]
            todo = [p for p in reversed(positions) if not used >> p & 1]
            left = need[tok] - (len(positions) - len(todo))
            if left == 0:
                pos = -2
                continue
            if prev + 1 in todo:
                todo.remove(prev + 1)
                todo.append(prev + 1)
            if later[kept[i]] >= left:
                todo.insert(0, -2)
            pos = todo.pop()
            if todo:
                stack.append((i, remaining, used, prev, chunks, todo))
    return m + lone, best + lone


def meteor(hypothesis: str, references: list[str]) -> float:
    """Similarity in [0, 1]; with several references the best one counts."""
    if not references:
        raise ValueError("meteor needs at least one reference")

    hyp, hyp_types = _terms(hypothesis)
    best = 0.0
    for reference in references:
        ref, ref_types = _terms(reference)
        if hyp_types.isdisjoint(ref_types):  # most pairs share no token (empty sides too)
            continue
        m, chunks = _alignment(_profile(hypothesis), _profile(reference))
        precision = m / len(hyp)
        recall = m / len(ref)
        fmean = 10.0 * precision * recall / (recall + 9.0 * precision)
        penalty = GAMMA * (chunks / m) ** BETA
        best = max(best, fmean * (1.0 - penalty))
    return best


def hungarian_max(matrix) -> list[tuple[int, int]]:
    """Matching of size min(rows, cols) maximizing the sum of entries.

    Exact memoized search over column subsets, exponential only in the
    smaller side (at most MAX_EVIDENCE = 4 rows on the CLI path). Ties between
    optimal matchings (within 1e-9 of the optimum) break toward the
    lexicographically smallest (row, col) pair sequence.
    """
    matrix = [list(row) for row in matrix]
    n_rows, n_cols = len(matrix), len(matrix[0]) if matrix else 0
    for row in matrix:
        if len(row) != n_cols:
            raise ValueError("matrix rows must all have the same length")
        for value in row:
            if not math.isfinite(value):
                raise ValueError(f"matrix entry {value!r} is not finite")
    size = min(n_rows, n_cols)

    # some optimal completion gives row i one of its `size` best columns:
    # the other size-1 pairs can block at most size-1 of them
    top = [sorted(range(n_cols), key=row.__getitem__, reverse=True)[:size] for row in matrix]

    @functools.cache
    def best(i: int, used: int, left: int) -> float:
        """Best total of `left` more pairs from rows i.. and columns not in `used`."""
        if left == 0:
            return 0.0
        if left > n_rows - i:
            return -math.inf
        value = best(i + 1, used, left)  # skip row i
        for j in top[i]:
            if not used >> j & 1:
                value = max(value, matrix[i][j] + best(i + 1, used | 1 << j, left - 1))
        return value

    if n_rows > n_cols:  # fill every 64th row bottom-up: no call recurses past 64 rows
        for i in range(n_rows - 64, 0, -64):
            for used in range(1 << n_cols):
                if used.bit_count() <= i:  # masks reachable at row i
                    best(i, used, size - used.bit_count())

    # each row takes the first free column that still completes an optimum
    target = best(0, 0, size)
    tol = 1e-9 * max(1.0, abs(target))
    chosen, used, fixed = [], 0, 0.0
    for i in range(n_rows):
        left = size - len(chosen)
        if left == 0:
            break
        for j in range(n_cols):
            if not used >> j & 1 and (fixed + matrix[i][j] + best(i + 1, used | 1 << j, left - 1)
                                      >= target - tol):
                chosen.append((i, j))
                used, fixed = used | 1 << j, fixed + matrix[i][j]
                break
    return chosen


def evidence_score(pred_strings: list[str], gold_strings) -> float:
    """Assignment-matched METEOR mass over gold evidence.

    Each gold entry may be one string or a list of acceptable variants (any
    variant satisfies the match). Returns the assignment's correctly rounded
    sum (``fsum``) / number of gold entries; an empty prediction list scores
    0. No gold entries, or more than MAX_EVIDENCE predicted strings (which
    bounds the assignment cost), raise ValueError.
    """
    _terms.cache_clear()  # no string's work outlives its matrix
    _profile.cache_clear()
    if not gold_strings:
        raise ValueError("evidence_score needs at least one gold string")
    if len(pred_strings) > MAX_EVIDENCE:
        raise ValueError(f"{len(pred_strings)} predicted strings, more than {MAX_EVIDENCE}")
    gold_variants = [[g] if isinstance(g, str) else list(g) for g in gold_strings]
    if not pred_strings:
        return 0.0
    matrix = [[meteor(pred, variants) for variants in gold_variants] for pred in pred_strings]
    total = math.fsum(matrix[i][j] for i, j in hungarian_max(matrix))
    return total / len(gold_variants)


@dataclass
class ClaimScore:
    claim_id: int
    q_only: float
    q_plus_a: float
    label_correct: bool
    gated_correct: bool
    gold_evidence_empty: bool = False


@dataclass
class ScoreReport:
    per_claim: list[ClaimScore]
    aggregate: dict[str, float]

    def to_dict(self) -> dict:
        return {
            "params": {
                "fmean": "10PR/(R+9P)",
                "gamma": GAMMA,
                "beta": BETA,
                "stemming": False,
                "threshold": GATE_THRESHOLD,
                "normalization": "gold_count",
            },
            "aggregate": dict(self.aggregate),
            "per_claim": [asdict(c) for c in self.per_claim],
        }


def score_run(reports: list[VerdictReport], gold: list[ClaimRecord]) -> ScoreReport:
    """Score predicted reports against gold records.

    q_only matches question strings, q_plus_a matches "question answer"
    concatenations (gold side: each question joined with each of its
    answers). A claim is gated-correct when its label matches gold and
    q_plus_a reaches GATE_THRESHOLD; with empty gold evidence the gate passes
    vacuously and the row is flagged. A report without a labeled gold record
    raises MalformedInput. Per-claim scores and aggregates are correctly
    rounded sums (``fsum``), so they do not depend on the Python version.
    """
    by_id = {record.claim_id: record for record in gold}

    per_claim: list[ClaimScore] = []
    for report in reports:
        record = by_id.get(report.claim_id)
        if record is None:
            raise MalformedInput(f"claim {report.claim_id} has no gold record")
        if record.gold_verdict is None or record.gold_evidence is None:
            raise MalformedInput(f"claim {report.claim_id} gold record lacks label or evidence")

        label_correct = report.verdict == record.gold_verdict
        if record.gold_evidence:
            pred_q = [ev.question for ev in report.evidence]
            gold_q = [[g.question] for g in record.gold_evidence]
            q_only = evidence_score(pred_q, gold_q)

            pred_qa = [f"{ev.question} {ev.answer}" for ev in report.evidence]
            gold_qa = [[f"{g.question} {a}" for a in g.answers] for g in record.gold_evidence]
            q_plus_a = evidence_score(pred_qa, gold_qa)

            gated = label_correct and q_plus_a >= GATE_THRESHOLD
            empty_gold = False
        else:
            q_only = q_plus_a = 0.0
            gated = label_correct
            empty_gold = True

        per_claim.append(ClaimScore(claim_id=report.claim_id, q_only=q_only,
                                    q_plus_a=q_plus_a, label_correct=label_correct,
                                    gated_correct=gated, gold_evidence_empty=empty_gold))

    count = len(per_claim)
    aggregate = {
        "q_only": math.fsum(c.q_only for c in per_claim) / count if count else 0.0,
        "q_plus_a": math.fsum(c.q_plus_a for c in per_claim) / count if count else 0.0,
        "averitec": sum(1.0 for c in per_claim if c.gated_correct) / count if count else 0.0,
    }
    return ScoreReport(per_claim=per_claim, aggregate=aggregate)
