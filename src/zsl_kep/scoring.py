"""Evidence scoring: METEOR similarity, optimal assignment, conditioned labels.

METEOR here is the exact-match stage only: a maximum one-to-one token
alignment, chosen among the maximum alignments to minimize the number of
chunks (maximal runs matching contiguously on both sides), then

    P = m/|hyp|, R = m/|ref|, F = 10PR/(R+9P),
    penalty = GAMMA*(ch/m)**BETA, score = F*(1-penalty)

with the fixed constants GAMMA=0.5 and BETA=3. Stemming and synonym stages
are deliberately out. The fewest chunks is m minus the largest consistent set
of links, where a link pairs a hypothesis bigram with an equal reference
bigram; ``_alignment`` searches the link sets, exactly unless a pair exceeds
its node budget or its link cap, and then keeps a complete alignment.

Predicted evidence strings are matched to gold ones with a max-sum assignment
(exact subset search, exponential in the predicted strings, which it refuses
past MAX_EVIDENCE = 4), and the matched similarity mass is normalized by the
number of gold strings. A claim counts toward the conditioned score only when
its label is right AND its question+answer score reaches the 0.25 gate.

A matrix pairs every predicted string with every gold variant, so a string
meets several others; what METEOR needs of one string alone is computed once
per ``evidence_score`` matrix and shared by its cells. Two caches keyed by
its text hold it, both cleared when a matrix starts, so nothing carries over
from one matrix or call to the next. The first holds a string's tokens and
their set: every pair needs them, and the sets tell a pair that shares no
token, as most do where the evidence differs, without counting. The second
holds the types, the counts of repeated types and the positions of each
bigram, which the alignment search reads. It is built only for a string in a
pair that shares a token: built for every string, it cost more than it saved
where nearly every pair is disjoint.
"""

import bisect
import functools
import math
from collections import Counter, namedtuple

from .bm25 import tokenize
from .corpus import MAX_EVIDENCE, ClaimRecord, MalformedInput, VerdictReport

GATE_THRESHOLD = 0.25
GAMMA = 0.5
BETA = 3.0

# link-set search nodes allowed per pair, counted once a component has its first
# (greedy) complete set; past them each component keeps the best set found
_ALIGN_NODE_BUDGET = 200_000

# candidate links a pair keeps; past it each hypothesis bigram keeps only its
# nearest reference occurrences
_ALIGN_LINK_CAP = 4_000

# strings whose METEOR work one evidence_score matrix keeps (it clears them on
# entry); a matrix with more distinct strings only recomputes the evicted ones
_PROFILE_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=_PROFILE_CACHE_SIZE)
def _terms(text: str) -> tuple[list[str], set[str]]:
    """A string's tokens and their set, the set for the disjoint test."""
    tokens = tokenize(text)
    return tokens, set(tokens)


@functools.lru_cache(maxsize=_PROFILE_CACHE_SIZE)
def _profile(text: str) -> tuple[set, dict, dict]:
    """What the alignment search needs of a string that shares a token with another:
    (its types, {repeated type: occurrences - 1}, {bigram "a b": its start positions})."""
    tokens, types = _terms(text)
    repeats = {t: c - 1 for t, c in Counter(tokens).items() if c > 1}
    starts: dict[str, list[int]] = {}
    for i, bigram in enumerate(map(" ".join, zip(tokens, tokens[1:]))):
        starts.setdefault(bigram, []).append(i)
    return types, repeats, starts


def _nearest(positions: list[int], i: int, keep: int) -> list[int]:
    """The ``keep`` entries of the ascending ``positions`` closest to i, ties to the lower."""
    hi = bisect.bisect_left(positions, i)
    lo = hi - 1
    chosen = []
    while len(chosen) < keep and (lo >= 0 or hi < len(positions)):
        if hi == len(positions) or lo >= 0 and i - positions[lo] <= positions[hi] - i:
            chosen.append(positions[lo])
            lo -= 1
        else:
            chosen.append(positions[hi])
            hi += 1
    return chosen


def _alignment(hyp_profile: tuple, ref_profile: tuple) -> tuple[int, int]:
    """(matches, chunks) of a maximum alignment with minimal chunk count.

    A link (i, j) says that the hypothesis bigram at i equals the reference bigram at j;
    an alignment realizes it when it maps i to j and i + 1 to j + 1, so the two matches
    share a chunk (chunks are runs adjacent on both sides, Banerjee & Lavie 2005). A
    maximum alignment of m matches has m minus the links it realizes chunks. Conversely,
    any set of links whose position pairs form a one-to-one map extends to a maximum
    alignment, since each type keeps as many free slots on both sides as it has matches
    left to place. So the fewest chunks is m minus the largest consistent link set.

    Links (i, j) and (i', j') conflict exactly when they lie on different diagonals
    (i' - i != j' - j) and share a position on one side (|i' - i| <= 1 or |j' - j| <= 1),
    so the conflicts are found through the positions each link uses: i, i + 1, j, j + 1.
    The conflict graph splits into connected components, each solved by an include-first
    branch and bound over its links in (i, j) order. Its first complete set is the greedy
    one; after it each node counts against ``_ALIGN_NODE_BUDGET``, shared by the pair's
    components, and past the budget the best set found is kept (minimal chunking is
    NP-hard in general, Goldstein, Kilman & Zheng 2005). A consistent set holds at most
    one link per i and one per j, so the fewer of the distinct i and distinct j still
    ahead bounds each state, and a component that reaches that number is done.

    A pair with more than ``_ALIGN_LINK_CAP`` candidate links keeps, for each hypothesis
    bigram, only the reference occurrences nearest its position, at least one each. Any
    consistent subset is still a complete alignment, so the result stays between all
    single-token chunks and the optimum. At most the larger of the cap and the hypothesis
    length are kept, and each node is a few bitmask operations over them, so a pair's work
    no longer grows with the product of its two sides' occurrences.

    The arguments are the strings' ``_profile`` entries, the second cache level: types,
    repeats and bigram positions depend on one string only, so each string's are built
    once per matrix however many cells it is in. ``meteor`` tests the pair for a shared
    token on the first level (``_terms``) before asking for them, so a disjoint pair
    builds none.
    """
    hyp_types, hyp_repeats, hyp_starts = hyp_profile
    ref_types, ref_repeats, ref_starts = ref_profile
    both = hyp_repeats.keys() & ref_repeats.keys()
    m = len(hyp_types & ref_types) + sum(map(min, map(hyp_repeats.__getitem__, both),
                                             map(ref_repeats.__getitem__, both)))
    shared = hyp_starts.keys() & ref_starts.keys()
    if sum(len(hyp_starts[b]) * len(ref_starts[b]) for b in shared) <= _ALIGN_LINK_CAP:
        links = sorted((i, j) for b in shared for i in hyp_starts[b] for j in ref_starts[b])
    else:
        keep = max(1, _ALIGN_LINK_CAP // sum(len(hyp_starts[b]) for b in shared))
        links = sorted((i, j) for b in shared for i in hyp_starts[b]
                       for j in _nearest(ref_starts[b], i, keep))

    # users[p] of hypothesis position p, users[~q] of reference position q: the links
    # that use it, by diagonal; two of them on different diagonals conflict
    users: dict[int, list[tuple[int, int]]] = {}
    for k, (i, j) in enumerate(links):
        for key in (i, i + 1, ~j, ~(j + 1)):
            users.setdefault(key, []).append((i - j, k))
    conflicts = [0] * len(links)  # bitmasks over link indices
    for shared_by in users.values():
        if len(shared_by) > 1:
            on = {}  # diagonal: bitmask of its links here
            for d, k in shared_by:
                on[d] = on.get(d, 0) | 1 << k
            if len(on) > 1:
                union = sum(on.values())
                for d, k in shared_by:
                    conflicts[k] |= union ^ on[d]

    found, budget, rest = 0, _ALIGN_NODE_BUDGET, 0
    for k, mask in enumerate(conflicts):
        if mask:
            rest |= 1 << k
        else:  # a link that conflicts with none is in every largest set
            found += 1
    while rest:
        component = frontier = rest & -rest
        members = []
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            members.append(low.bit_length() - 1)
            grown = conflicts[members[-1]] & ~component
            component |= grown
            frontier |= grown
        rest ^= component
        members.sort()
        most, budget = _most_links(component, members, conflicts, links, budget)
        found += most
    return m, m - found


def _most_links(component: int, members: list[int], conflicts: list[int], links: list,
                budget: int) -> tuple[int, int]:
    """(size of the largest consistent set found among the links of a component, given
    as a bitmask and as its ascending link indices, and the node budget left)."""
    # bound[k]: the fewer of the distinct i and distinct j among the members from k on
    bound, is_, js = {}, set(), set()
    for k in reversed(members):
        i, j = links[k]
        is_.add(i)
        js.add(j)
        bound[k] = min(len(is_), len(js))
    most = bound[members[0]]

    best = -1
    stack = [(component, 0)]  # (links still open, links taken): exclusions to try
    while stack:
        open_, size = stack.pop()
        while open_:  # each step takes the first open link, then drops what it blocks
            low = open_ & -open_
            k = low.bit_length() - 1
            if size + bound[k] <= best:
                break
            if best >= 0:  # nodes count once a complete set exists
                budget -= 1
                if budget < 0:
                    return best, 0
            stack.append((open_ ^ low, size))
            open_ &= ~(conflicts[k] | low)
            size += 1
        else:
            if size > best:
                best = size
                if best == most:
                    break
    return best, budget


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

    Exact search over column subsets, memoized in one dict per call and
    exponential in the rows, so more than MAX_EVIDENCE = 4 rows (predicted
    strings) raise ValueError; each row tries only its `size` best columns,
    and a matrix with no more columns than `size` tries all of them unsorted.
    Ties between optimal matchings (within 1e-9 of the optimum) break toward
    the lexicographically smallest (row, col) pair sequence, which a rebuild
    pass finds row by row from exact completions. A matrix with no non-zero
    entry, once validated, returns that sequence, the diagonal, without the
    search.
    """
    matrix = [list(row) for row in matrix]
    n_rows, n_cols = len(matrix), len(matrix[0]) if matrix else 0
    if n_rows > MAX_EVIDENCE:
        raise ValueError(f"{n_rows} predicted strings, more than {MAX_EVIDENCE}")
    for row in matrix:
        if len(row) != n_cols:
            raise ValueError("matrix rows must all have the same length")
        for value in row:
            if not math.isfinite(value):
                raise ValueError(f"matrix entry {value!r} is not finite")
    size = min(n_rows, n_cols)
    if not any(map(any, matrix)):  # every matching totals zero: the rebuild takes the diagonal
        return [(i, i) for i in range(size)]

    # some optimal completion gives row i one of its `size` best columns: the
    # other size-1 pairs can block at most size-1 of them. A row with no more
    # columns keeps them all, and the order it tries them in changes no maximum
    if n_cols <= size:
        top = [range(n_cols)] * n_rows
    else:
        top = [sorted(range(n_cols), key=row.__getitem__, reverse=True)[:size] for row in matrix]
    reach = set().union(*top)  # best reads no other column of `used`
    memo = {}

    def best(i: int, used: int, left: int) -> float:
        """Best total of `left` more pairs from rows i.. and columns not in `used`."""
        if left == 0:
            return 0.0
        if left > n_rows - i:
            return -math.inf
        key = i, used, left
        value = memo.get(key)
        if value is None:
            value = best(i + 1, used, left)  # skip row i
            row = matrix[i]
            for j in top[i]:
                if not used >> j & 1:
                    total = row[j] + best(i + 1, used | 1 << j, left - 1)
                    if total > value:  # the first maximum, as max() keeps
                        value = total
            memo[key] = value
        return value

    # each row takes the first free column that still completes an optimum
    target = best(0, 0, size)
    cutoff = target - 1e-9 * max(1.0, abs(target))
    chosen, used, fixed = [], 0, 0.0
    for i in range(n_rows):
        left = size - len(chosen)
        if left == 0:
            break
        for j in range(n_cols):
            rest = used | 1 << j if j in reach else used  # the same value, and no new memo key
            if not used >> j & 1 and fixed + matrix[i][j] + best(i + 1, rest, left - 1) >= cutoff:
                chosen.append((i, j))
                used, fixed = used | 1 << j, fixed + matrix[i][j]
                break
    return chosen


def evidence_score(pred_strings: list[str], gold_strings) -> float:
    """Assignment-matched METEOR mass over gold evidence.

    Each gold entry may be one string or a list of acceptable variants (any
    variant satisfies the match). Returns the assignment's correctly rounded
    sum (``fsum``) / number of gold entries; an empty prediction list scores
    0. No gold entries raise ValueError, and so, from ``hungarian_max``, do
    more than MAX_EVIDENCE predicted strings.
    """
    _terms.cache_clear()  # no string's work outlives its matrix
    _profile.cache_clear()
    if not gold_strings:
        raise ValueError("evidence_score needs at least one gold string")
    gold_variants = [[g] if isinstance(g, str) else list(g) for g in gold_strings]
    if not pred_strings:
        return 0.0
    matrix = [[meteor(pred, variants) for variants in gold_variants] for pred in pred_strings]
    total = math.fsum(matrix[i][j] for i, j in hungarian_max(matrix))
    return total / len(gold_variants)


ClaimScore = namedtuple("ClaimScore", "claim_id q_only q_plus_a label_correct gated_correct "
                        "gold_evidence_empty", defaults=(False,))


class ScoreReport(namedtuple("ScoreReport", "per_claim aggregate")):
    __slots__ = ()

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
            "per_claim": [c._asdict() for c in self.per_claim],
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
