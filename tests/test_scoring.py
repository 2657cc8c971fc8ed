import functools
import math
import random
import sys
import time
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from zsl_kep import scoring
from zsl_kep.corpus import (MAX_EVIDENCE, AnswerType, ClaimRecord, DocRef, EvidenceItem, GoldQA,
                            MalformedInput, VerdictLabel, VerdictReport)
from zsl_kep.scoring import evidence_score, hungarian_max, meteor, score_run

from helpers import (brute_force_assignment, chunk_floor, independent_meteor,
                     tolerant_assignment)

IDENTITY_6 = 1.0 - 0.5 / 216.0  # six-token self match, one chunk


def _align(hyp: list[str], ref: list[str]) -> tuple[int, int]:
    """``_alignment`` of two token lists, through the strings' profiles."""
    return scoring._alignment(scoring._profile(" ".join(hyp)), scoring._profile(" ".join(ref)))


# ---------------------------------------------------------------- meteor

def test_meteor_disjoint_is_zero():
    assert meteor("aa bb", ["cc dd"]) == 0.0


def test_alignment_disjoint_pair_has_no_matches():
    assert _align(["aa", "bb"], ["cc"]) == (0, 0)


def test_meteor_identity_six_tokens():
    got = meteor("the cat sat on the mat", ["the cat sat on the mat"])
    assert got == pytest.approx(IDENTITY_6, abs=1e-9)


def test_meteor_swapped_tokens_half():
    assert meteor("b a", ["a b"]) == pytest.approx(0.5, abs=1e-12)


def test_meteor_empty_sides():
    assert meteor("", ["a"]) == 0.0
    assert meteor("a", [""]) == 0.0
    with pytest.raises(ValueError, match="meteor needs at least one reference"):
        meteor("a", [])


def test_meteor_multiple_references_takes_max():
    single = meteor("the cat", ["the cat"])
    assert meteor("the cat", ["zz qq", "the cat", "the dog"]) == pytest.approx(single)


def test_meteor_chunk_minimization_prefers_contiguous_alignment():
    # "a b" can align as one chunk against the tail of "x a b"
    got = meteor("a b", ["x a b"])
    # m=2, ch=1, P=1, R=2/3, F=10*(2/3)/(2/3+9)=0.689655..., penalty=0.5*(1/2)^3
    expected = (10 * 1.0 * (2 / 3) / ((2 / 3) + 9 * 1.0)) * (1 - 0.5 * 0.125)
    assert got == pytest.approx(expected, abs=1e-12)


def test_meteor_matches_independent_implementation():
    rng = random.Random(11)
    vocab = ["a", "b", "c", "d"]
    for _ in range(60):
        hyp = " ".join(rng.choices(vocab, k=rng.randint(1, 7)))
        ref = " ".join(rng.choices(vocab, k=rng.randint(1, 7)))
        assert meteor(hyp, [ref]) == pytest.approx(independent_meteor(hyp, [ref]),
                                                   abs=1e-9), (hyp, ref)


def _small_pairs(min_size):
    """Pairs of at most 8 tokens from 2-4 words."""
    return st.integers(2, 4).flatmap(lambda k: st.tuples(
        st.lists(st.sampled_from("abcd"[:k]), min_size=min_size, max_size=8),
        st.lists(st.sampled_from("abcd"[:k]), min_size=min_size, max_size=8)))


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.tuples(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=7),
              st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=7)),
    _small_pairs(1),  # repeated bigrams: conflict components of up to a few dozen links
))
def test_meteor_equals_oracle_on_repetition_heavy_pairs(pair):
    hyp, ref = " ".join(pair[0]), " ".join(pair[1])
    assert meteor(hyp, [ref]) == pytest.approx(independent_meteor(hyp, [ref]), abs=1e-9)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["the", "of", "cat", "sat", "mat", "dog"]), max_size=8),
       st.lists(st.sampled_from(["the", "of", "cat", "sat", "mat", "dog"]), max_size=8))
def test_meteor_equals_oracle_on_mixed_pairs(hyp_tokens, ref_tokens):
    # with more types than the a/b/c property, most pairs share no bigram and
    # the rest have conflict components of a few links
    hyp, ref = " ".join(hyp_tokens), " ".join(ref_tokens)
    assert meteor(hyp, [ref]) == pytest.approx(independent_meteor(hyp, [ref]), abs=1e-9)


def test_alignment_without_shared_bigram_is_all_single_tokens():
    hyp, ref = "b a d c a x".split(), "a b c d a".split()
    assert _align(hyp, ref) == (5, 5)
    assert meteor(" ".join(hyp), [" ".join(ref)]) == pytest.approx(
        independent_meteor(" ".join(hyp), [" ".join(ref)]), abs=1e-12)


def test_alignment_exact_where_the_full_search_hits_the_budget():
    # a search over all types runs out of nodes at 15 chunks; with the types
    # in no shared bigram counted apart and their positions not visited, it
    # reaches the minimum, 14, within budget
    hyp = ("w28 w21 on is the and to w5 w20 w7 w18 a for w32 w38 w36 what and of w28 w37 on "
           "w17 w17 is the the a the of w28 what w14 on on a in of w2 in").split()
    ref = ("to w25 w18 w3 in and what is and what w4 w3 and for w3 w26 w32 to on on w18 the "
           "a to is and on").split()
    assert _align(hyp, ref) == (16, 14)


@st.composite
def _mostly_lone_pairs(draw):
    """Pairs of up to 24 tokens: 2-3 words at most three times a side, the rest
    single-use words, each on one side or on both, so most positions are lone."""
    hyp, ref = [], []
    for word in "abc"[:draw(st.integers(2, 3))]:
        hyp += [word] * draw(st.integers(0, 3))
        ref += [word] * draw(st.integers(0, 3))
    for j in range(draw(st.integers(0, 15))):
        for side in draw(st.sampled_from([(hyp,), (ref,), (hyp, ref)])):
            side.append(f"w{j}")
    return draw(st.permutations(hyp)), draw(st.permutations(ref))


@settings(max_examples=300, deadline=None)
@given(_mostly_lone_pairs())
def test_meteor_equals_oracle_where_most_positions_are_lone(pair):
    # the search steps over the linked positions only; each single-use type has
    # one option, so the oracle stays cheap on these long pairs
    hyp, ref = " ".join(pair[0]), " ".join(pair[1])
    assert meteor(hyp, [ref]) == pytest.approx(independent_meteor(hyp, [ref]), abs=1e-9)


def test_meteor_budget_is_spent_on_linked_positions_only(monkeypatch):
    # 20 nodes reach the oracle's minimum when lone positions cost none; a search
    # that counts a node at each of them runs out first and scores 0.4888461538461538
    monkeypatch.setattr(scoring, "_ALIGN_NODE_BUDGET", 20)
    hyp, ref = "w3 a a w4 w5 b a w11 b w7 w9 a a", "a a a w8 w3 b w11 w2 b a w7 w6 a"
    assert independent_meteor(hyp, [ref]) == pytest.approx(0.5723076923076923, abs=1e-12)
    assert meteor(hyp, [ref]) == pytest.approx(0.5723076923076923, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(_small_pairs(5))  # longer pairs: the floor is loose on about a third of them
def test_meteor_equals_oracle_where_the_chunk_floor_is_not_tight(pair):
    # the floor counts shared bigrams, not a consistent link set: where it is
    # not tight, a component may never reach its distinct-position bound and
    # stop there, so its search ends only once the per-state bound has cut or
    # finished every branch
    assume(chunk_floor(*pair) < _align(*pair)[1])
    hyp, ref = " ".join(pair[0]), " ".join(pair[1])
    assert meteor(hyp, [ref]) == pytest.approx(independent_meteor(hyp, [ref]), abs=1e-9)


def test_chunk_floor_by_hand():
    # links: (a, b) twice and (b, c) once on both sides: 5 matches, at least 2 chunks
    hyp, ref = "a b c a b".split(), "a b a b c".split()
    assert chunk_floor(hyp, ref) == 2
    assert _align(hyp, ref) == (5, 2)
    # (a, b) once and (b, a) once: the floor says 2, but no alignment has fewer than 3
    hyp, ref = "a b a b".split(), "a b b a".split()
    assert chunk_floor(hyp, ref) == 2
    assert _align(hyp, ref) == (4, 3)
    assert chunk_floor("a b c".split(), "c b a".split()) == 3  # no shared bigram


def _blocks_shuffled(words: list[str], size: int) -> list[str]:
    blocks = [words[start:start + size] for start in range(0, len(words), size)]
    random.Random(3).shuffle(blocks)
    return [word for block in blocks for word in block]


_DISTINCT = [f"w{i}" for i in range(1200)]
_REPEATED = random.Random(7).choices(_DISTINCT[:300], k=1200)


@pytest.mark.parametrize("hyp, ref", [
    (_REPEATED, _REPEATED),
    (_DISTINCT[:1000], _blocks_shuffled(_DISTINCT[:1000], 1)),
    (_DISTINCT, _blocks_shuffled(_DISTINCT, 3)),
], ids=["identical_1200", "shuffled_1000", "blocks_shuffled_1200"])
def test_meteor_long_identical_pair(hyp, ref):
    # nearly every link conflicts with none and is counted without search
    # (identical: 1,211 links, 5 small components; blocks: 801 links, no
    # conflict; shuffled: no shared bigram), so length costs no search
    if hyp == ref:
        chunks = 1
    else:  # distinct words force the alignment: a chunk starts at every break
        at = {word: j for j, word in enumerate(ref)}
        chunks = 1 + sum(at[b] != at[a] + 1 for a, b in zip(hyp, hyp[1:]))
    expected = 1.0 - 0.5 * (chunks / len(hyp)) ** 3
    assert meteor(" ".join(hyp), [" ".join(ref)]) == pytest.approx(expected, abs=1e-12)


def test_meteor_budget_cut_keeps_a_complete_alignment(monkeypatch):
    # with no nodes to spare the search still returns its first complete
    # alignment: never worse than all singletons, never better than the oracle
    monkeypatch.setattr(scoring, "_ALIGN_NODE_BUDGET", 0)
    rng = random.Random(5)
    below_oracle = 0
    for _ in range(400):
        hyp = rng.choices("abc", k=rng.randint(1, 7))
        ref = rng.choices("abc", k=rng.randint(1, 7))
        m = sum((Counter(hyp) & Counter(ref)).values())
        if m == 0:
            continue
        precision, recall = m / len(hyp), m / len(ref)
        fmean = 10.0 * precision * recall / (recall + 9.0 * precision)
        oracle = independent_meteor(" ".join(hyp), [" ".join(ref)])
        got = meteor(" ".join(hyp), [" ".join(ref)])
        assert fmean * (1.0 - scoring.GAMMA) - 1e-12 <= got <= oracle + 1e-12, (hyp, ref)
        below_oracle += got < oracle - 1e-12
    assert below_oracle > 0  # the budget did cut some searches short


@pytest.mark.parametrize("hyp, ref, expected", [
    ("a b c", "a b c", (3, 1)),  # a chain (0, 0)/(1, 1): one diagonal, both links kept
    ("x a b y", "a b z a b", (2, 1)),  # (1, 0) and (1, 3) share i: one of them
    ("a b c", "b c x a b", (3, 2)),  # (0, 3) and (1, 0) cross at i distance 1
    ("b c x a b", "a b c", (3, 2)),  # (0, 1) and (3, 0) cross at j distance 1
    ("a b x y c d", "c d z w a b", (4, 2)),  # (0, 4) and (4, 0): far apart on both sides
    ("a b c d", "c d x a b", (4, 2)),  # (0, 3) and (2, 0): distance 2 and 3, no conflict
], ids=["chain", "same_i", "cross_i", "cross_j", "far_apart", "distance_two"])
def test_link_conflict_rule_by_hand(hyp, ref, expected):
    # links (i, j) and (i', j') conflict exactly when i' - i != j' - j and
    # |i' - i| <= 1 or |j' - j| <= 1; chunks = matches - the largest consistent set
    assert _align(hyp.split(), ref.split()) == expected
    assert meteor(hyp, [ref]) == pytest.approx(independent_meteor(hyp, [ref]), abs=1e-12)


def test_link_cap_keeps_the_lower_of_two_equidistant_occurrences(monkeypatch):
    # over the cap each hypothesis bigram keeps only its nearest reference
    # occurrences: "b a" at hypothesis position 1 has two, at reference positions
    # 0 and 2, and keeps the lower one. That link, (1, 0), crosses the "a b" link
    # (0, 1), so the pair aligns in 2 chunks; the upper one would have continued
    # that link's diagonal to 1 chunk, the optimum found under the cap
    hyp, ref = "a b a".split(), "b a b a".split()
    assert scoring._nearest([0, 2], 1, 1) == [0]
    assert _align(hyp, ref) == (3, 1)
    monkeypatch.setattr(scoring, "_ALIGN_LINK_CAP", 1)  # the pair has 3 candidate links
    assert _align(hyp, ref) == (3, 2)


def _function_words(n: int) -> tuple[list[str], list[str]]:
    rng = random.Random(1)
    return rng.choices(["the", "of", "a"], k=n), rng.choices(["the", "of", "a"], k=n)


@pytest.mark.parametrize("hyp, ref, limit_s", [
    (*_function_words(300), 10.0),
    (*_function_words(1000), 10.0),
    (["the"] * 300, ["the"] * 300, 1.0),
    (["the"] * 3000, ["the"] * 3000, 1.0),
], ids=["function_words_300", "function_words_1000", "the_300", "the_3000"])
def test_alignment_work_is_bounded_on_repetitive_pairs(hyp, ref, limit_s):
    # the link cap and the node budget bound every pair's work; each limit is
    # at least 20x the time measured on a 2-vCPU host under -X dev
    start = time.process_time()
    m, chunks = _align(hyp, ref)
    elapsed = time.process_time() - start
    assert m == sum((Counter(hyp) & Counter(ref)).values())
    assert chunk_floor(hyp, ref) <= chunks <= m
    if set(hyp) == {"the"}:  # the cap keeps each bigram's own position: one diagonal
        assert chunks == 1
    assert elapsed < limit_s


@settings(max_examples=60)
@given(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=8),
       st.lists(st.sampled_from("abcdef"), min_size=1, max_size=8))
def test_meteor_bounds(hyp_tokens, ref_tokens):
    value = meteor(" ".join(hyp_tokens), [" ".join(ref_tokens)])
    assert 0.0 <= value <= 1.0


@settings(max_examples=40)
@given(st.lists(st.sampled_from(["cat", "dog", "sun", "sea"]), min_size=1, max_size=8))
def test_meteor_self_match_lower_bound(tokens):
    text = " ".join(tokens)
    m = len(tokens)
    assert meteor(text, [text]) >= 1.0 - 0.5 / max(1, m) ** 3 - 1e-12


# ---------------------------------------------------------------- hungarian

def test_hungarian_identity_matrix():
    assert hungarian_max([[1, 0], [0, 1]]) == [(0, 0), (1, 1)]


def test_hungarian_single_row_argmax():
    assert hungarian_max([[0.2, 0.9, 0.1]]) == [(0, 1)]


def test_hungarian_single_col():
    assert hungarian_max([[0.2], [0.9], [0.1]]) == [(1, 0)]


def test_hungarian_empty():
    assert hungarian_max([]) == []
    assert hungarian_max([[], []]) == []


def test_hungarian_rejects_non_finite():
    with pytest.raises(ValueError, match="matrix entry nan is not finite"):
        hungarian_max([[1.0, math.nan]])
    with pytest.raises(ValueError, match="matrix entry inf is not finite"):
        hungarian_max([[math.inf]])


def test_hungarian_rejects_ragged():
    with pytest.raises(ValueError):
        hungarian_max([[1, 2], [3]])


def test_hungarian_negative_entries():
    matrix = [[-5.0, -1.0], [-2.0, -4.0]]
    pairs = hungarian_max(matrix)
    best, _ = brute_force_assignment(matrix)
    assert sum(matrix[i][j] for i, j in pairs) == best


def test_hungarian_matches_brute_force_random():
    rng = random.Random(3)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        matrix = [[rng.uniform(-2, 2) for _ in range(cols)] for _ in range(rows)]
        pairs = hungarian_max(matrix)
        best, _ = brute_force_assignment(matrix)
        assert len(pairs) == min(rows, cols)
        assert sum(matrix[i][j] for i, j in pairs) == pytest.approx(best, abs=1e-9)


def test_hungarian_lexicographic_tie_break():
    # all-equal matrix: every permutation optimal; lexicographically smallest wins
    assert hungarian_max([[1, 1], [1, 1]]) == [(0, 0), (1, 1)]
    assert hungarian_max([[1, 1, 1], [1, 1, 1]]) == [(0, 0), (1, 1)]
    # a near-tie within the 1e-9 tolerance goes to the lower column
    assert hungarian_max([[1 - 1e-12, 1.0]]) == [(0, 0)]
    rng = random.Random(5)
    shapes = ([(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(40)]
              + [(rng.randint(1, 4), rng.randint(5, 8)) for _ in range(40)]
              + [(rows, rng.randint(1, rows - 1)) for rows in rng.choices(range(2, 5), k=40)])
    for rows, cols in shapes:
        matrix = [[float(rng.randint(0, 2)) for _ in range(cols)] for _ in range(rows)]
        _, expected = brute_force_assignment(matrix)
        assert hungarian_max(matrix) == expected
    # more rows than MAX_EVIDENCE are rejected, however few the columns
    for rows, cols in [(MAX_EVIDENCE + 1, 2), (1500, 2), (2000, 3)]:
        message = f"^{rows} predicted strings, more than {MAX_EVIDENCE}$"
        with pytest.raises(ValueError, match=message):
            hungarian_max([[0.0] * cols for _ in range(rows)])


def test_hungarian_tie_tolerance_is_one_part_in_a_billion():
    # 0.5 falls 1e-8 short of the optimum: outside the 1e-9 tolerance, so the
    # tie-break toward column 0 does not apply, as it would within 1e-6
    assert hungarian_max([[0.5, 0.5 + 1e-8]]) == [(0, 1)]
    assert hungarian_max([[0.5, 0.5 + 1e-10]]) == [(0, 0)]


def test_hungarian_dominant_permutation():
    matrix = [[10, 0, 0], [0, 10, 0], [0, 0, 10]]
    assert hungarian_max(matrix) == [(0, 0), (1, 1), (2, 2)]


def _planted(n_cols, own, shared):
    """4 x n_cols of noise below 0.5; row i holds 0.9 - 0.1 i at own[i], and
    every row 1.0 at the shared column."""
    rng = random.Random(9)
    matrix = [[rng.uniform(0, 0.5) for _ in range(n_cols)] for _ in range(MAX_EVIDENCE)]
    for i, j in enumerate(own):
        matrix[i][j] = 0.9 - 0.1 * i
        matrix[i][shared] = 1.0
    return matrix


def test_hungarian_work_is_bounded_on_wide_matrices():
    # the gold file sets the column count; each row tries only its 4 best
    # columns, so 4 x 500 stays cheap, where a search over every column subset
    # of up to 4 would not end. All rows share their best column, 300, and
    # row 3, whose second best is the worst, takes it. The limit is over 10x
    # the time measured on a 2-vCPU host under -X dev
    matrix = _planted(500, [450, 350, 150, 50], 300)
    start = time.process_time()
    pairs = hungarian_max(matrix)
    elapsed = time.process_time() - start
    assert pairs == [(0, 450), (1, 350), (2, 150), (3, 300)]
    assert elapsed < 1.0


def _wide_ties(*marks):
    """A 4 x 2,000 matrix of 0.5 but for the given ((row, col), value) entries."""
    matrix = [[0.5] * 2000 for _ in range(MAX_EVIDENCE)]
    for (i, j), value in marks:
        matrix[i][j] = value
    return matrix


def test_hungarian_rebuild_is_bounded_on_wide_matrices():
    # in the planted matrix each row's pair lies past most of the 2,000
    # columns, so the rebuild asks best about a completion for nearly every
    # column of every row. A column in no row's top list adds no memo key, so
    # all but a few of those asks are lookups; a key per column took 1.6 s
    # here. In the tie matrices every column of every row is within the
    # tolerance of its row's best, so only exact completions keep the rebuild
    # from following them; a search over near-tie columns without them took
    # 1 to 5 s on each. The limit is over 25x the time measured on a 2-vCPU
    # host under -X dev
    cases = [
        (_planted(2000, [1950, 1850, 1650, 1550], 1800),
         [(0, 1950), (1, 1850), (2, 1650), (3, 1800)]),
        (_wide_ties(((3, 1), 1.0)), [(0, 0), (1, 2), (2, 3), (3, 1)]),
        (_wide_ties(((3, 0), 1.0), ((2, 1), 1.0)), [(0, 2), (1, 3), (2, 1), (3, 0)]),
        (_wide_ties(((3, 0), 1.0), ((1, 1), 1.0), ((2, 0), 1 - 1e-12)),
         [(0, 2), (1, 1), (2, 0), (3, 3)]),
    ]
    for matrix, expected in cases:
        start = time.process_time()
        pairs = hungarian_max(matrix)
        elapsed = time.process_time() - start
        assert pairs == expected
        assert elapsed < 0.25


def _python_calls(matrix):
    """hungarian_max's pairs for `matrix`, and the Python calls it made, counted
    by function name. Calls are counted, not timed, so a bound on them does not
    depend on the host."""
    calls = Counter()

    def count(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_name] += 1

    sys.setprofile(count)
    try:
        pairs = hungarian_max(matrix)
    finally:
        sys.setprofile(None)
    return pairs, calls


def test_hungarian_calls_are_bounded_on_wide_matrices():
    # the search's states depend on the rows alone, and the rebuild asks for
    # at most one completion per cell, so the Python calls stay within a small
    # multiple of the cells: about one per cell here. Without the memo each
    # ask searches its completion again, at about 30 calls per cell
    for matrix in (_planted(500, [450, 350, 150, 50], 300),
                   _planted(2000, [1950, 1850, 1650, 1550], 1800),
                   _wide_ties(((3, 0), 1.0), ((1, 1), 1.0), ((2, 0), 1 - 1e-12))):
        _, calls = _python_calls(matrix)
        assert sum(calls.values()) <= 10 * len(matrix) * len(matrix[0])


def test_hungarian_zero_matrix_takes_the_diagonal():
    # every matching of a matrix of zeros totals 0.0, so all are ties and the
    # lexicographically smallest, the diagonal, wins; -0.0 is a zero too
    rng = random.Random(13)
    for rows in range(MAX_EVIDENCE + 1):
        for cols in range(8):
            for _ in range(5):
                matrix = [[rng.choice((0.0, -0.0)) for _ in range(cols)] for _ in range(rows)]
                expected = [(i, i) for i in range(min(rows, cols))]
                assert hungarian_max(matrix) == expected == tolerant_assignment(matrix), matrix


def test_hungarian_zero_matrix_is_validated_first():
    for bad in (math.nan, math.inf, -math.inf):
        matrix = [[0.0] * 3 for _ in range(2)]
        matrix[1][2] = bad
        with pytest.raises(ValueError, match=f"matrix entry {bad!r} is not finite"):
            hungarian_max(matrix)
    with pytest.raises(ValueError, match="^5 predicted strings, more than 4$"):
        hungarian_max([[0.0] * 3 for _ in range(MAX_EVIDENCE + 1)])
    with pytest.raises(ValueError, match="same length"):
        hungarian_max([[0.0, 0.0], [0.0]])


def test_hungarian_any_non_zero_entry_takes_the_search():
    # the smallest subnormal is not zero, however little it weighs
    matrix = [[0.0] * 5 for _ in range(3)]
    matrix[2][1] = 5e-324
    pairs, calls = _python_calls(matrix)
    assert pairs == tolerant_assignment(matrix)
    assert calls["best"] > 0
    # entries below the tie tolerance still decide: the diagonal totals
    # -1.8e-9, more than 1e-9 short of the other matching's 0
    matrix = [[-9e-10, 0.0], [0.0, -9e-10]]
    assert hungarian_max(matrix) == [(0, 1), (1, 0)] == tolerant_assignment(matrix)


def test_hungarian_zero_matrix_makes_no_search_call():
    matrix = [[0.0] * 2000 for _ in range(MAX_EVIDENCE)]
    matrix[2][7] = -0.0
    pairs, calls = _python_calls(matrix)
    assert pairs == [(0, 0), (1, 1), (2, 2), (3, 3)]
    assert calls["best"] == 0


def test_hungarian_matches_tolerant_oracle_on_near_ties():
    # entries from a set whose near-ties lie well inside (1e-10, 1e-12, -0.0)
    # or well outside (0.25) the 1e-9 tolerance, so each matrix has many
    # matchings within it, and the oracle names the one the tie rule picks
    near = [0.0, -0.0, 0.25, 0.5 - 1e-10, 0.5, 0.5 + 1e-10, 0.5 + 1e-12, 1.0]
    rng = random.Random(11)
    for _ in range(3000):
        rows, cols = rng.randint(1, MAX_EVIDENCE), rng.randint(1, 7)
        matrix = [[rng.choice(near) for _ in range(cols)] for _ in range(rows)]
        assert hungarian_max(matrix) == tolerant_assignment(matrix), matrix


# ---------------------------------------------------------------- evidence_score

def test_evidence_score_identity():
    value = evidence_score(["the cat sat on the mat"], ["the cat sat on the mat"])
    assert value == pytest.approx(IDENTITY_6, abs=1e-9)


def test_evidence_score_disjoint_zero():
    assert evidence_score(["aa bb"], ["cc dd", "ee ff"]) == 0.0


def test_evidence_score_normalizes_by_gold_count():
    value = evidence_score(["the cat sat on the mat"],
                           ["the cat sat on the mat", "zz qq ww"])
    assert value == pytest.approx(IDENTITY_6 / 2, abs=1e-9)


def test_evidence_score_sum_is_correctly_rounded(monkeypatch):
    # the plain left-to-right sum of 0.1, 0.2 and 0.3 is 0.6000000000000001 before
    # Python 3.12, so only a correctly rounded sum gives the same score everywhere
    monkeypatch.setattr(scoring, "meteor",
                        lambda pred, variants: float(pred) if variants == [pred] else 0.0)
    assert evidence_score(["0.1", "0.2", "0.3"], ["0.1", "0.2", "0.3"]) == 0.6 / 3


def test_evidence_score_empty_pred_is_zero():
    assert evidence_score([], ["gold string"]) == 0.0
    with pytest.raises(ValueError, match="evidence_score needs at least one gold string"):
        evidence_score(["pred"], [])


def test_evidence_score_rejects_more_than_max_evidence():
    gold = ["the cat sat on the mat"]
    assert evidence_score(gold * MAX_EVIDENCE, gold) == pytest.approx(IDENTITY_6, abs=1e-9)
    message = f"^{MAX_EVIDENCE + 1} predicted strings, more than {MAX_EVIDENCE}$"
    with pytest.raises(ValueError, match=message):
        evidence_score(gold * (MAX_EVIDENCE + 1), gold)


def test_evidence_score_variant_groups():
    value = evidence_score(["the cat sat on the mat"],
                           [["completely different words", "the cat sat on the mat"]])
    assert value == pytest.approx(IDENTITY_6, abs=1e-9)


def test_evidence_score_monotone_in_gold_count():
    preds = ["the cat sat on the mat"]
    small = evidence_score(preds, ["the cat sat on the mat"])
    bigger = evidence_score(preds, ["the cat sat on the mat", "unmatched gold line"])
    assert bigger < small


def test_evidence_score_prediction_order_invariant():
    preds = ["first prediction text", "second unrelated words"]
    golds = ["second unrelated words", "first prediction text", "third gold"]
    assert evidence_score(preds, golds) == pytest.approx(
        evidence_score(list(reversed(preds)), golds), abs=1e-12)


_ABC_STRINGS = st.lists(st.sampled_from("abc"), min_size=1, max_size=6).map(" ".join)


@settings(max_examples=150, deadline=None)
@given(st.lists(_ABC_STRINGS, min_size=1, max_size=3), st.data())
def test_evidence_score_with_repeated_strings_equals_oracle(pool, data):
    # the matrix shares one profile per distinct string among its cells
    pick = st.sampled_from(pool)
    preds = data.draw(st.lists(pick, min_size=1, max_size=MAX_EVIDENCE - 1))
    preds.insert(data.draw(st.integers(0, len(preds))), preds[0])  # one prediction twice
    golds = data.draw(st.lists(st.lists(pick, min_size=1, max_size=2), min_size=1, max_size=3))
    gold = data.draw(st.sampled_from(golds))  # gains a variant equal to a prediction
    gold.insert(data.draw(st.integers(0, len(gold))), data.draw(st.sampled_from(preds)))
    oracle = [[independent_meteor(p, variants) for variants in golds] for p in preds]
    best, _ = brute_force_assignment(oracle)
    assert evidence_score(preds, golds) == pytest.approx(best / len(golds), abs=1e-9)


@pytest.fixture
def profiling(monkeypatch):
    """The texts the two cached levels compute: (tokenized, profiled)."""
    tokenized, profiled = [], []
    tokenize, profile = scoring.tokenize, scoring._profile.__wrapped__

    def counting_profile(text):
        profiled.append(text)
        return profile(text)

    monkeypatch.setattr(scoring, "tokenize", lambda text: tokenized.append(text) or tokenize(text))
    monkeypatch.setattr(scoring, "_profile", functools.lru_cache(counting_profile))
    return tokenized, profiled


def test_evidence_score_profiles_each_string_once(profiling):
    tokenized, profiled = profiling
    evidence_score(["a b", "c d", "a b"], ["a b c", ["x y", "c d"], "a b"])
    assert sorted(tokenized) == ["a b", "a b c", "c d", "x y"]
    # "x y" shares no token with a prediction: its tokens are all it needs
    assert sorted(profiled) == ["a b", "a b c", "c d"]


# ---------------------------------------------------------------- score_run

def _gold(claim_id, label, questions):
    return ClaimRecord(claim_id=claim_id, text=f"claim {claim_id}", gold_verdict=label,
                       gold_evidence=[GoldQA(question=q, answers=list(a))
                                      for q, a in questions])


def _report(claim_id, label, qa_pairs):
    evidence = [
        EvidenceItem(question=q, answer=a, answer_type=AnswerType.ABSTRACTIVE,
                     citation=DocRef(0, 0), url="u", scraped_text="t")
        for q, a in qa_pairs
    ]
    return VerdictReport(claim_id=claim_id, claim=f"claim {claim_id}", evidence=evidence,
                         justification="", verdict=label)


def test_score_run_self_match():
    gold = [_gold(0, VerdictLabel.SUPPORTED,
                  [("did the event happen in the town", ["yes it happened in the town"])])]
    reports = [_report(0, VerdictLabel.SUPPORTED,
                       [("did the event happen in the town", "yes it happened in the town")])]
    result = score_run(reports, gold)
    row = result.per_claim[0]
    assert row.q_only > 0.99
    assert row.q_plus_a > 0.99
    assert row.label_correct and row.gated_correct
    assert result.aggregate["averitec"] == 1.0


def test_score_run_gate_blocks_disjoint_evidence():
    gold = [_gold(0, VerdictLabel.REFUTED, [("where was the race held", ["in the valley"])])]
    reports = [_report(0, VerdictLabel.REFUTED, [("totally unrelated words", "nothing shared")])]
    result = score_run(reports, gold)
    row = result.per_claim[0]
    assert row.label_correct
    assert row.q_plus_a == 0.0
    assert not row.gated_correct
    assert result.aggregate["averitec"] == 0.0


def test_score_run_gate_passes_at_exactly_the_threshold(monkeypatch):
    # the gate holds when q_plus_a reaches GATE_THRESHOLD, equality included
    monkeypatch.setattr(scoring, "evidence_score", lambda pred, gold: scoring.GATE_THRESHOLD)
    gold = [_gold(0, VerdictLabel.SUPPORTED, [("q words", ["a words"])])]
    reports = [_report(0, VerdictLabel.SUPPORTED, [("other", "words")])]
    result = score_run(reports, gold)
    assert result.per_claim[0].q_plus_a == 0.25
    assert result.per_claim[0].gated_correct
    assert result.aggregate["averitec"] == 1.0


def test_score_run_wrong_label_never_gated():
    gold = [_gold(0, VerdictLabel.SUPPORTED, [("q words here", ["a words here"])])]
    reports = [_report(0, VerdictLabel.REFUTED, [("q words here", "a words here")])]
    result = score_run(reports, gold)
    assert not result.per_claim[0].gated_correct


def test_score_run_gold_answer_variants():
    gold = [_gold(0, VerdictLabel.SUPPORTED,
                  [("what colour is the door", ["crimson", "the door is painted red"])])]
    reports = [_report(0, VerdictLabel.SUPPORTED,
                       [("what colour is the door", "the door is painted red")])]
    result = score_run(reports, gold)
    assert result.per_claim[0].q_plus_a > 0.9


def test_score_run_empty_gold_evidence_vacuous_gate():
    gold = [ClaimRecord(claim_id=0, text="c", gold_verdict=VerdictLabel.SUPPORTED,
                        gold_evidence=[])]
    reports = [_report(0, VerdictLabel.SUPPORTED, [("q", "a")])]
    result = score_run(reports, gold)
    row = result.per_claim[0]
    assert row.gold_evidence_empty
    assert row.gated_correct
    assert row.q_plus_a == 0.0


def test_score_run_missing_gold():
    reports = [_report(5, VerdictLabel.SUPPORTED, [("q", "a")])]
    with pytest.raises(MalformedInput, match="claim 5 has no gold record"):
        score_run(reports, [])
    blind = [ClaimRecord(claim_id=5, text="c")]
    with pytest.raises(MalformedInput, match="claim 5 gold record lacks label or evidence"):
        score_run(reports, blind)


def test_score_report_serialization():
    gold = [_gold(0, VerdictLabel.SUPPORTED, [("q words", ["a words"])])]
    reports = [_report(0, VerdictLabel.SUPPORTED, [("q words", "a words")])]
    payload = score_run(reports, gold).to_dict()
    assert payload["params"]["gamma"] == 0.5
    assert payload["params"]["beta"] == 3.0
    assert payload["params"]["normalization"] == "gold_count"
    assert payload["params"]["threshold"] == 0.25
    assert len(payload["per_claim"]) == 1
    assert set(payload["aggregate"]) == {"q_only", "q_plus_a", "averitec"}


def test_score_run_computes_the_same_profiles_on_every_call(profiling):
    # a cache that outlived its matrix would hit on the second call
    tokenized, profiled = profiling
    gold = [_gold(0, VerdictLabel.SUPPORTED,
                  [("did the event happen in the town", ["yes it happened", "no"]),
                   ("who saw it", ["the mayor saw it"])])]
    reports = [_report(0, VerdictLabel.SUPPORTED,
                       [("did the event happen", "yes it happened in the town"),
                        ("who saw the event", "the mayor")])]
    counts = []
    for _ in range(2):
        score_run(reports, gold)
        counts.append((len(tokenized), len(profiled)))
        tokenized.clear()
        profiled.clear()
    assert counts[0] == counts[1]
    assert counts[0][1] > 0
