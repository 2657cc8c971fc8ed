import pytest

from zsl_kep.config import RunConfig
from zsl_kep.keypoints import (KeyPointSet, PromptLibrary, build_keypoint_prompt, make_keypoints,
                               parse_keypoints)
from zsl_kep.llm_gateway import Gateway, MockBackend

CFG = RunConfig()
LIBRARY = PromptLibrary.load()


def test_prompt_substitution():
    system, user = build_keypoint_prompt("The claim under test.", LIBRARY)
    assert "The claim under test." in user
    assert "<claim>" not in user
    assert system.strip()


def test_prompt_has_section_headers():
    library = PromptLibrary.load()
    assert "PRIMITIVE:" in library.keypoint_user
    assert "COMBINED:" in library.keypoint_user


def test_prompts_differ_only_in_claim_span():
    _, user_a = build_keypoint_prompt("AAA", LIBRARY)
    _, user_b = build_keypoint_prompt("BBB", LIBRARY)
    assert user_a.replace("AAA", "BBB") == user_b


def test_prompt_override(tmp_path):
    path = tmp_path / "kp_user.txt"
    path.write_text("custom prompt for <claim>", encoding="utf-8")
    library = PromptLibrary.load({"keypoint_user": str(path)})
    _, user = build_keypoint_prompt("X", library)
    assert user == "custom prompt for X"


def test_parse_basic():
    kps = parse_keypoints("PRIMITIVE:\n1. a\n2. b\nCOMBINED:\n1. a and b")
    assert kps.primitives == ["a", "b"]
    assert kps.combined == ["a and b"]
    assert kps.all_queries("CLAIM") == ["a", "b", "a and b", "CLAIM"]
    assert kps.n == 3


def test_parse_caps_primitives_at_four():
    response = "PRIMITIVE:\n" + "\n".join(f"{i}. point {i}" for i in range(1, 7))
    kps = parse_keypoints(response)
    assert kps.primitives == ["point 1", "point 2", "point 3", "point 4"]


def test_parse_caps_combined_at_six():
    response = ("PRIMITIVE:\n1. p\nCOMBINED:\n"
                + "\n".join(f"{i}. combo {i}" for i in range(1, 9)))
    kps = parse_keypoints(response)
    assert len(kps.combined) == 6


def test_parse_tolerates_noise_and_paren_numbering():
    response = "preamble text\nPRIMITIVE:\n1) first\nnot numbered\n2. second\nCOMBINED:\n1) both"
    kps = parse_keypoints(response)
    assert kps.primitives == ["first", "second"]
    assert kps.combined == ["both"]


def test_parse_failure_on_free_text():
    assert parse_keypoints("no structure at all, just prose").n == 0
    assert parse_keypoints("COMBINED:\n1. only combined without primitives").n == 0


@pytest.mark.parametrize("reply, primitives, combined", [
    # U+0130 matches 'i' under IGNORECASE, though its lower() is not 'i'
    ("PR\u0130M\u0130T\u0130VE:\n1. p\nCOMB\u0130NED:\n1. c", ["p"], ["c"]),
    ("Primitive key points\n1. p\ncombined\n1. c", ["p"], ["c"]),
    # no header: no word boundary after 'primitive', and '_' is a word character
    ("PRIMITIVE:\n1. p\nCOMBINED:\n1. c\nprimitives:\n2. q", ["p"], ["c", "q"]),
    ("PRIMITIVE:\n1. p\nCOMBINED:\n1. c\nPRIMITIVE_POINTS:\n2. q", ["p"], ["c", "q"]),
], ids=["dotted-capital-i", "words-after-header", "plural", "underscore"])
def test_parse_header_spellings(reply, primitives, combined):
    kps = parse_keypoints(reply)
    assert (kps.primitives, kps.combined) == (primitives, combined)


def test_parse_idempotent_after_render():
    kps = parse_keypoints("PRIMITIVE:\n1. one\n2. two\nCOMBINED:\n1. one and two")
    rendered = ("PRIMITIVE:\n"
                + "\n".join(f"{i}. {p}" for i, p in enumerate(kps.primitives, 1))
                + "\nCOMBINED:\n"
                + "\n".join(f"{i}. {c}" for i, c in enumerate(kps.combined, 1)))
    again = parse_keypoints(rendered)
    assert again.primitives == kps.primitives
    assert again.combined == kps.combined


def test_all_queries_always_ends_with_claim():
    assert KeyPointSet().all_queries("c") == ["c"]
    assert KeyPointSet(["p"], ["x"]).all_queries("c")[-1] == "c"


def test_make_keypoints_happy_path():
    script = {0: ["PRIMITIVE:\n1. a\n2. b\n3. c\nCOMBINED:\n1. a and c"]}
    gateway = Gateway(MockBackend(script))
    kps, fallbacks = make_keypoints(gateway, "claim text", CFG, LIBRARY, claim_id=0)
    assert fallbacks == 0
    queries = kps.all_queries("claim text")
    assert len(queries) == 5
    assert queries[-1] == "claim text"


def test_make_keypoints_garbage_degrades():
    gateway = Gateway(MockBackend({0: ["free text, no lists"]}))
    kps, fallbacks = make_keypoints(gateway, "claim", CFG, LIBRARY, claim_id=0)
    assert fallbacks == 1
    assert kps.all_queries("claim") == ["claim"]


def test_make_keypoints_gateway_error_degrades():
    gateway = Gateway(MockBackend({0: [{"error": "transport"}]}))
    kps, fallbacks = make_keypoints(gateway, "claim", CFG, LIBRARY, claim_id=0)
    assert fallbacks == 1
    assert kps.n == 0


def test_make_keypoints_counts():
    script = {0: ["PRIMITIVE:\n1. a\n2. b\n3. c\n4. d\nCOMBINED:\n1. ab\n2. cd"]}
    gateway = Gateway(MockBackend(script))
    kps, _ = make_keypoints(gateway, "claim", CFG, LIBRARY, claim_id=0)
    assert kps.n == 6
    assert len(kps.all_queries("claim")) == 7


def test_make_keypoints_on_a_blank_claim_sends_and_never_raises():
    backend = MockBackend({0: ["PRIMITIVE:\n1. a"]})
    kps, fallbacks = make_keypoints(Gateway(backend), " ", CFG, LIBRARY, claim_id=0)
    assert (kps.primitives, fallbacks) == (["a"], 0)
    assert len(backend.requests) == 1
