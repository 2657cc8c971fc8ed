"""Zero-shot key point construction.

One LLM call per claim turns the claim into at most four primitive key points
plus combined key points built from pairs of them; together with the claim
itself they become the retrieval query list. Anything that goes wrong here
degrades to claim-only retrieval — a claim never fails because its key points
did. The generation settings of that call come from the run config.
"""

import os
import re
from collections import namedtuple

from .llm_gateway import ChatRequest, GatewayError

MAX_PRIMITIVES = 4
MAX_COMBINED = 6  # pairs drawn from at most 4 primitives

_PROMPT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "prompts")
TEMPLATE_NAMES = ("keypoint_system", "keypoint_user", "prediction_system", "prediction_user")

_PLACEHOLDER_RE = re.compile(r"<(?:claim|retrieval)>")
_ITEM_RE = re.compile(r"^\d+[.)]\s*(.+)$")
# which group matched picks the section: under IGNORECASE 'PRİMİTİVE' (U+0130) is
# a header too, and its lower() is not 'primitive'
_HEADER_RE = re.compile(r"^(?:(primitive)|combined)\b\s*:?", re.IGNORECASE)


def fill_placeholders(template: str, values: dict[str, str]) -> str:
    """Substitute <claim> / <retrieval> tags; unknown tags are left alone."""
    return _PLACEHOLDER_RE.sub(lambda m: values.get(m.group(0), m.group(0)), template)


class PromptLibrary(namedtuple("PromptLibrary", TEMPLATE_NAMES)):
    """The four prompt templates, shipped as editable text assets and
    overridable per template via config."""

    __slots__ = ()

    @classmethod
    def load(cls, overrides: "dict[str, str] | None" = None) -> "PromptLibrary":
        overrides = overrides or {}
        texts = {}
        for name in TEMPLATE_NAMES:
            path = overrides.get(name) or os.path.join(_PROMPT_DIR, f"{name}.txt")
            with open(path, encoding="utf-8") as fh:
                texts[name] = fh.read()
        return cls(**texts)


class KeyPointSet(namedtuple("KeyPointSet", "primitives combined gateway_failures",
                             defaults=((), (), ()))):
    __slots__ = ()

    @property
    def n(self) -> int:
        return len(self.primitives) + len(self.combined)

    def all_queries(self, claim: str) -> list[str]:
        """Key points first, the original claim always last."""
        return [*self.primitives, *self.combined, claim]


def build_keypoint_prompt(claim: str, library: PromptLibrary) -> tuple[str, str]:
    return library.keypoint_system, fill_placeholders(library.keypoint_user, {"<claim>": claim})


def parse_keypoints(response: str) -> KeyPointSet:
    """Pull numbered lines out of the PRIMITIVE: and COMBINED: sections.

    A reply with no primitive key points gives the empty set: retrieval then
    runs on the claim alone.
    """
    section = None
    primitives: list[str] = []
    combined: list[str] = []
    for raw in response.splitlines():
        line = raw.strip()
        header = _HEADER_RE.match(line)
        if header:
            section = primitives if header.group(1) else combined
            continue
        m = _ITEM_RE.match(line)
        if not m or section is None:
            continue
        text = m.group(1).strip()
        if text:
            section.append(text)

    if not primitives:  # combined key points are built from primitives
        return KeyPointSet()
    return KeyPointSet(primitives[:MAX_PRIMITIVES], combined[:MAX_COMBINED])


def make_keypoints(gateway, claim: str, cfg, library: PromptLibrary,
                   claim_id: "int | None" = None) -> tuple[KeyPointSet, int]:
    """Build, send and parse the key point prompt at the run config's settings.

    Returns (key point set, fallback count); the set carries the call's gateway failures.
    Never raises: a gateway failure or a reply without primitives yields the empty set,
    which downstream means retrieval runs on the claim alone, and counts one fallback.
    """
    system, user = build_keypoint_prompt(claim, library)
    request = ChatRequest(system_message=system, user_message=user,
                          temperature=cfg.temperature, top_p=cfg.top_p,
                          max_new_tokens=cfg.max_tokens_keypoints)
    try:
        response = gateway.complete(request, claim_id)
    except GatewayError as exc:
        return KeyPointSet(gateway_failures=exc.failures), 1
    keypoints = parse_keypoints(response.text)._replace(gateway_failures=response.failures)
    return keypoints, 0 if keypoints.primitives else 1
