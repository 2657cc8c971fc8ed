"""Data model and file I/O: claims, per-claim knowledge stores, predictions.

Knowledge stores are JSON Lines files (one URL entry per line with its list
of scraped passages). Every passage is addressable as ``{url_index}_{text_index}``,
both indices positional within the file, and that string is the citation id
used everywhere downstream.
"""

import json
import os
import re
from collections import namedtuple
from enum import Enum

_DOC_REF_RE = re.compile(r"(\d+)_(\d+)")

# evidence items per prediction: parse_prediction keeps at most this many and
# load_predictions rejects more, which also bounds the assignment search
MAX_EVIDENCE = 4


class MalformedInput(ValueError):
    """An input file violates the expected schema."""


class UnknownDocRef(LookupError):
    """A document reference does not exist in the knowledge store."""


def _squash(text: str) -> str:
    """Lowercase and drop everything that is not a letter or digit."""
    return re.sub(r"[^a-z0-9]+", "", text.lower())


class _Label(Enum):
    """Enum of fixed label strings, read strictly from files and leniently
    from LLM replies."""

    @classmethod
    def from_string(cls, raw: str):
        try:
            return cls(raw)
        except ValueError:
            raise MalformedInput(f"unknown {cls.__name__} {raw!r}") from None

    @classmethod
    def parse_lenient(cls, raw: str):
        """Case-insensitive match with punctuation stripped; None if no match."""
        squashed = _squash(raw)
        for member in cls:
            if squashed == _squash(member.value):
                return member
        return None


class VerdictLabel(_Label):
    SUPPORTED = "Supported"
    REFUTED = "Refuted"
    NOT_ENOUGH_EVIDENCE = "Not Enough Evidence"
    CONFLICTING = "Conflicting Evidence/Cherry-Picking"


class AnswerType(_Label):
    EXTRACTIVE = "Extractive"
    ABSTRACTIVE = "Abstractive"
    BOOLEAN = "Boolean"
    UNANSWERABLE = "Unanswerable"


class DocRef(namedtuple("DocRef", "url_index text_index")):
    """Address of one scraped passage: URL position in the store file plus
    passage position under that URL."""

    __slots__ = ()

    def serialize(self) -> str:
        return f"{self.url_index}_{self.text_index}"

    @classmethod
    def parse(cls, raw: str) -> "DocRef":
        m = _DOC_REF_RE.fullmatch(raw.strip())
        if not m:
            raise MalformedInput(f"bad document id {raw!r}")
        return cls(int(m.group(1)), int(m.group(2)))

    @classmethod
    def find(cls, text: str) -> "DocRef | None":
        """The first id anywhere in ``text``, or None (also for more digits than int() takes)."""
        m = _DOC_REF_RE.search(text)
        try:
            return cls(int(m.group(1)), int(m.group(2))) if m else None
        except ValueError:
            return None


# every record is a namedtuple, cheap to create at import; they unpack and
# compare as tuples, and hash unless they hold a list
GoldQA = namedtuple("GoldQA", "question answers")
# gold_verdict and gold_evidence are set in gold files only
ClaimRecord = namedtuple("ClaimRecord", "claim_id text gold_verdict gold_evidence",
                         defaults=(None, None))
UrlEntry = namedtuple("UrlEntry", "url passages")
KnowledgeStore = namedtuple("KnowledgeStore", "claim_id entries", defaults=((),))
EvidenceItem = namedtuple("EvidenceItem",
                          "question answer answer_type citation url scraped_text")
# the last four fields say what the run degraded; write_predictions leaves them out
VerdictReport = namedtuple("VerdictReport", "claim_id claim evidence justification verdict "
                           "truncated parse_fallbacks failed gateway_failures",
                           defaults=(False, 0, False, ()))


def read_json(path):
    """Parse one JSON file; non-UTF-8 bytes, or JSON the decoder refuses, raise MalformedInput."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:  # a ValueError too, so caught first
        raise MalformedInput(f"{path}: not UTF-8 text ({exc})") from exc
    except (ValueError, RecursionError) as exc:
        raise MalformedInput(f"{path}: not valid JSON ({exc})") from exc


def write_json(path, data) -> None:
    """Write ``data`` as indented JSON to a temp file beside ``path``, then
    rename it over ``path``: a write that fails partway leaves an earlier file
    whole and no temp file behind."""
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        # a lone surrogate, which JSON decoding can give, is written as its
        # JSON escape and so reads back as the same string
        with open(tmp, "w", encoding="utf-8", errors="backslashreplace") as fh:
            json.dump(data, fh, indent=2, ensure_ascii=False)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_claims(path) -> list[ClaimRecord]:
    """Read a claims file: a JSON array of objects with ``claim`` and,
    in gold files, ``label`` plus ``questions``."""
    data = read_json(path)
    if not isinstance(data, list):
        raise MalformedInput(f"{path}: expected a JSON array of claim objects")

    records = []
    for idx, row in enumerate(data):
        if not isinstance(row, dict) or "claim" not in row:
            raise MalformedInput(f"{path}: element {idx} has no 'claim' field")
        text = row["claim"]
        if not isinstance(text, str) or not text.strip():
            raise MalformedInput(f"{path}: element {idx} has an empty claim")

        has_label = "label" in row
        has_questions = "questions" in row
        if has_label != has_questions:
            raise MalformedInput(
                f"{path}: element {idx} must carry both 'label' and 'questions' or neither"
            )

        verdict = evidence = None
        if has_label:
            verdict = VerdictLabel.from_string(row["label"])
            if not isinstance(row["questions"], list):
                raise MalformedInput(f"{path}: element {idx} 'questions' must be an array")
            evidence = []
            for q_idx, q in enumerate(row["questions"]):
                if (not isinstance(q, dict) or not isinstance(q.get("question"), str)
                        or not isinstance(q.get("answers"), list)
                        or any(not isinstance(a, dict) for a in q["answers"])):
                    raise MalformedInput(f"{path}: element {idx} question {q_idx} needs a "
                                         "string 'question' and an array of 'answers' objects")
                answers = [a.get("answer", "") for a in q["answers"]]
                where = f"{path}: element {idx} question {q_idx}"
                for a_idx, answer in enumerate(answers):
                    if not isinstance(answer, str):
                        raise MalformedInput(f"{where} answer {a_idx} is "
                                             f"{type(answer).__name__}, not str")
                if not answers or not all(answers):
                    raise MalformedInput(f"{where} has empty answers")
                evidence.append(GoldQA(question=q["question"], answers=answers))

        records.append(ClaimRecord(claim_id=idx, text=text, gold_verdict=verdict,
                                   gold_evidence=evidence))
    return records


def load_store(path, claim_id: int) -> KnowledgeStore:
    """Read one knowledge store: JSON Lines, each line
    ``{"url": ..., "url2text": [...]}``. Line order defines the indices."""
    entries = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    row = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    raise MalformedInput(f"{path}: line {line_no} is not valid JSON") from exc
                if not isinstance(row, dict) or "url" not in row or "url2text" not in row:
                    raise MalformedInput(f"{path}: line {line_no} needs 'url' and 'url2text'")
                url, passages = row["url"], row["url2text"]
                if not isinstance(url, str):
                    raise MalformedInput(f"{path}: line {line_no} 'url' must be a string")
                if not isinstance(passages, list) or any(not isinstance(p, str) for p in passages):
                    raise MalformedInput(
                        f"{path}: line {line_no} 'url2text' must be a string array")
                entries.append(UrlEntry(url=url, passages=passages))
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{path}: not UTF-8 text ({exc})") from exc
    return KnowledgeStore(claim_id=claim_id, entries=entries)


def iter_docs(store: KnowledgeStore):
    """Yield every (DocRef, passage) pair in store order, empty passages included."""
    for u, entry in enumerate(store.entries):
        for t, passage in enumerate(entry.passages):
            yield DocRef(u, t), passage


def resolve(store: KnowledgeStore, ref: DocRef) -> tuple[str, str]:
    """Return (url, passage) for a citation id; inverse of the id attached to
    each document in the unified retrieval string."""
    if not 0 <= ref.url_index < len(store.entries):
        raise UnknownDocRef(f"no url index {ref.url_index} in store {store.claim_id}")
    entry = store.entries[ref.url_index]
    if not 0 <= ref.text_index < len(entry.passages):
        raise UnknownDocRef(
            f"no passage {ref.text_index} under url {ref.url_index} in store {store.claim_id}"
        )
    return entry.url, entry.passages[ref.text_index]


def write_predictions(path, reports: list[VerdictReport]) -> None:
    """Write the predictions file, preserving claim order."""
    rows = []
    for rep in reports:
        rows.append({
            "claim_id": rep.claim_id,
            "claim": rep.claim,
            "pred_label": rep.verdict.value,
            "justification": rep.justification,
            "evidence": [
                {
                    "question": ev.question,
                    "answer": ev.answer,
                    "answer_type": ev.answer_type.value,
                    "url": ev.url,
                    "scraped_text": ev.scraped_text,
                    "citation_id": ev.citation.serialize(),
                }
                for ev in rep.evidence
            ],
        })
    write_json(path, rows)


def _typed(row: dict, key: str, kind: type = str):
    """``row[key]``, which must be exactly a ``kind``: a bool or 0.9 is no claim id."""
    if type(row[key]) is not kind:
        raise TypeError(f"{key} is {type(row[key]).__name__}, not {kind.__name__}")
    return row[key]


def load_predictions(path) -> list[VerdictReport]:
    """Read a predictions file back into reports (used by scoring and tests).
    A row with a mistyped field, more than MAX_EVIDENCE evidence items or a
    repeated claim_id is rejected."""
    data = read_json(path)
    if not isinstance(data, list):
        raise MalformedInput(f"{path}: expected a JSON array of prediction objects")

    reports = []
    first_idx: dict[int, int] = {}  # claim id -> element that first held it
    for idx, row in enumerate(data):
        try:
            evidence = [
                EvidenceItem(
                    question=_typed(ev, "question"),
                    answer=_typed(ev, "answer"),
                    answer_type=AnswerType.from_string(ev["answer_type"]),
                    citation=DocRef.parse(ev["citation_id"]),
                    url=_typed(ev, "url"),
                    scraped_text=_typed(ev, "scraped_text"),
                )
                for ev in row["evidence"]
            ]
            reports.append(VerdictReport(
                claim_id=_typed(row, "claim_id", int),
                claim=_typed(row, "claim"),
                evidence=evidence,
                justification=_typed(row, "justification") if "justification" in row else "",
                verdict=VerdictLabel.from_string(row["pred_label"]),
            ))
        except MalformedInput:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise MalformedInput(f"{path}: element {idx} is malformed ({exc})") from exc
        report = reports[-1]
        if len(report.evidence) > MAX_EVIDENCE:
            raise MalformedInput(f"{path}: element {idx} has {len(report.evidence)} "
                                 f"evidence items, more than {MAX_EVIDENCE}")
        if report.claim_id in first_idx:
            raise MalformedInput(f"{path}: elements {first_idx[report.claim_id]} and {idx} "
                                 f"both hold claim_id {report.claim_id}")
        first_idx[report.claim_id] = idx
    return reports
