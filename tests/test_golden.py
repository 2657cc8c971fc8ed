"""Golden outputs of the e2e fixture: a refactor must leave every byte of the
predictions, the score reports and the inspect dumps as it was, on every
supported Python version."""

import hashlib
from pathlib import Path

import pytest

from zsl_kep.cli import main

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "e2e"
E2E_CONFIG = str(FIXTURE_DIR / "config.json")

PREDICTIONS = "965d9417d18ae8f6b5aa17d5cf0db441bd79d033ce1c3500125f07ebc082cb4e"
SCORE_REPORTS = {
    (): "49d9940aa21e2269cd6b1374cef5fe7e97040895c56796a0a2ab474087bed5af",
    ("--stemming",): "dcb14a36fbe743d50fe02fdbb54986b8efef106cfa02b2f4c9de736d5bb58d59",
}
INSPECT_STDOUT = {
    (0, ()): "30c1967a2721e83e1057f30247c7fae4e23c34f421ec7f5ccaa73db6cc2710e5",
    (1, ()): "0db1c8cfc820d7e06c3e8947f60216598717068b0d17cf3cb569782bac86a1d9",
    (2, ()): "8d1603d31662a842ca72794e63c10876e9686075d748c8e36c61496d4b73f1fd",
    (3, ()): "ab4955798e5c2f42ad30742542deee887cd3abd255d86fcb3c63ad3e7075d6e7",
    (0, ("--no-llm",)): "6db37faea0adb8f0bec2c0cc5809b504f63bae45ac05193e727ce28cd14a4f4b",
    (1, ("--no-llm",)): "5f667f4153f91e9f1430d212a788862aac92c01918a502ff6eb5623709edddbc",
    (2, ("--no-llm",)): "1ae89689e3dcbc7c9eea51400a54283a25b484653f63e6559282ceade3e0bea5",
    (3, ("--no-llm",)): "c5370fa2bde2b5248e5feddc28411ea6c410aeebc960fa2651732a2b371e2897",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_run_and_score_outputs_are_golden(tmp_path, capsys):
    pred = tmp_path / "pred.json"
    assert main(["run", "--config", E2E_CONFIG, "--output", str(pred)]) == 0
    assert _sha256(pred.read_bytes()) == PREDICTIONS
    for flags, digest in SCORE_REPORTS.items():
        report = tmp_path / f"scores{len(flags)}.json"
        assert main(["score", "--pred", str(pred), "--gold", str(FIXTURE_DIR / "claims.json"),
                     "--report", str(report), *flags]) == 0
        assert _sha256(report.read_bytes()) == digest, flags
    capsys.readouterr()


@pytest.mark.parametrize("claim, flags", sorted(INSPECT_STDOUT))
def test_inspect_stdout_is_golden(capsys, claim, flags):
    assert main(["inspect", "--config", E2E_CONFIG, "--claim", str(claim), *flags]) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == INSPECT_STDOUT[claim, flags]
