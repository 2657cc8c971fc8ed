"""Golden outputs of the e2e fixture and of the benchmark workloads' seed-5
inputs: a refactor must leave every byte of the predictions, the score reports,
the run summaries and the inspect dumps as it was, on every supported Python
version."""

import contextlib
import hashlib
import importlib.util
import io
from pathlib import Path

import pytest

from zsl_kep import cli
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

# seed-5 inputs of perfbench/workloads.py: predictions, score report, score
# report with --stemming
WORKLOAD_DIGESTS = {
    "bulk_small": (
        "d75b24cd7afd05e1d3249e4b083369062c6c54314badf95122df883e16e095c0",
        "580e35ad265fb63119d46500ad83def1741bbd348b8004bb62ea915d06614fcb",
        "7e93b84cb9f04a079cec32cc52f83eb28d41dc71853048b3cba13abb18c16de0",
    ),
    "large_store": (
        "366d7a83282dc52de264b0fc814c4a8a43312aeaf29f0c7044ced22f370a9faa",
        "d4026573920e025b0ecc690717775389354c5ee84b265defccb652d3f36aba7b",
        "568211caff676f97b95acc52bd7962b519107d648bf253378ec19cdcbbf726a4",
    ),
    "score_heavy": (
        "093407b14bf77ea167c35aa33d9f810f548b2c8d3b94ce46979e6eaece80d0df",
        "3835efdb6a282c199b7dea4dba005d1e7ad3d02b2a39993ca2cdbe85dc6c2fc7",
        "d80c40418daf501e18f593b85e9666149e543f056cb7904cd507707f888cf087",
    ),
}
# run's stderr summary: (claims, truncated, fallbacks, failed, overflows, rate limits)
WORKLOAD_SUMMARIES = {
    "bulk_small": (240, 0, 36, 6, 0, 3),
    "large_store": (4, 2, 1, 1, 3, 0),
    "score_heavy": (20, 0, 0, 1, 0, 0),
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


def _load_workloads():
    path = Path(__file__).parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workload_outputs(tmp_path_factory):
    """Per workload: exit code and stderr of run (output path removed), and
    the bytes of the predictions and of both score reports."""
    workloads = _load_workloads()
    gateway = cli.Gateway
    outputs = {}
    with pytest.MonkeyPatch.context() as mp:
        # the rate-limit backoff would sleep for real; the outputs do not depend on it
        mp.setattr(cli, "Gateway", lambda *a, **kw: gateway(*a, sleep=lambda s: None, **kw))
        for name in WORKLOAD_DIGESTS:
            out_dir = tmp_path_factory.mktemp(name)
            gen = workloads.GENERATORS[name](str(out_dir), 5)
            pred = str(out_dir / "predictions.out.json")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["run", "--config", gen.config_path, "--output", pred])
            files = [Path(pred).read_bytes()]
            for flags in ((), ("--stemming",)):
                report = out_dir / f"scores{len(flags)}.json"
                with contextlib.redirect_stderr(io.StringIO()):
                    assert main(["score", "--pred", pred, "--gold", gen.claims_path,
                                 "--report", str(report), *flags]) == 0
                files.append(report.read_bytes())
            outputs[name] = code, err.getvalue().replace(pred, "<out>"), files
    return outputs


@pytest.mark.parametrize("name", sorted(WORKLOAD_DIGESTS))
def test_workload_outputs_are_golden(workload_outputs, name):
    code, run_err, files = workload_outputs[name]
    assert [_sha256(data) for data in files] == list(WORKLOAD_DIGESTS[name])
    claims, truncated, fallbacks, failed, overflows, rate_limits = WORKLOAD_SUMMARIES[name]
    assert code == 2  # every workload scripts at least one failed claim
    assert run_err == (f"claims processed: {claims}\n"
                       f"truncated runs: {truncated}\n"
                       f"parse fallbacks: {fallbacks}\n"
                       f"failed claims: {failed}\n"
                       f"gateway overflows: {overflows}\n"
                       f"gateway rate limits: {rate_limits}\n"
                       "wrote predictions to <out>\n")
