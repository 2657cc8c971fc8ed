import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import zsl_kep
from zsl_kep import pipeline
from zsl_kep.cli import main
from zsl_kep.config import RunConfig
from zsl_kep.corpus import load_claims, load_predictions, load_store
from zsl_kep.keypoints import PromptLibrary
from zsl_kep.llm_gateway import Gateway, MockBackend
from zsl_kep.pipeline import build_prediction_prompt, run_batch

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "e2e"
E2E_CONFIG = str(FIXTURE_DIR / "config.json")


def _write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_run_happy_path(tmp_path, capsys):
    out = tmp_path / "pred.json"
    assert main(["run", "--config", E2E_CONFIG, "--output", str(out)]) == 0
    err = capsys.readouterr().err
    assert "claims processed: 4" in err
    data = json.loads(out.read_text(encoding="utf-8"))
    assert len(data) == 4


def test_run_summary_prints_gateway_counters(tmp_path, capsys):
    out = tmp_path / "pred.json"
    assert main(["run", "--config", E2E_CONFIG, "--output", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "claims processed: 4", "truncated runs: 0", "parse fallbacks: 1", "failed claims: 0",
        "gateway overflows: 0", "gateway rate limits: 0", f"wrote predictions to {out}"]


def test_run_print_config(tmp_path, capsys):
    assert main(["run", "--config", E2E_CONFIG, "--print-config"]) == 0
    cfg = json.loads(capsys.readouterr().out)
    assert cfg["claim_top_k"] == 70
    assert cfg["keypoint_top_k"] == 12
    assert cfg["truncate_claim"] == 55
    assert cfg["truncate_keypoint"] == 9
    assert cfg["temperature"] == 0.0
    assert cfg["top_p"] == 0.8
    assert cfg["max_tokens_keypoints"] == 512
    assert cfg["max_tokens_prediction"] == 1024
    assert cfg["k1"] == 1.2
    assert cfg["b"] == 0.75
    assert cfg["workers"] == 4


_PRINTED_CONFIG = """{
  "claims_path": "<FIXTURE>/claims.json",
  "store_dir": "<FIXTURE>/stores",
  "output_path": "<FIXTURE>/predictions.json",
  "backend": "mock",
  "base_url": "",
  "model_name": "",
  "mock_script_path": "<FIXTURE>/mock_script.json",
  "claim_top_k": 70,
  "keypoint_top_k": 12,
  "truncate_claim": 55,
  "truncate_keypoint": 9,
  "k1": 1.2,
  "b": 0.75,
  "temperature": 0.0,
  "top_p": 0.8,
  "max_tokens_keypoints": 512,
  "max_tokens_prediction": 1024,
  "workers": 4,
  "max_attempts": 5,
  "prompt_budget": 8000,
  "prompt_overrides": {}
}
"""


def test_run_print_config_prints_every_field_in_declaration_order(capsys):
    assert main(["run", "--config", E2E_CONFIG, "--print-config"]) == 0
    fixture = json.dumps(str(FIXTURE_DIR))[1:-1]  # the directory as the JSON spells it
    assert capsys.readouterr().out.replace(fixture, "<FIXTURE>") == _PRINTED_CONFIG


def _minimal_setup(tmp_path, n_claims=2, stores_for=(0, 1), script=None):
    claims = [{"claim": f"test claim {i}"} for i in range(n_claims)]
    claims_path = _write_json(tmp_path / "claims.json", claims)
    store_dir = tmp_path / "stores"
    store_dir.mkdir()
    for cid in stores_for:
        (store_dir / f"{cid}.json").write_text(
            json.dumps({"url": "u", "url2text": [f"test claim {cid} words", "filler"]}) + "\n",
            encoding="utf-8")
    if script is None:
        script = {str(i): [
            "PRIMITIVE:\n1. test point",
            "EVIDENCE:\nQ1: q?\nA1: a\nTYPE1: Abstractive\nCITE1: 0_0\n\n"
            "JUSTIFICATION: j\n\nVERDICT: Supported",
        ] for i in range(n_claims)}
    script_path = _write_json(tmp_path / "script.json", script)
    config = {
        "claims_path": claims_path,
        "store_dir": str(store_dir),
        "output_path": str(tmp_path / "pred.json"),
        "backend": "mock",
        "mock_script_path": script_path,
    }
    return _write_json(tmp_path / "config.json", config)


def test_run_missing_store_names_path(tmp_path, capsys):
    config = _minimal_setup(tmp_path, n_claims=2, stores_for=(0,))
    assert main(["run", "--config", config]) == 1
    err = capsys.readouterr().err
    assert "1.json" in err


def test_run_invalid_truncation_config(tmp_path, capsys):
    config_path = Path(_minimal_setup(tmp_path))
    cfg = json.loads(config_path.read_text(encoding="utf-8"))
    cfg["truncate_claim"] = 80
    _write_json(config_path, cfg)
    assert main(["run", "--config", str(config_path)]) == 1
    assert "truncate_claim" in capsys.readouterr().err


def test_run_unknown_config_field(tmp_path, capsys):
    config_path = Path(_minimal_setup(tmp_path))
    cfg = json.loads(config_path.read_text(encoding="utf-8"))
    cfg["not_a_field"] = 1
    _write_json(config_path, cfg)
    assert main(["run", "--config", str(config_path)]) == 1
    assert "not_a_field" in capsys.readouterr().err


def test_run_negative_prompt_budget(tmp_path, capsys):
    config_path = Path(_minimal_setup(tmp_path))
    cfg = json.loads(config_path.read_text(encoding="utf-8"))
    cfg["prompt_budget"] = -5
    _write_json(config_path, cfg)
    assert main(["run", "--config", str(config_path)]) == 1
    assert "error: prompt_budget must be >= 0" in capsys.readouterr().err
    cfg["prompt_budget"] = 0  # 0 turns the guard off
    _write_json(config_path, cfg)
    assert main(["run", "--config", str(config_path)]) == 0


def test_run_bad_backend(tmp_path, capsys):
    config_path = Path(_minimal_setup(tmp_path))
    cfg = json.loads(config_path.read_text(encoding="utf-8"))
    cfg["backend"] = "carrier-pigeon"
    _write_json(config_path, cfg)
    assert main(["run", "--config", str(config_path)]) == 1
    assert "backend" in capsys.readouterr().err


def test_run_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
    assert "nope.json" in capsys.readouterr().err


def test_run_exit_2_on_failed_claim(tmp_path):
    config = _minimal_setup(tmp_path, n_claims=1, stores_for=(0,), script={"0": []})
    assert main(["run", "--config", config]) == 2
    pred = json.loads((tmp_path / "pred.json").read_text(encoding="utf-8"))
    assert len(pred) == 1
    assert pred[0]["pred_label"] == "Not Enough Evidence"


@pytest.mark.parametrize("output", ["missing/pred.json", "."])
def test_run_rejects_unusable_output_before_any_call(tmp_path, capsys, monkeypatch, output):
    import zsl_kep.cli as cli_mod
    sent = []

    class _Recording(MockBackend):
        def send(self, request, claim_id=None):
            sent.append(claim_id)
            return super().send(request, claim_id)

    monkeypatch.setattr(cli_mod, "MockBackend", _Recording)
    out = tmp_path / output
    assert main(["run", "--config", E2E_CONFIG, "--output", str(out)]) == 1
    assert f"error: cannot write predictions to {out}" in capsys.readouterr().err
    assert sent == []
    assert not (tmp_path / "missing").exists()


def test_run_rejects_an_empty_output_path_before_any_call(tmp_path, capsys, monkeypatch):
    import zsl_kep.cli as cli_mod
    sent = []

    class _Recording(MockBackend):
        def send(self, request, claim_id=None):
            sent.append(claim_id)
            return super().send(request, claim_id)

    monkeypatch.setattr(cli_mod, "MockBackend", _Recording)
    fixture = tmp_path / "e2e"
    shutil.copytree(FIXTURE_DIR, fixture)
    config = json.loads((fixture / "config.json").read_text(encoding="utf-8"))
    _write_json(fixture / "config.json", {**config, "output_path": ""})
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(fixture / "config.json")]) == 1
    assert capsys.readouterr().err == "error: cannot write predictions to \n"
    assert sent == []
    assert os.listdir(tmp_path) == ["e2e"]


def test_run_rejects_an_empty_output_flag_before_any_call(tmp_path, capsys, monkeypatch):
    # an explicit --output "" is refused, not replaced by the config's output_path
    import zsl_kep.cli as cli_mod
    sent = []

    class _Recording(MockBackend):
        def send(self, request, claim_id=None):
            sent.append(claim_id)
            return super().send(request, claim_id)

    monkeypatch.setattr(cli_mod, "MockBackend", _Recording)
    fixture = tmp_path / "e2e"
    shutil.copytree(FIXTURE_DIR, fixture)
    before = sorted(p.name for p in fixture.iterdir())
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(fixture / "config.json"), "--output", ""]) == 1
    assert capsys.readouterr().err == "error: cannot write predictions to \n"
    assert sent == []
    assert os.listdir(tmp_path) == ["e2e"]
    assert sorted(p.name for p in fixture.iterdir()) == before


def test_run_rejects_a_base_url_that_is_not_http_before_any_work(tmp_path, capsys):
    config_path = Path(_minimal_setup(tmp_path))
    cfg = json.loads(config_path.read_text(encoding="utf-8"))
    _write_json(config_path, {**cfg, "backend": "http", "base_url": "localhost:8000/v1",
                              "model_name": "m"})
    assert main(["run", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == ("error: base_url must be an http:// or https:// URL: "
                                       "'localhost:8000/v1'\n")
    assert not (tmp_path / "pred.json").exists()


def test_run_refuses_an_output_that_names_an_input(tmp_path, capsys, monkeypatch):
    import zsl_kep.cli as cli_mod
    sent = []

    class _Recording(MockBackend):
        def send(self, request, claim_id=None):
            sent.append(claim_id)
            return super().send(request, claim_id)

    monkeypatch.setattr(cli_mod, "MockBackend", _Recording)
    fixture = tmp_path / "e2e"
    shutil.copytree(FIXTURE_DIR, fixture)
    (fixture / "system.txt").write_text("You verify claims.", encoding="utf-8")
    config = json.loads((fixture / "config.json").read_text(encoding="utf-8"))
    _write_json(fixture / "config.json",
                {**config, "prompt_overrides": {"prediction_system": "system.txt"}})
    before = {p: p.read_bytes() for p in fixture.rglob("*") if p.is_file()}
    monkeypatch.chdir(fixture / "stores")
    for output in ("../claims.json", "../config.json", "../mock_script.json", "../system.txt",
                   "./0.json"):
        assert main(["run", "--config", str(fixture / "config.json"), "--output", output]) == 1
        assert capsys.readouterr().err == f"error: output {output} is one of the run's inputs\n"
    assert sent == []
    assert {p: p.read_bytes() for p in fixture.rglob("*") if p.is_file()} == before


def test_run_worker_override_still_deterministic(tmp_path):
    outputs = []
    for workers in (1, 4):
        cfg = json.loads((FIXTURE_DIR / "config.json").read_text(encoding="utf-8"))
        for key in ("claims_path", "store_dir", "mock_script_path"):
            cfg[key] = str(FIXTURE_DIR / cfg[key])
        cfg["workers"] = workers
        config = _write_json(tmp_path / f"config{workers}.json", cfg)
        outputs.append(tmp_path / f"pred{workers}.json")
        assert main(["run", "--config", config, "--output", str(outputs[-1])]) == 0
    assert outputs[0].read_bytes() == outputs[1].read_bytes()


def test_run_interrupt_flushes_completed_reports(tmp_path, capsys, monkeypatch):
    config = _minimal_setup(tmp_path, n_claims=3, stores_for=(0, 1, 2))
    config_path = Path(config)
    cfg = json.loads(config_path.read_text(encoding="utf-8"))
    cfg["workers"] = 1
    _write_json(config_path, cfg)

    import zsl_kep.cli as cli_mod
    real_build = cli_mod._build_gateway

    class _Interrupting:
        def __init__(self, inner):
            self._inner = inner

        def complete(self, request, claim_id=None):
            if claim_id == 2:
                raise KeyboardInterrupt
            return self._inner.complete(request, claim_id)

    monkeypatch.setattr(cli_mod, "_build_gateway",
                        lambda c: _Interrupting(real_build(c)))
    assert main(["run", "--config", str(config_path)]) == 130
    assert "interrupted" in capsys.readouterr().err
    pred = json.loads((tmp_path / "pred.json").read_text(encoding="utf-8"))
    assert [row["claim_id"] for row in pred] == [0, 1]


def test_run_summary_counts_overflows_and_rate_limits(tmp_path, capsys):
    evidence = ("EVIDENCE:\nQ1: q?\nA1: a\nTYPE1: Abstractive\nCITE1: 0_0\n\n"
                "JUSTIFICATION: j\n\nVERDICT: Supported")
    script = {"0": [{"error": "rate_limited"}, "PRIMITIVE:\n1. test point",
                    {"error": "context_overflow"}, evidence],
              "1": ["PRIMITIVE:\n1. test point", evidence]}
    config = _minimal_setup(tmp_path, script=script)
    assert main(["run", "--config", config]) == 0
    err = capsys.readouterr().err
    assert "truncated runs: 1\n" in err
    assert "failed claims: 0\ngateway overflows: 1\ngateway rate limits: 1\n" in err


_KEYPOINTS = "PRIMITIVE:\n1. test point"
_EVIDENCE = ("EVIDENCE:\nQ1: q?\nA1: a\nTYPE1: Abstractive\nCITE1: 0_0\n\n"
             "JUSTIFICATION: j\n\nVERDICT: Supported")
_RATE, _OVER, _TRANSPORT, _MALFORMED = ({"error": kind} for kind in (
    "rate_limited", "context_overflow", "transport", "malformed"))
# one claim per script; every entry is used, so a claim's failed gateway
# attempts are exactly its script's faults, in order
FAULT_SCRIPTS = [
    [_KEYPOINTS, _EVIDENCE],
    [_RATE, _KEYPOINTS, _OVER, _EVIDENCE],  # both calls recover
    [_OVER, _RATE, _RATE, _EVIDENCE],  # the key points are lost, the prediction recovers
    [_TRANSPORT, _OVER, _TRANSPORT],  # the prediction fails after a truncation
    [_KEYPOINTS] + [_RATE] * 5,  # the prediction runs out of attempts
    [_MALFORMED] + [_OVER] * 7,  # the overflow persists at the minimum caps
    [_RATE] * 4 + [_KEYPOINTS, _OVER, _RATE, _EVIDENCE],
]


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_gateway_failures_follow_each_claim_whatever_the_workers(tmp_path, capsys, monkeypatch,
                                                                 workers):
    import zsl_kep.cli as cli_mod

    config = _minimal_setup(tmp_path, n_claims=len(FAULT_SCRIPTS),
                            stores_for=range(len(FAULT_SCRIPTS)),
                            script={str(cid): s for cid, s in enumerate(FAULT_SCRIPTS)})
    cfg = json.loads(Path(config).read_text(encoding="utf-8"))
    cfg["workers"] = workers
    _write_json(Path(config), cfg)
    expected = [tuple(e["error"] for e in script if isinstance(e, dict))
                for script in FAULT_SCRIPTS]

    run_cfg = RunConfig.from_file(config)
    gateway = Gateway(MockBackend.from_file(run_cfg.mock_script_path), sleep=lambda s: None)
    reports = list(run_batch(load_claims(run_cfg.claims_path), gateway, run_cfg))
    assert {r.claim_id: r.gateway_failures for r in reports} == dict(enumerate(expected))

    build = cli_mod.Gateway
    monkeypatch.setattr(cli_mod, "Gateway", lambda *a, **kw: build(*a, sleep=lambda s: None, **kw))
    assert main(["run", "--config", config]) == 2
    summary = capsys.readouterr().err.splitlines()[4:6]
    kinds = [kind for failures in expected for kind in failures]
    assert summary == [f"gateway overflows: {kinds.count('context_overflow')}",
                       f"gateway rate limits: {kinds.count('rate_limited')}"]


# Run in a fresh interpreter: claim 0 makes two 3 s gateway calls on a worker
# thread while claim 1 raises KeyboardInterrupt, as Ctrl-C would.
_INTERRUPT_CHILD = """
import sys, time
import zsl_kep.cli as cli
from zsl_kep.llm_gateway import TransportFailure

class SlowGateway:
    def complete(self, request, claim_id=None):
        if claim_id == 0:
            time.sleep(3)
            raise TransportFailure("slow call ended")
        time.sleep(0.2)  # claim 0 is in its first call by now
        print(time.time(), flush=True)
        raise KeyboardInterrupt

cli._build_gateway = lambda cfg: SlowGateway()
sys.exit(cli.main(["run", "--config", sys.argv[1]]))
"""


def test_run_interrupt_exits_without_waiting_for_claims_in_flight(tmp_path):
    config = _minimal_setup(tmp_path)  # two claims on the default four workers
    env = {**os.environ, "PYTHONPATH": str(Path(zsl_kep.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", _INTERRUPT_CHILD, config], env=env,
                          capture_output=True, text=True, timeout=60)
    exited = time.time()
    assert proc.returncode == 130, proc.stderr
    assert "interrupted: flushed 0 completed reports" in proc.stderr
    assert exited - float(proc.stdout.split()[0]) < 2.0


def test_lone_surrogate_in_a_store_costs_nothing(tmp_path, capsys):
    # JSON decodes "\ud800" to a lone surrogate, which UTF-8 cannot encode
    fixture = tmp_path / "e2e"
    shutil.copytree(FIXTURE_DIR, fixture)
    store_path = fixture / "stores" / "0.json"
    text = store_path.read_text(encoding="utf-8")
    store_path.write_text(text.replace("opened to rail", "opened to \\ud800 rail", 1),
                          encoding="utf-8")
    passage = load_store(str(store_path), 0).entries[0].passages[1]
    assert "\ud800" in passage
    out = tmp_path / "pred.json"
    assert main(["run", "--config", str(fixture / "config.json"), "--output", str(out)]) == 0
    assert load_predictions(str(out))[0].evidence[0].scraped_text == passage
    assert main(["score", "--pred", str(out), "--gold", str(fixture / "claims.json")]) == 0
    capsys.readouterr()
    assert main(["inspect", "--config", str(fixture / "config.json"), "--claim", "0",
                 "--no-llm"]) == 0
    assert "opened to \\ud800 rail" in capsys.readouterr().out


def test_score_self_and_report(tmp_path, capsys):
    out = tmp_path / "pred.json"
    report = tmp_path / "scores.json"
    assert main(["run", "--config", E2E_CONFIG, "--output", str(out)]) == 0
    assert main(["score", "--pred", str(out), "--gold", str(FIXTURE_DIR / "claims.json"),
                 "--report", str(report)]) == 0
    err = capsys.readouterr().err
    assert "averitec=1.0000" in err
    payload = json.loads(report.read_text(encoding="utf-8"))
    assert payload["aggregate"]["averitec"] == 1.0
    assert len(payload["per_claim"]) == 4


def test_score_aggregates_are_correctly_rounded_means(tmp_path, capsys):
    out = tmp_path / "pred.json"
    main(["run", "--config", E2E_CONFIG, "--output", str(out)])
    report = tmp_path / "scores.json"
    assert main(["score", "--pred", str(out), "--gold", str(FIXTURE_DIR / "claims.json"),
                 "--report", str(report)]) == 0
    data = json.loads(report.read_text(encoding="utf-8"))
    n = len(data["per_claim"])
    for key in ("q_only", "q_plus_a"):
        assert data["aggregate"][key] == math.fsum(row[key] for row in data["per_claim"]) / n


def test_score_has_no_stemming_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["score", "--pred", "p.json", "--gold", "g.json", "--stemming"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --stemming" in capsys.readouterr().err


def test_score_default_report_path(tmp_path, capsys):
    out = tmp_path / "pred.json"
    main(["run", "--config", E2E_CONFIG, "--output", str(out)])
    capsys.readouterr()
    assert main(["score", "--pred", str(out),
                 "--gold", str(FIXTURE_DIR / "claims.json")]) == 0
    assert (tmp_path / "pred.scores.json").exists()


@pytest.mark.parametrize("report", ["missing/r.json", "."])
def test_score_rejects_unusable_report_before_scoring(tmp_path, capsys, monkeypatch, report):
    import zsl_kep.cli as cli_mod
    out = tmp_path / "pred.json"
    main(["run", "--config", E2E_CONFIG, "--output", str(out)])
    capsys.readouterr()
    scored = []
    monkeypatch.setattr(cli_mod, "score_run", lambda *a, **kw: scored.append(a))
    path = tmp_path / report
    assert main(["score", "--pred", str(out), "--gold", str(FIXTURE_DIR / "claims.json"),
                 "--report", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot write score report to {path}\n"
    assert scored == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pred.json"]


def test_score_rejects_an_empty_report_path_before_scoring(tmp_path, capsys, monkeypatch):
    # an explicit --report "" is refused, not replaced by <pred>.scores.json
    import zsl_kep.cli as cli_mod
    out = tmp_path / "pred.json"
    main(["run", "--config", E2E_CONFIG, "--output", str(out)])
    capsys.readouterr()
    scored = []
    monkeypatch.setattr(cli_mod, "score_run", lambda *a, **kw: scored.append(a))
    monkeypatch.chdir(tmp_path)
    assert main(["score", "--pred", "pred.json", "--gold", str(FIXTURE_DIR / "claims.json"),
                 "--report", ""]) == 1
    assert capsys.readouterr().err == "error: cannot write score report to \n"
    assert scored == []
    assert os.listdir(tmp_path) == ["pred.json"]


def test_score_refuses_a_report_that_names_an_input(tmp_path, capsys, monkeypatch):
    import zsl_kep.cli as cli_mod
    pred = tmp_path / "pred.json"
    main(["run", "--config", E2E_CONFIG, "--output", str(pred)])
    gold = tmp_path / "gold.json"
    shutil.copy(FIXTURE_DIR / "claims.json", gold)
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    scored = []
    monkeypatch.setattr(cli_mod, "score_run", lambda *a, **kw: scored.append(a))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    for report in ("pred.json", "sub/../gold.json", str(gold)):
        assert main(["score", "--pred", str(pred), "--gold", "gold.json",
                     "--report", report]) == 1
        assert capsys.readouterr().err == f"error: score report {report} is one of the inputs\n"
    assert scored == []
    assert {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


def test_score_empty_pred_path_names_no_input(tmp_path, capsys, monkeypatch):
    # "" resolves to the working directory, but names no file, so no report path matches it
    monkeypatch.chdir(tmp_path)
    assert main(["score", "--pred", "", "--gold", str(FIXTURE_DIR / "claims.json"),
                 "--report", "."]) == 1
    assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: ''\n"


def test_score_missing_gold_field(tmp_path, capsys):
    out = tmp_path / "pred.json"
    main(["run", "--config", E2E_CONFIG, "--output", str(out)])
    blind_gold = _write_json(tmp_path / "gold.json",
                             [{"claim": f"c{i}"} for i in range(4)])
    assert main(["score", "--pred", str(out), "--gold", blind_gold]) == 1


@pytest.mark.parametrize("fault", ["twelve_evidence_items", "claim_repeated",
                                   "question_not_a_string", "fractional_claim_id",
                                   "boolean_claim_id"])
def test_score_rejects_malformed_predictions(tmp_path, capsys, fault):
    out = tmp_path / "pred.json"
    main(["run", "--config", E2E_CONFIG, "--output", str(out)])
    rows = json.loads(out.read_text(encoding="utf-8"))
    if fault == "twelve_evidence_items":
        rows[1]["evidence"] = (rows[1]["evidence"] * 12)[:12]
    elif fault == "claim_repeated":
        rows.append(rows[0])
    elif fault == "question_not_a_string":
        rows[1]["evidence"][0]["question"] = 7
    elif fault == "fractional_claim_id":
        rows[0]["claim_id"] = 0.9  # would read as claim 0
    else:
        rows[1]["claim_id"] = True  # would read as claim 1
    _write_json(out, rows)
    capsys.readouterr()
    assert main(["score", "--pred", str(out), "--gold", str(FIXTURE_DIR / "claims.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_inspect_unknown_claim(capsys):
    for claim in ("42", "4", "-1"):  # the fixture holds claims 0-3
        assert main(["inspect", "--config", E2E_CONFIG, "--claim", claim]) == 1
        assert capsys.readouterr().err == f"error: unknown claim id {claim} (file has 4 claims)\n"


def test_inspect_missing_store_names_path(tmp_path, capsys):
    config = _minimal_setup(tmp_path, n_claims=2, stores_for=(0,))
    assert main(["inspect", "--config", config, "--claim", "1"]) == 1
    err = capsys.readouterr().err
    assert f"error: missing knowledge store {tmp_path / 'stores' / '1.json'}" in err


def test_inspect_shows_groups_and_unified_string(capsys):
    assert main(["inspect", "--config", E2E_CONFIG, "--claim", "0"]) == 0
    out = capsys.readouterr().out
    assert "groups: 5" in out  # 3 primitives + 1 combined + claim
    assert "kind=claim cap=70" in out
    assert "unified retrieval string:" in out
    assert "<0_1>" in out


def test_inspect_unified_string_equals_run_prompt(monkeypatch, capsys, tmp_path):
    backends = []

    class RecordingBackend(MockBackend):
        def __init__(self, scripts):
            super().__init__(scripts)
            backends.append(self)

    monkeypatch.setattr("zsl_kep.cli.MockBackend", RecordingBackend)
    assert main(["run", "--config", E2E_CONFIG, "--output", str(tmp_path / "pred.json")]) == 0
    run_backend = backends[0]
    cfg = RunConfig.from_file(E2E_CONFIG)
    library = PromptLibrary.load(cfg.prompt_overrides)
    for record in load_claims(cfg.claims_path):
        capsys.readouterr()
        assert main(["inspect", "--config", E2E_CONFIG, "--claim", str(record.claim_id)]) == 0
        unified = capsys.readouterr().out.split("unified retrieval string:\n", 1)[1]
        _, user = build_prediction_prompt(record.text, unified.removesuffix("\n"), library)
        assert run_backend.calls_for(record.claim_id)[-1].user_message == user


def test_inspect_no_llm(capsys):
    assert main(["inspect", "--config", E2E_CONFIG, "--claim", "0", "--no-llm"]) == 0
    out = capsys.readouterr().out
    assert "keypoint prompt" in out
    assert "groups: 1" in out
    assert "kind=claim cap=70" in out


def test_inspect_no_llm_needs_no_backend(tmp_path, capsys):
    cfg = json.loads((FIXTURE_DIR / "config.json").read_text(encoding="utf-8"))
    for key in ("claims_path", "store_dir", "mock_script_path"):
        cfg[key] = str(FIXTURE_DIR / cfg[key])
    config = _write_json(tmp_path / "config.json", {**cfg, "backend": "http"})
    assert main(["inspect", "--config", config, "--claim", "0", "--no-llm"]) == 0
    assert "groups: 1" in capsys.readouterr().out
    assert main(["inspect", "--config", config, "--claim", "0"]) == 1
    assert "backend=http requires base_url and model_name" in capsys.readouterr().err


def test_inspect_retrieves_once_per_group(capsys, monkeypatch):
    import zsl_kep.cli as cli_mod
    import zsl_kep.pipeline as pipeline_mod
    real_retrieve = pipeline_mod.retrieve
    calls = []

    def counting(index, query, top_k):
        calls.append(query)
        return real_retrieve(index, query, top_k)

    monkeypatch.setattr(pipeline_mod, "retrieve", counting)
    monkeypatch.setattr(cli_mod, "retrieve", counting, raising=False)
    assert main(["inspect", "--config", E2E_CONFIG, "--claim", "3"]) == 0
    out = capsys.readouterr().out
    assert "groups: 7" in out
    assert len(calls) == 7


def test_run_malformed_store_fails_only_its_claim(tmp_path, capsys):
    good = tmp_path / "good.json"
    assert main(["run", "--config", E2E_CONFIG, "--output", str(good)]) == 0
    fixture = tmp_path / "e2e"
    shutil.copytree(FIXTURE_DIR, fixture)
    (fixture / "stores" / "2.json").write_text(
        json.dumps({"url": "u", "url2text": [1]}) + "\n", encoding="utf-8")
    out = tmp_path / "pred.json"
    capsys.readouterr()

    assert main(["run", "--config", str(fixture / "config.json"), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "claims processed: 4" in err and "failed claims: 1" in err
    pred = json.loads(out.read_text(encoding="utf-8"))
    expected = json.loads(good.read_text(encoding="utf-8"))
    assert [row["claim_id"] for row in pred] == [0, 1, 2, 3]
    assert [pred[i] for i in (0, 1, 3)] == [expected[i] for i in (0, 1, 3)]
    assert pred[2]["pred_label"] == "Not Enough Evidence"
    assert "'url2text' must be a string array" in pred[2]["justification"]


@pytest.mark.parametrize("workers", [1, 2])
def test_run_exception_in_one_claim_fails_only_that_claim(tmp_path, capsys, monkeypatch, workers):
    cfg = json.loads((FIXTURE_DIR / "config.json").read_text(encoding="utf-8"))
    for key in ("claims_path", "store_dir", "mock_script_path"):
        cfg[key] = str(FIXTURE_DIR / cfg[key])
    cfg["workers"] = workers
    config = _write_json(tmp_path / "config.json", cfg)
    good, out = tmp_path / "good.json", tmp_path / "pred.json"
    assert main(["run", "--config", config, "--output", str(good)]) == 0
    real_run_claim = pipeline.run_claim

    def run_claim(record, *args):
        if record.claim_id == 1:
            raise RuntimeError("bug in claim 1")
        return real_run_claim(record, *args)

    monkeypatch.setattr(pipeline, "run_claim", run_claim)
    capsys.readouterr()
    assert main(["run", "--config", config, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("claim 1: Traceback (most recent call last):\n")
    assert "RuntimeError: bug in claim 1\n" in err
    assert "claims processed: 4\n" in err and "failed claims: 1\n" in err
    pred = json.loads(out.read_text(encoding="utf-8"))
    expected = json.loads(good.read_text(encoding="utf-8"))
    assert [row["claim_id"] for row in pred] == [0, 1, 2, 3]
    assert [json.dumps(pred[i]) for i in (0, 2, 3)] == [json.dumps(expected[i]) for i in (0, 2, 3)]
    assert pred[1]["pred_label"] == "Not Enough Evidence"
    assert pred[1]["justification"] == ("No verdict could be generated: "
                                        "internal error: RuntimeError: bug in claim 1")


def test_run_non_string_prediction_reply_fails_only_its_claim(tmp_path, capsys):
    good = tmp_path / "good.json"
    assert main(["run", "--config", E2E_CONFIG, "--output", str(good)]) == 0
    fixture = tmp_path / "e2e"
    shutil.copytree(FIXTURE_DIR, fixture)
    script_path = fixture / "mock_script.json"
    script = json.loads(script_path.read_text(encoding="utf-8"))
    script["1"][-1] = {"text": 5}
    script_path.write_text(json.dumps(script), encoding="utf-8")
    out = tmp_path / "pred.json"
    capsys.readouterr()

    assert main(["run", "--config", str(fixture / "config.json"), "--output", str(out)]) == 2
    assert "failed claims: 1" in capsys.readouterr().err
    pred = json.loads(out.read_text(encoding="utf-8"))
    expected = json.loads(good.read_text(encoding="utf-8"))
    assert [pred[i] for i in (0, 2, 3)] == [expected[i] for i in (0, 2, 3)]
    assert pred[1]["pred_label"] == "Not Enough Evidence"
    assert "malformed: reply text is int, not a string" in pred[1]["justification"]


def test_run_over_long_citation_id_costs_only_its_own_field(tmp_path, capsys):
    good = tmp_path / "good.json"
    assert main(["run", "--config", E2E_CONFIG, "--output", str(good)]) == 0
    fixture = tmp_path / "e2e"
    shutil.copytree(FIXTURE_DIR, fixture)
    script_path = fixture / "mock_script.json"
    script = json.loads(script_path.read_text(encoding="utf-8"))
    assert "CITE1: 0_1\n" in script["1"][-1]
    # more digits than int() converts
    script["1"][-1] = script["1"][-1].replace("CITE1: 0_1\n", f"CITE1: {'9' * 4301}_1\n")
    script_path.write_text(json.dumps(script), encoding="utf-8")
    out = tmp_path / "pred.json"
    capsys.readouterr()

    assert main(["run", "--config", str(fixture / "config.json"), "--output", str(out)]) == 0
    err = capsys.readouterr().err
    assert "parse fallbacks: 2" in err and "failed claims: 0" in err
    pred = json.loads(out.read_text(encoding="utf-8"))
    expected = json.loads(good.read_text(encoding="utf-8"))
    assert [pred[i] for i in (0, 2, 3)] == [expected[i] for i in (0, 2, 3)]
    assert pred[1]["pred_label"] == expected[1]["pred_label"]
    assert pred[1]["evidence"][1] == expected[1]["evidence"][1]
    first, was = pred[1]["evidence"][0], expected[1]["evidence"][0]
    assert (first["question"], first["answer"]) == (was["question"], was["answer"])
    # the citation alone fell back, to the top claim-group document
    assert (was["citation_id"], first["citation_id"]) == ("0_1", "3_2")


def test_run_null_url_store_fails_only_its_claim(tmp_path, capsys):
    good = tmp_path / "good.json"
    assert main(["run", "--config", E2E_CONFIG, "--output", str(good)]) == 0
    fixture = tmp_path / "e2e"
    shutil.copytree(FIXTURE_DIR, fixture)
    (fixture / "stores" / "2.json").write_text(
        json.dumps({"url": None, "url2text": ["ridge"]}) + "\n", encoding="utf-8")
    out = tmp_path / "pred.json"
    capsys.readouterr()

    assert main(["run", "--config", str(fixture / "config.json"), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "claims processed: 4" in err and "failed claims: 1" in err
    pred = json.loads(out.read_text(encoding="utf-8"))
    expected = json.loads(good.read_text(encoding="utf-8"))
    assert [pred[i] for i in (0, 1, 3)] == [expected[i] for i in (0, 1, 3)]
    assert pred[2]["pred_label"] == "Not Enough Evidence"
    assert "2.json: line 1 'url' must be a string" in pred[2]["justification"]


def test_run_non_utf8_store_fails_only_its_claim(tmp_path, capsys):
    good = tmp_path / "good.json"
    assert main(["run", "--config", E2E_CONFIG, "--output", str(good)]) == 0
    fixture = tmp_path / "e2e"
    shutil.copytree(FIXTURE_DIR, fixture)
    store = fixture / "stores" / "2.json"
    store.write_bytes(store.read_bytes().replace(b"ridge", b"r\xe9dge", 1))
    out = tmp_path / "pred.json"
    capsys.readouterr()

    assert main(["run", "--config", str(fixture / "config.json"), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "claims processed: 4" in err and "failed claims: 1" in err
    pred = json.loads(out.read_text(encoding="utf-8"))
    expected = json.loads(good.read_text(encoding="utf-8"))
    assert [pred[i] for i in (0, 1, 3)] == [expected[i] for i in (0, 1, 3)]
    assert pred[2]["pred_label"] == "Not Enough Evidence"
    assert "2.json: not UTF-8 text" in pred[2]["justification"]


def test_run_directory_store_fails_only_its_claim(tmp_path, capsys):
    good = tmp_path / "good.json"
    assert main(["run", "--config", E2E_CONFIG, "--output", str(good)]) == 0
    fixture = tmp_path / "e2e"
    shutil.copytree(FIXTURE_DIR, fixture)
    store = fixture / "stores" / "2.json"
    store.unlink()
    store.mkdir()  # present, so not a missing store, but unreadable
    out = tmp_path / "pred.json"
    capsys.readouterr()

    assert main(["run", "--config", str(fixture / "config.json"), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "claims processed: 4" in err and "failed claims: 1" in err
    pred = json.loads(out.read_text(encoding="utf-8"))
    expected = json.loads(good.read_text(encoding="utf-8"))
    assert [row["claim_id"] for row in pred] == [0, 1, 2, 3]
    assert [pred[i] for i in (0, 1, 3)] == [expected[i] for i in (0, 1, 3)]
    assert pred[2]["pred_label"] == "Not Enough Evidence"
    assert "Is a directory" in pred[2]["justification"]


def test_run_latin1_claims_file_exits_1(tmp_path, capsys):
    fixture = tmp_path / "e2e"
    shutil.copytree(FIXTURE_DIR, fixture)
    claims = fixture / "claims.json"
    text = claims.read_text(encoding="utf-8").replace("Hartwell", "Hartw\u00e9ll")
    claims.write_bytes(text.encode("latin-1"))
    assert main(["run", "--config", str(fixture / "config.json"),
                 "--output", str(tmp_path / "pred.json")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "claims.json: not UTF-8 text" in err
    assert not (tmp_path / "pred.json").exists()


# JSON the decoder refuses without a JSONDecodeError: nesting past the recursion
# limit raises RecursionError, and more digits than int() takes a plain ValueError
UNDECODABLE = {"deep": "[" * 100_000, "long_int": '{"n": ' + "9" * 5000 + "}"}


def _e2e_reports(fixture, workers):
    """run_batch's reports on a copy of the e2e fixture, sorted by claim id."""
    cfg = RunConfig.from_file(str(fixture / "config.json"))
    cfg.workers = workers
    gateway = Gateway(MockBackend.from_file(cfg.mock_script_path),
                      max_attempts=cfg.max_attempts, prompt_budget=cfg.prompt_budget)
    return sorted(run_batch(load_claims(cfg.claims_path), gateway, cfg),
                  key=lambda r: r.claim_id)


@pytest.mark.parametrize("payload", sorted(UNDECODABLE))
@pytest.mark.parametrize("workers", [1, 2])
def test_run_batch_undecodable_store_line_fails_only_its_claim(tmp_path, payload, workers):
    fixture = tmp_path / "e2e"
    shutil.copytree(FIXTURE_DIR, fixture)
    expected = _e2e_reports(fixture, workers)
    (fixture / "stores" / "1.json").write_text(UNDECODABLE[payload] + "\n", encoding="utf-8")

    reports = _e2e_reports(fixture, workers)
    assert [r.claim_id for r in reports] == [0, 1, 2, 3]
    assert [reports[i] for i in (0, 2, 3)] == [expected[i] for i in (0, 2, 3)]
    assert reports[1].failed and reports[1].verdict.value == "Not Enough Evidence"
    store = fixture / "stores" / "1.json"
    assert reports[1].justification == (f"No verdict could be generated: {store}: "
                                        "line 1 is not valid JSON")


@pytest.mark.parametrize("workers", [1, 2])
def test_run_batch_exception_in_a_store_load_fails_only_its_claim(capsys, monkeypatch, workers):
    expected = _e2e_reports(FIXTURE_DIR, workers)
    real_load_store = pipeline.load_store

    def load_store(path, claim_id):
        if claim_id == 1:
            raise RuntimeError("bug in store 1")
        return real_load_store(path, claim_id)

    monkeypatch.setattr(pipeline, "load_store", load_store)
    capsys.readouterr()
    reports = _e2e_reports(FIXTURE_DIR, workers)
    err = capsys.readouterr().err
    assert err.startswith("claim 1: Traceback (most recent call last):\n")
    assert err.endswith("RuntimeError: bug in store 1\n")
    assert [reports[i] for i in (0, 2, 3)] == [expected[i] for i in (0, 2, 3)]
    assert reports[1].failed
    assert reports[1].justification == ("No verdict could be generated: "
                                        "internal error: RuntimeError: bug in store 1")


@pytest.mark.parametrize("payload", sorted(UNDECODABLE))
@pytest.mark.parametrize("name", ["config.json", "claims.json", "mock_script.json",
                                  "predictions.json"])
def test_undecodable_input_file_exits_1_with_one_error_line(tmp_path, capsys, name, payload):
    fixture = tmp_path / "e2e"
    shutil.copytree(FIXTURE_DIR, fixture)
    (fixture / name).write_text(UNDECODABLE[payload], encoding="utf-8")
    if name == "predictions.json":
        argv = ["score", "--pred", str(fixture / name), "--gold", str(fixture / "claims.json")]
    else:
        argv = ["run", "--config", str(fixture / "config.json"),
                "--output", str(tmp_path / "pred.json")]
    capsys.readouterr()

    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {fixture / name}: not valid JSON (")
    assert "Traceback" not in err
    assert not (tmp_path / "pred.json").exists()
