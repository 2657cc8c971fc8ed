import inspect
import json

import pytest

from zsl_kep.bm25 import build_index
from zsl_kep.config import ConfigError, RunConfig
from zsl_kep.corpus import MalformedInput
from zsl_kep.llm_gateway import ChatRequest, Gateway


def _load(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return RunConfig.from_file(path)


@pytest.mark.parametrize("payload", [
    {"workers": True},                  # bool in an int field
    {"k1": False},                      # bool in a float field
    {"base_url": True},                 # bool in a str field
    {"k1": "1.2"},                      # string in a float field
    {"workers": 2.0},                   # float in an int field
    {"prompt_overrides": ["keypoint_user.txt"]},  # non-object overrides
    {"claims_path": 5},                 # non-string path
    {"store_dir": None},
    {"prompt_overrides": {"keypoint_user": 5}},  # non-string template path
])
def test_from_file_rejects_wrong_types(tmp_path, payload):
    with pytest.raises(ConfigError):
        _load(tmp_path, payload)


def test_from_file_accepts_int_in_float_field(tmp_path):
    cfg = _load(tmp_path, {"k1": 2, "b": 1, "top_p": 1})
    assert (cfg.k1, cfg.b, cfg.top_p) == (2, 1, 1)


_VALID = {"claims_path": "claims.json", "store_dir": "stores", "backend": "mock",
          "mock_script_path": "mock_script.json"}


@pytest.mark.parametrize("changes, message", [
    ({"claims_path": ""}, "claims_path is required"),
    ({"store_dir": ""}, "store_dir is required"),
    ({"backend": "http", "model_name": "m"}, "backend=http requires base_url and model_name"),
    ({"backend": "http", "base_url": "http://h"}, "backend=http requires base_url"),
    ({"mock_script_path": ""}, "backend=mock requires mock_script_path"),
    ({"claim_top_k": -1, "truncate_claim": 1}, "claim_top_k and keypoint_top_k must be >= 0"),
    ({"keypoint_top_k": -1, "truncate_keypoint": 1}, "keypoint_top_k must be >= 0"),
    ({"truncate_keypoint": 13}, r"truncate_keypoint \(13\) must not exceed keypoint_top_k"),
    ({"truncate_claim": 0}, "truncate_claim and truncate_keypoint must be >= 1"),
    ({"truncate_keypoint": 0}, "truncate_claim and truncate_keypoint must be >= 1"),
    ({"k1": -0.1}, "k1 must be >= 0"),
    ({"b": -0.1}, r"b must be in \[0, 1\]"),
    ({"b": 1.5}, r"b must be in \[0, 1\]"),
    ({"temperature": -0.5}, "temperature must be >= 0"),
    ({"top_p": 0}, r"top_p must be in \(0, 1\]"),
    ({"top_p": 1.2}, r"top_p must be in \(0, 1\]"),
    ({"max_tokens_keypoints": 0}, "max token limits must be positive"),
    ({"max_tokens_prediction": -1}, "max token limits must be positive"),
    ({"workers": 0}, "workers must be >= 1"),
    ({"max_attempts": 0}, "max_attempts must be >= 1"),
    ({"prompt_overrides": {"verdict_user": "v.txt"}}, "unknown prompt override 'verdict_user'"),
    ({"k1": float("nan")}, "k1 must be >= 0"),  # JSON's NaN
    ({"k1": float("inf")}, "k1 must be finite"),  # JSON's Infinity
    ({"temperature": float("nan")}, "temperature must be finite"),
    ({"temperature": float("inf")}, "temperature must be finite"),
])
def test_validate_rejects_out_of_range_settings(tmp_path, changes, message):
    cfg = _load(tmp_path, {**_VALID, **changes})
    with pytest.raises(ConfigError, match=message):
        cfg.validate()


_HTTP = {**_VALID, "backend": "http", "model_name": "m"}


@pytest.mark.parametrize("base_url", ["localhost:8000/v1", "ftp://h/v1", "file:///tmp", "http:/h"])
def test_validate_rejects_a_base_url_that_is_not_http(tmp_path, base_url):
    cfg = _load(tmp_path, {**_HTTP, "base_url": base_url})
    with pytest.raises(ConfigError, match="base_url must be an http:// or https:// URL"):
        cfg.validate()


@pytest.mark.parametrize("base_url", ["http://h/v1", "https://h", "HTTPS://h", "Http://h"])
def test_validate_accepts_an_http_or_https_base_url_in_any_case(tmp_path, base_url):
    _load(tmp_path, {**_HTTP, "base_url": base_url}).validate()


def test_validate_without_backend_skips_backend_checks(tmp_path):
    _load(tmp_path, _VALID).validate()
    cfg = _load(tmp_path, {**_VALID, "backend": "", "mock_script_path": ""})
    cfg.validate(require_backend=False)
    with pytest.raises(ConfigError, match="backend must be 'http' or 'mock'"):
        cfg.validate()


def test_from_file_rejects_non_object(tmp_path):
    with pytest.raises(MalformedInput, match="config must be a JSON object"):
        _load(tmp_path, [_VALID])


def test_unknown_keyword_is_a_type_error():
    with pytest.raises(TypeError, match="unknown"):
        RunConfig(unknown=1)


@pytest.mark.parametrize("func, names", [(build_index, ("k1", "b")),
                                         (ChatRequest, ("temperature", "top_p")),
                                         (Gateway, ("max_attempts", "prompt_budget"))])
def test_signature_defaults_agree_with_the_run_config(func, names):
    # RunConfig is the one source of the operating point: a default that the
    # code taking a setting declares says the same
    params = inspect.signature(func).parameters
    assert {name: params[name].default for name in names} == {
        name: getattr(RunConfig(), name) for name in names}
