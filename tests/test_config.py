import json

import pytest

from zsl_kep.config import RunConfig
from zsl_kep.errors import ConfigError


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

