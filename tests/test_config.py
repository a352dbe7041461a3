import json

import pytest

from lsast.config import Config, _coerce, load_config
from lsast.errors import ConfigurationError


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


class TestDefaults:
    def test_fresh_config_values(self):
        config = Config()
        assert config.chat_endpoint == "mock:"
        assert config.k == 3
        assert config.temperature == 0.0
        assert config.embed_dimension == 256
        assert config.parallelism == 1

    def test_no_file_no_env_yields_defaults(self):
        assert load_config(None, env={}) == Config()


class TestFileLoading:
    def test_file_overrides_defaults(self, tmp_path):
        path = write_config(tmp_path, {"k": 7, "chat_model": "local-model",
                                       "temperature": 0.5})
        config = load_config(path)
        assert config.k == 7
        assert config.chat_model == "local-model"
        assert config.temperature == 0.5
        assert config.max_tokens == 2048  # untouched default

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"chat_modle": "oops"})
        with pytest.raises(ConfigurationError) as exc:
            load_config(path)
        assert "chat_modle" in str(exc.value)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(tmp_path / "absent.json")

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_config(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigurationError):
            load_config(path)


class TestSecretsStayOut:
    @pytest.mark.parametrize("key", [
        "api_key", "openai_api_key", "ApiKey", "hacktivity_token",
        "client_secret", "db_password",
    ])
    def test_secret_like_keys_rejected(self, tmp_path, key):
        path = write_config(tmp_path, {key: "sk-oops"})
        with pytest.raises(ConfigurationError) as exc:
            load_config(path)
        message = str(exc.value)
        assert "environment" in message
        assert "sk-oops" not in message  # never echo the value back

    def test_error_names_the_env_vars(self, tmp_path):
        path = write_config(tmp_path, {"api_key": "x"})
        with pytest.raises(ConfigurationError) as exc:
            load_config(path)
        assert "LSAST_API_KEY" in str(exc.value)


class TestEnvironmentOverride:
    def test_env_beats_file(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, {"k": 7})
        monkeypatch.setenv("LSAST_K", "11")
        assert load_config(path).k == 11

    def test_env_coerces_types(self, monkeypatch):
        monkeypatch.setenv("LSAST_TEMPERATURE", "0.25")
        monkeypatch.setenv("LSAST_PARALLELISM", "4")
        monkeypatch.setenv("LSAST_CHAT_MODEL", "m")
        config = load_config(None)
        assert config.temperature == 0.25
        assert config.parallelism == 4
        assert config.chat_model == "m"

    def test_env_bad_int_rejected(self, monkeypatch):
        monkeypatch.setenv("LSAST_K", "three")
        with pytest.raises(ConfigurationError):
            load_config(None)


class TestCoercion:
    def test_bool_is_not_an_int(self, tmp_path):
        path = write_config(tmp_path, {"k": True})
        with pytest.raises(ConfigurationError):
            load_config(path)

    def test_string_int_coerced(self, tmp_path):
        path = write_config(tmp_path, {"k": "5"})
        assert load_config(path).k == 5

    def test_int_accepted_for_float(self, tmp_path):
        path = write_config(tmp_path, {"temperature": 1})
        assert load_config(path).temperature == 1.0

    def test_non_string_rejected_for_string_field(self, tmp_path):
        path = write_config(tmp_path, {"chat_model": 5})
        with pytest.raises(ConfigurationError):
            load_config(path)

    @pytest.mark.parametrize("target, raw, expected", [
        (int, 5, 5), (int, -2, -2), (int, "5", 5), (int, " 7 ", 7), (int, "1_000", 1000),
        (int, "\u0663", 3), (int, "-0", 0),
        (float, 1, 1.0), (float, 0.25, 0.25), (float, "0.25", 0.25), (float, "1e3", 1000.0),
        (float, "nan", float("nan")), (float, "-inf", float("-inf")), (float, "1_0.5", 10.5),
        (float, 10**20, 1e20), (str, "s", "s"), (str, "", ""),
    ])
    def test_coerced_values(self, target, raw, expected):
        # repr tells 1 from 1.0 and compares nan with itself
        assert repr(_coerce("k", raw, target)) == repr(expected)

    @pytest.mark.parametrize("target, raw, message", [
        (int, True, "k must be an integer"),
        (int, False, "k must be an integer"),
        (int, 1.5, "k must be an integer, got float"),
        (int, 2.0, "k must be an integer, got float"),
        (int, "1.5", "k must be an integer, got '1.5'"),
        (int, "three", "k must be an integer, got 'three'"),
        (int, "", "k must be an integer, got ''"),
        (int, None, "k must be an integer, got NoneType"),
        (int, [1], "k must be an integer, got list"),
        (int, {"a": 1}, "k must be an integer, got dict"),
        (float, True, "k must be a number"),
        (float, "x", "k must be a number, got 'x'"),
        (float, "", "k must be a number, got ''"),
        (float, None, "k must be a number, got NoneType"),
        (float, [0.5], "k must be a number, got list"),
        (str, 5, "k must be a string, got int"),
        (str, None, "k must be a string, got NoneType"),
        (bool, True, "k has unsupported type"),
        (list, [], "k has unsupported type"),
    ])
    def test_coercion_errors(self, target, raw, message):
        with pytest.raises(ConfigurationError) as exc:
            _coerce("k", raw, target)
        assert str(exc.value) == message


class TestValidation:
    @pytest.mark.parametrize("payload", [
        {"k": 0},
        {"k": -3},
        {"max_tokens": 0},
        {"parallelism": 0},
        {"temperature": -0.1},
        {"retries": -1},
        {"embed_dimension": 0},
        {"scanner_timeout": 0},
        {"line_budget": 0},
        {"prompt_char_budget": 0},
    ])
    def test_out_of_range_rejected(self, tmp_path, payload):
        path = write_config(tmp_path, payload)
        with pytest.raises(ConfigurationError):
            load_config(path)

    @pytest.mark.parametrize("key", ["temperature", "scanner_timeout"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_rejected_from_file(self, tmp_path, key, value):
        path = write_config(tmp_path, {key: float(value)})
        with pytest.raises(ConfigurationError, match=f"^{key} must be finite"):
            load_config(path)

    @pytest.mark.parametrize("key", ["temperature", "scanner_timeout"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_rejected_from_env(self, key, value):
        with pytest.raises(ConfigurationError, match=f"^{key} must be finite"):
            load_config(None, env={f"LSAST_{key.upper()}": value})
