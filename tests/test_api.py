"""The stable facade (repro.api) and the one-dataclass cache config.

``repro.api`` is the supported import surface: every ``__all__`` name
must resolve, and :func:`repro.api.run_experiment` must behave like
the CLI.  :class:`repro.config.CacheConfig` is a plain value selecting
the result cache — the tests pin that passing one changes nothing in
the process.
"""

import os

import pytest

from repro import api
from repro.config import CacheConfig, default_cache_dir


@pytest.fixture(autouse=True)
def _isolate_cache_dir(monkeypatch):
    """Run every test with the default cache directory unset."""
    monkeypatch.delenv("MIRAGE_CACHE_DIR", raising=False)


class TestFacade:
    def test_every_export_resolves(self):
        for name in api.__all__:
            assert hasattr(api, name), name

    def test_run_experiment_matches_cli_driver(self):
        result = api.run_experiment("fig6", quick=True)
        assert isinstance(result, dict) and result

    def test_run_experiment_rejects_unknown_names(self):
        with pytest.raises(KeyError, match="fig99"):
            api.run_experiment("fig99")

    def test_run_experiment_threads_cache_config(self, tmp_path):
        cache = CacheConfig(cache_dir=tmp_path / "cache",
                            use_result_cache=True)
        api.run_experiment("fig12", cache=cache)
        assert any((tmp_path / "cache").rglob("*.json"))

    def test_run_experiment_forwards_overrides(self):
        result = api.run_experiment("fig7", quick=True, n_mixes=2)
        assert result["rows"]


class TestCacheConfig:
    def test_run_experiment_leaves_the_environment_alone(self, tmp_path):
        # A library call with an explicit cache_dir must not leak it
        # into the process: a later default config still roots at the
        # default directory, not at the earlier call's.
        home = default_cache_dir()
        cache = CacheConfig(cache_dir=tmp_path / "a")
        api.run_experiment("fig6", quick=True, cache=cache)
        assert "MIRAGE_CACHE_DIR" not in os.environ
        assert CacheConfig().result_cache().root == home

    def test_result_cache_off_means_none(self, tmp_path):
        assert CacheConfig(use_result_cache=False).result_cache() is None
        cache = CacheConfig(cache_dir=tmp_path).result_cache()
        assert cache is not None
        assert cache.root == tmp_path
