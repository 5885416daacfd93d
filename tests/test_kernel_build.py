"""Building, caching and loading the compiled RK4 kernel, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

from flownet import _rk4

from conftest import DATA

SRC = Path(__file__).resolve().parent.parent / "src"


def _env(cache, path=None):
    env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(cache))
    if path is not None:
        env["PATH"] = str(path)
    return env


def _simulate(tmp_path, cache, path=None):
    return subprocess.run([sys.executable, "-m", "flownet.cli", "simulate",
                           str(DATA / "chain21.json"), "--horizon", "1",
                           "--out", str(tmp_path / "run")],
                          env=_env(cache, path), capture_output=True, text=True)


def test_import_and_load_build_and_load_nothing(tmp_path):
    # set-up as the benchmark times it: ``import flownet`` plus ``load_scenario``
    code = ("import sys, flownet\n"
            "from flownet import _rk4\n"
            "flownet.load_scenario(sys.argv[1])\n"
            "assert _rk4.library.cache_info().currsize == 0, 'the kernel was loaded'\n")
    cache = tmp_path / "cache"
    subprocess.run([sys.executable, "-c", code, str(DATA / "random8.json")],
                   env=_env(cache), check=True)
    assert not cache.exists()


def test_missing_compiler_is_one_error_line_and_a_warm_cache_needs_none(tmp_path):
    cache, no_cc = tmp_path / "cache", tmp_path / "bin"
    no_cc.mkdir()
    cold = _simulate(tmp_path, cache, no_cc)
    assert cold.returncode == 2
    assert cold.stderr.startswith("error: the RK4 kernel needs a C compiler: cannot run 'cc'")
    assert cold.stderr.count("\n") == 1 and "Traceback" not in cold.stderr
    assert not list(cache.rglob("*.so"))  # no library, and no half-written one

    warm = _simulate(tmp_path, cache)  # the caller's PATH, with its compiler
    assert warm.returncode == 0, warm.stderr
    (library,) = cache.glob("flownet/rk4-*.so")
    assert library.name == _rk4.library_path(_rk4.SOURCE.read_bytes()).name
    assert not list(cache.rglob(".rk4-*"))  # the temporary name was moved into place
    built = library.stat().st_mtime_ns

    again = _simulate(tmp_path, cache, no_cc)  # loads the cached library without cc
    assert again.returncode == 0, again.stderr
    assert library.stat().st_mtime_ns == built


def test_cache_dir_follows_xdg(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert _rk4.cache_dir() == tmp_path / "flownet"
    for unset in (None, ""):
        if unset is None:
            monkeypatch.delenv("XDG_CACHE_HOME")
        else:
            monkeypatch.setenv("XDG_CACHE_HOME", unset)
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        assert _rk4.cache_dir() == tmp_path / "home" / ".cache" / "flownet"


def test_library_named_by_source_and_flags(monkeypatch):
    source = _rk4.SOURCE.read_bytes()
    name = _rk4.library_path(source).name
    assert name.startswith("rk4-") and name.endswith(".so") and len(name) == 4 + 64 + 3
    assert _rk4.library_path(source + b"\n").name != name
    monkeypatch.setattr(_rk4, "FLAGS", _rk4.FLAGS + ("-g",))
    assert _rk4.library_path(source).name != name
