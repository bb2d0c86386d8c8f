"""The native RK4 kernel's per-user cache and its fallbacks to Python."""

import math
import os
import shutil

import pytest

from nambu_dyn import native
from nambu_dyn.dynamics import compile_nambu_field
from nambu_dyn.scenarios import (
    PacketSpec,
    hamiltonian_set,
    harmonic_model,
    henon_heiles_model,
    init_nambu_from_packet,
)

HARM3 = hamiltonian_set(harmonic_model())
HH = hamiltonian_set(henon_heiles_model())
HH_Y0 = tuple(
    init_nambu_from_packet(henon_heiles_model(), PacketSpec.make([0.3, -0.2], [0.1, 0.4])).tolist()
)

# 1000 steps from HH_Y0 with no escape stop: rk4(y, dt, n, below).
HH_RUN = (HH_Y0, 1e-3, 1000, -math.inf)

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """Point the kernel cache at a fresh directory, forget the libraries this
    process has loaded, and count compiler runs."""
    path = tmp_path / "cache"
    monkeypatch.setattr(native, "cache_dir", lambda: str(path))
    monkeypatch.setattr(native, "_loaded", {})
    builds = []
    compile_ = native._compile

    def counting(source, out):
        builds.append(out)
        return compile_(source, out)

    monkeypatch.setattr(native, "_compile", counting)
    return path, builds


def _is_native(field):
    return getattr(field.rk4, "native", False)


def _python_field(hset, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(native, "load_rk4", lambda source, dim: None)
        return compile_nambu_field(hset)


@needs_cc
def test_second_build_loads_from_cache_without_compiler(cache):
    path, builds = cache
    first = compile_nambu_field(HH)
    assert _is_native(first) and len(builds) == 1
    assert (path.stat().st_mode & 0o777) == 0o700
    [library] = os.listdir(path)
    assert library.startswith("rk4-") and library.endswith(".so")

    second = compile_nambu_field(HH)
    assert _is_native(second) and len(builds) == 1
    assert second.rk4(*HH_RUN) == first.rk4(*HH_RUN)
    with pytest.raises(ValueError, match="length 8"):
        second.rk4(HH_Y0[:7], 1e-3, 1, -math.inf)


@needs_cc
def test_cached_library_with_other_source_is_rebuilt(cache, monkeypatch):
    path, builds = cache
    compile_nambu_field(HH)
    [hh_library] = os.listdir(path)
    compile_nambu_field(HARM3)
    [harm_library] = set(os.listdir(path)) - {hh_library}
    assert len(builds) == 2
    # Put the harmonic library under the Henon-Heiles name (a new file, so
    # the mapping this process already holds is untouched).
    shutil.copy(path / harm_library, path / "swap")
    os.replace(path / "swap", path / hh_library)
    monkeypatch.setattr(native, "_loaded", {})

    field = compile_nambu_field(HH)
    assert _is_native(field) and len(builds) == 3
    want = _python_field(HH, monkeypatch).rk4(*HH_RUN)
    assert field.rk4(*HH_RUN) == want
    # The stale library stays mapped under the published name, so opening
    # that name again would return it; the rebuild is reused instead.
    again = compile_nambu_field(HH)
    assert _is_native(again) and len(builds) == 3
    assert again.rk4(*HH_RUN) == want


@pytest.mark.parametrize("layout", ["group_writable", "symlink"])
def test_untrusted_cache_gives_python_kernel(cache, tmp_path, monkeypatch, layout):
    path, builds = cache
    if layout == "group_writable":
        path.mkdir()
        path.chmod(0o770)
    else:
        (tmp_path / "elsewhere").mkdir(mode=0o700)
        path.symlink_to(tmp_path / "elsewhere")
    field = compile_nambu_field(HH)
    assert not _is_native(field) and builds == []
    assert os.listdir(path) == []


@needs_cc
def test_missing_compiler_gives_python_kernel_with_identical_results(
    cache, tmp_path, monkeypatch
):
    native_field = compile_nambu_field(HH)
    assert _is_native(native_field)
    monkeypatch.setattr(native, "_loaded", {})
    monkeypatch.setattr(native, "cache_dir", lambda: str(tmp_path / "cold"))
    monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
    field = compile_nambu_field(HH)
    assert not _is_native(field)
    assert field.rk4(*HH_RUN) == native_field.rk4(*HH_RUN)
