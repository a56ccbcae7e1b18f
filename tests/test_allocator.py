"""The package pins glibc's mmap and trim thresholds at import, and does nothing elsewhere."""

import platform
import types

import pytest

import hda

on_glibc = platform.libc_ver()[0] == "glibc"


@pytest.mark.skipif(not on_glibc, reason="the thresholds are glibc's")
def test_pinning_applies_on_glibc_and_again_when_repeated():
    assert hda._pin_malloc_thresholds() is True
    assert hda._pin_malloc_thresholds() is True


@pytest.mark.skipif(not on_glibc, reason="the thresholds are glibc's")
def test_pinning_sets_the_mmap_then_the_trim_threshold():
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    assert hda._pin_malloc_thresholds(types.SimpleNamespace(mallopt=mallopt)) is True
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]


@pytest.mark.skipif(not on_glibc, reason="the thresholds are glibc's")
def test_a_libc_without_mallopt_or_refusing_it_changes_nothing(capfd):
    refused = []

    def mallopt(param, value):
        refused.append(param)
        return 0

    assert hda._pin_malloc_thresholds(types.SimpleNamespace()) is False
    assert hda._pin_malloc_thresholds(types.SimpleNamespace(mallopt=mallopt)) is False
    assert refused == [-3]  # the trim threshold is not tried once the mmap threshold is refused
    assert capfd.readouterr() == ("", "")


def test_off_glibc_the_libc_is_never_called(monkeypatch):
    def mallopt(param, value):
        raise AssertionError("mallopt called off glibc")

    monkeypatch.setattr(platform, "libc_ver", lambda: ("", ""))
    assert hda._pin_malloc_thresholds(types.SimpleNamespace(mallopt=mallopt)) is False
