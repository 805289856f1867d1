from functools import partial

import pytest

from vincstat import config
from vincstat.errors import MalformedLimit, SizeLimitExceeded, VincstatError
from vincstat.moments import exact_variance_at
from vincstat.patterns import parse_pattern


def test_limits_read_from_environment(monkeypatch):
    monkeypatch.setenv("VINCSTAT_MAX_K", "3")
    with pytest.raises(SizeLimitExceeded):
        exact_variance_at(parse_pattern("1|2|3|4"), 6)
    monkeypatch.setenv("VINCSTAT_LISTING_CAP", "12345")
    assert config.listing_cap() == 12345


@pytest.mark.parametrize(
    "name, raw, read",
    [
        ("VINCSTAT_LISTING_CAP", "1e7", config.listing_cap),
        ("VINCSTAT_MAX_K", "abc", config.max_exact_k),
        ("VINCSTAT_MAX_K", "abc", partial(config.max_exact_k, unsafe=True)),
        ("VINCSTAT_ORACLE_MAX_N", "", config.oracle_max_n),
        ("VINCSTAT_VERTEX_CAP", "10**7", config.vertex_cap),
    ],
)
def test_malformed_limit_raises(monkeypatch, name, raw, read):
    monkeypatch.setenv(name, raw)
    with pytest.raises(MalformedLimit) as info:
        read()
    assert isinstance(info.value, VincstatError)
    assert name in str(info.value) and repr(raw) in str(info.value)


def test_malformed_limit_reaches_library_callers(monkeypatch):
    monkeypatch.setenv("VINCSTAT_MAX_K", "abc")
    with pytest.raises(MalformedLimit, match="VINCSTAT_MAX_K='abc'"):
        exact_variance_at(parse_pattern("2,1"), 5)


@pytest.mark.parametrize("raw", ["-3", "0", "1", "5", "6", "7", "100"])
def test_unsafe_only_ever_raises_the_exact_limit(monkeypatch, raw):
    monkeypatch.setenv("VINCSTAT_MAX_K", raw)
    assert config.max_exact_k() == int(raw)
    assert config.max_exact_k(unsafe=True) == max(int(raw), config.UNSAFE_MAX_EXACT_K)
    assert config.max_exact_k(unsafe=True) >= config.max_exact_k()


def test_max_joint_t_follows_the_exact_limit(monkeypatch):
    assert config.max_joint_t() == 2 * config.DEFAULT_MAX_EXACT_K - 1
    monkeypatch.setenv("VINCSTAT_MAX_K", "7")
    assert config.max_joint_t() == 13
