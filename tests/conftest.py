"""Shared test fixtures and the acceptance summary hook."""

import collections
import sys

import pytest


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "acceptance_lines", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def acceptance_lines(request):
    """Accumulates one summary line per acceptance criterion; printed in
    the terminal summary block after the test run."""
    request.config.acceptance_lines = lines = []
    return lines


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls((module, attribute), ...) wraps each library function
    in a counter, rebinding every ``bezmat`` module's reference to it so
    calls between modules are seen; returns the Counter, keyed by
    attribute name.  An attribute ``Class.method`` is rebound on its
    class, which every caller reaches."""
    counts = collections.Counter()

    def install(*targets):
        for modname, attr in targets:
            cls_name, _, attr = attr.rpartition(".")
            owner = sys.modules[modname]
            if cls_name:
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)

            def counted(*args, _attr=attr, _fn=original, **kwargs):
                counts[_attr] += 1
                return _fn(*args, **kwargs)

            if cls_name:
                monkeypatch.setattr(owner, attr, counted)
                continue
            for name, mod in list(sys.modules.items()):
                if name == "bezmat" or name.startswith("bezmat."):
                    for binding, value in list(vars(mod).items()):
                        if value is original:
                            monkeypatch.setattr(mod, binding, counted)
        return counts

    return install
