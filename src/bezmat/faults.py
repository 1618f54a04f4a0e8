"""Fault-injection switches for negative-path testing.

The library's internal verifications (witness re-checks, oracle
cross-checks) are designed never to fire on valid inputs, which makes
their failure handling untestable by normal means.  This registry lets
tests and the hidden CLI flag flip a named switch so one specific check
deliberately reports failure.  Production code paths only ever call
``active`` — with no switches set, behaviour is unchanged.

Known switch names:
  witness  — the similarity pipeline treats its ``final`` check of W as
             failed, raising InternalAssertion with the instance.
  oracle   — the fraction-field oracle misreports integrality, so the
             self-test's agreement suite records a disagreement.
"""

from __future__ import annotations

_active: set[str] = set()


def activate(name: str) -> None:
    _active.add(name)


def deactivate(name: str) -> None:
    _active.discard(name)


def clear() -> None:
    _active.clear()


def active(name: str) -> bool:
    return name in _active
