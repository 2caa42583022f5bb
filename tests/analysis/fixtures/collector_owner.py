"""Fixture: one collector-owned-by-engine violation (a second gc switch)."""

from gc import freeze


def settle() -> None:
    freeze()
