"""Shared 3-class label encoding: negative=0, uncertain=1, positive=2."""

from __future__ import annotations

from .errors import MalformedRow

LABEL_NAMES = ("negative", "uncertain", "positive")
NEGATIVE, UNCERTAIN, POSITIVE = 0, 1, 2


def label_to_index(name: str) -> int:
    try:
        return LABEL_NAMES.index(name)
    except ValueError:
        raise MalformedRow(f"unknown label {name!r}") from None

