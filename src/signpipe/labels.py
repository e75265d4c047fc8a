"""Class label spaces shared across the pipeline.

The landmark classifier covers the 26 letters plus SPACE and DELETE control
gestures. The silhouette classifier covers the letters plus a BLANK rest
class. The shared space is their union in a fixed order, so probability
vectors from either model can be projected without renumbering letters.
"""
from __future__ import annotations

import string

LETTERS: tuple[str, ...] = tuple("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
SPACE = "SPACE"
DELETE = "DELETE"
BLANK = "BLANK"

RFC_CLASSES: tuple[str, ...] = LETTERS + (SPACE, DELETE)
CNN_CLASSES: tuple[str, ...] = LETTERS + (BLANK,)
SHARED_CLASSES: tuple[str, ...] = LETTERS + (SPACE, DELETE, BLANK)
SIGNABLE = frozenset(LETTERS + (" ",))  # the characters synthesis can render
_ASCII_UPPER = str.maketrans(string.ascii_lowercase, string.ascii_uppercase)
_ASCII_SPACE = str.maketrans(string.whitespace, " " * len(string.whitespace))

RFC_INDEX: dict[str, int] = {name: i for i, name in enumerate(RFC_CLASSES)}
CNN_INDEX: dict[str, int] = {name: i for i, name in enumerate(CNN_CLASSES)}
SHARED_INDEX: dict[str, int] = {name: i for i, name in enumerate(SHARED_CLASSES)}


def upper_ascii(text: str) -> str:
    """text with a-z uppercased and every other character kept, so that no
    non-ASCII one becomes signable letters, as str.upper turns ß into SS."""
    return text.translate(_ASCII_UPPER)


def ascii_words(text: str) -> list[str]:
    """text's runs between ASCII whitespace. str.split() would also break at
    non-ASCII spaces such as U+00A0, which a check for A-Z must see."""
    return [w for w in text.translate(_ASCII_SPACE).split(" ") if w]
