"""Desk-scale sign language translation: gestures in, gesture video out.

Two recognizers (a random forest over hand landmarks and a small CNN over
binarized silhouettes) vote frame by frame; stable runs decode to
characters, a lexicon-driven corrector repairs the text, and the result is
rendered back as a 60 FPS gesture sequence.
"""
from .labels import (
    BLANK,
    CNN_CLASSES,
    DELETE,
    LETTERS,
    RFC_CLASSES,
    SHARED_CLASSES,
    SPACE,
)
from .landmarks import (
    N_FEATURES,
    N_POINTS,
    LandmarkFrame,
    flatten,
    unflatten,
)
from .rng import substream

__version__ = "0.1.0"

__all__ = [
    "BLANK",
    "CNN_CLASSES",
    "DELETE",
    "LETTERS",
    "LandmarkFrame",
    "N_FEATURES",
    "N_POINTS",
    "RFC_CLASSES",
    "SHARED_CLASSES",
    "SPACE",
    "flatten",
    "substream",
    "unflatten",
    "__version__",
]
