"""Desk-scale sign language translation: gestures in, gesture video out.

Two recognizers (a random forest over hand landmarks and a small CNN over
binarized silhouettes) vote frame by frame; stable runs decode to
characters, a lexicon-driven corrector repairs the text, and the result is
rendered back as a 60 FPS gesture sequence.
"""
__version__ = "0.1.0"
