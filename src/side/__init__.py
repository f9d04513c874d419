"""Socially informed drought estimation.

Quantifies drought's societal impact from social/news text as weekly
determinant distributions, then jointly forecasts drought severity
(DSCI) and impact with a cross-attention encoder-decoder.
"""
