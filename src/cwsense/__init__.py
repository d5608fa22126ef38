"""Deterministic compressed-sensing matrices from constant-weight codes.

The library builds binary and ternary constant-weight codes (greedy
search, moment buckets, Steiner triple systems, affine planes, spreads
of finite-field subspaces), turns them into sparse {-1,0,1} measurement
matrices, certifies mutual coherence with exact rational arithmetic,
and runs seeded orthogonal matching pursuit experiments against the
coherence-based recovery guarantee.
"""

__version__ = "0.1.0"
