"""Frozen test oracles: simple, slow reference implementations that
the shipped code is compared against, bit for bit."""
