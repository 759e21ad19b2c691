"""Desk-scale lab for realizable continual linear regression under random orderings.

The package exports nothing but ``__version__``: callers import its modules
(``from contreg import harness``)."""

__version__ = "0.1.0"
