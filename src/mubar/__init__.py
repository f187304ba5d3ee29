"""Milnor mu-bar invariants of links, mutation calculus and minimal linkings.

The package root re-exports nothing; import from the submodules
(``mubar.milnor``, ``mubar.links``, ``mubar.mutation``, ``mubar.brackets``,
``mubar.surgery``, ...).
"""
