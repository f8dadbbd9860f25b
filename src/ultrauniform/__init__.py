"""Finite uniform structures in three equivalent representations.

Models uniformities on finite point sets as diagonal entourage bases,
covering bases, and systems of pseudo-metrics, with exact-arithmetic
decision procedures for the non-Archimedean property, conversions between
the representations, clopen separation for finite topologies, and
brute-force sweeps that machine-check the governing laws on enumerated
instances.

The package re-exports nothing: import each name from its submodule
(`ultrauniform.core`, `.uniformity`, `.pseudometric`, `.topology`,
`.oracle`, `.jsonio`), so that a command loads only the layers it runs.
"""

__version__ = "0.1.0"
