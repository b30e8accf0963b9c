"""Exact invariants of the rank filtration of matrix-algebra mapping spectra.

Subpackages by task: ``combinat`` for summand indexing, ``orbitspace``
for unitary orbit descriptors and the Molien engine, ``cartan`` for the
Koszul-model engine and the dual-engine dispatcher, ``decomp`` for
decomposition complexes and the cube verification, ``spectra`` for
per-(k, l) filtration reports, and ``cli`` for the command line.
"""

from . import cartan, combinat, decomp, orbitspace, spectra  # noqa: F401

__version__ = "0.1.0"
