"""Link-level simulator for multiplexed memory-assisted entanglement swapping.

Three mutually validating layers: closed-form expressions for retrieval,
cross-correlation, visibility, suppression and concurrence (analytic);
a truncated number-state engine that builds the heralded four-memory state
in closed form and pulls every later click back onto the memories (fock);
and a seeded Monte-Carlo of the whole multiplexed protocol, batched over
counter-based random streams (protocol).  The cli module exposes them as
commands.  Import the layer you need (``from dlcz_swap import analytic,
fock``): the package itself exports only ``__version__``, so importing the
closed forms or the parameters does not load numpy.
"""

from ._version import __version__

__all__ = ["__version__"]
