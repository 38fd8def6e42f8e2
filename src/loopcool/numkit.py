"""numpy's own solve, eigvals and kron under the three names the benchmark traces.

No library module uses this one.  `perfbench/tracing.py` wraps `solve_linear`,
`eigenvalues` and `kron` by name, so the names stay until its metric refresh
(ROADMAP item 1), which deletes this module.
"""

from numpy import kron
from numpy.linalg import eigvals as eigenvalues, solve as solve_linear

__all__ = ["eigenvalues", "kron", "solve_linear"]
