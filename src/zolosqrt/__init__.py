"""Principal matrix square roots via Zolotarev rational minimax iterations.

The package couples an elliptic-function kernel (Landen ladders, Carlson
RF, Jacobi sn/cn/dn) to partial-fraction iteration steps for A^(1/2) and
A^(-1/2), alongside Pade and Denman-Beavers comparators, scalar
convergence analysis on the slit annulus, and a benchmark corpus.

Import names from their modules; each module's ``__all__`` declares them.
"""

__version__ = "0.1.0"
