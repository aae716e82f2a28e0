"""Hot-loop kernels: the Burg lattice recursion, streamed order by order."""
from mesa._kernels._burg_py import burg_lattice

__all__ = ["burg_lattice"]
