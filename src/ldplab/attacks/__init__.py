"""Report-level poisoning attacks against the tree and grid protocols."""

from . import grid, tree
from .grid import *  # noqa: F401,F403
from .tree import *  # noqa: F401,F403

__all__ = [*tree.__all__, *grid.__all__]
