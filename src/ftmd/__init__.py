"""Exact minimum-weight fault-tolerant resolving sets on vertex-weighted cographs.

The names below are the documented API. Everything else stays importable
from its module: ``ftmd.graph``, ``ftmd.cotree``, ``ftmd.resolving``,
``ftmd.dp`` and ``ftmd.oracle``.
"""

from .graph import Graph, from_edges
from .cotree import (
    Complement,
    EmptyGraphError,
    Leaf,
    NotCographError,
    Union,
    build_cotree,
    complement_node,
    format_cotree,
    parse_cotree,
    random_cotree,
    realize,
    union_node,
)
from .resolving import cotree_weak_pair, is_fault_tolerant
from .dp import (
    ComponentOutcome,
    Solution,
    solve,
    solve_cotree,
)
from .oracle import oracle_min_ft

__version__ = "0.1.0"

__all__ = [
    "ComponentOutcome",
    "Complement",
    "EmptyGraphError",
    "Graph",
    "Leaf",
    "NotCographError",
    "Solution",
    "Union",
    "build_cotree",
    "complement_node",
    "cotree_weak_pair",
    "format_cotree",
    "from_edges",
    "is_fault_tolerant",
    "oracle_min_ft",
    "parse_cotree",
    "random_cotree",
    "realize",
    "solve",
    "solve_cotree",
    "union_node",
]
