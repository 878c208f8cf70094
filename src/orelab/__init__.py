"""orelab: an exact laboratory for 5-critical graphs.

Constructs, recognizes, and audits 5-critical graphs: Ore compositions
and their recognition, weighted clique packings, exact potentials,
critical extensions, collapsible subsets, and discharging arithmetic.
All arithmetic is integer-exact; every verifier reports machine-parseable
CHECK lines.

The names exported here are the ones README.md documents; everything else
is imported from its submodule.
"""

from .constructions import named_graph
from .graph_core import Graph, InvariantViolation, graph_from_graph6, graph_to_graph6
from .ore import enumerate_5_ore, is_5_ore, ore_compose, recipe_to_text
from .packing import t_number
from .potential import Facts, critical_extension, p_ky, potential

__all__ = [
    "Facts",
    "Graph",
    "InvariantViolation",
    "critical_extension",
    "enumerate_5_ore",
    "graph_from_graph6",
    "graph_to_graph6",
    "is_5_ore",
    "named_graph",
    "ore_compose",
    "p_ky",
    "potential",
    "recipe_to_text",
    "t_number",
]
