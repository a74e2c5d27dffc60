"""Graph substrate: synthetic generators, dataset stand-ins, orderings.

The paper evaluates on real social networks from KONECT / Network
Repository; this subpackage provides deterministic synthetic stand-ins
(see DESIGN.md §3) plus the driver-side degree and score orderings and
the DAG orientation that the prepared graph
(``repro.core.clique_listing``) is built from.
"""
