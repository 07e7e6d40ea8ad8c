"""Verification and synthesis toolkit for supervisory control of fuzzy
discrete-event systems."""

from .algebra import (
    Semantics,
    format_degree,
    identity,
    inner_sup,
    max_element,
    parse_degree,
)
from .automaton import (
    FuzzyAutomaton,
    generated_degree,
    marked_degree,
    parallel_compose,
    run,
)
from .language import (
    FiniteSupportFuzzyLanguage,
    infimal_prefix_closed_superlanguage,
    is_controllable_wrt,
    prefix_closure,
    supremal_controllable_sublanguage,
)
from .reachability import (
    ComputingTreeNode,
    ReachableStateGraph,
    build_computing_tree,
    build_pair_computing_tree,
    enumerate_pairs,
    enumerate_states,
    graph_to_dot,
    tree_to_dot,
)
from .supervisory import (
    ControllabilityReport,
    EventAttributes,
    ExplicitSupervisor,
    SynthesizedSupervisor,
    check_admissibility,
    check_controllability,
    check_language_controllability,
    check_n_controllability,
    check_nonblocking,
    check_sufficient_condition,
    controlled_generated_degree,
    controlled_marked_degree,
    crisp_active_events,
    synthesize_supervisor,
)

__version__ = "0.1.0"
