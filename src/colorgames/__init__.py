"""Colored graph games: balanced, bounded-difference and
fixed-frequency infinite paths, their two-player game versions, witness
synthesis, and the CNF / scheduler fixture generators."""

from .arena import (ArenaError, ColoredArena, ContractError, DiffMatrix,
                    Edge, FinitePath, FrequencyVector, Goal, Node, ParseError,
                    RawArena, ValidationError, color_counts, desugar_uncolored,
                    diff_matrix, load_arena, load_raw_arena,
                    prefix_frequencies, serialize_arena)
from .games import (GameResult, MemorylessStrategy, StrategyBudgetError,
                    count_strategies, decide_winner, enumerate_strategies,
                    graph_decide, prune)
from .graphs import (Circulation, GraphDecision, InternalCheckError, LoopSet,
                     build_color_limit_system, decide_balanced_path,
                     decide_bounded_path, decide_frequency_path,
                     decompose_circulation, edge_components, eulerian_circuit,
                     is_zero_diff_cycle, loop_ratio_matches)
from .lp import (Constraint, FeasibilityResult, LinearSystem, integer_scale,
                 solve_feasibility)
from .reductions import (CnfFormula, DimacsError, SchedulerPolicy,
                         SchedulerRun, cnf_to_arena, cnf_to_raw_arena,
                         parse_dimacs, scheduler_arena,
                         simulate_scheduler_policy, tautology_bruteforce)
from .synth import (PathSchedule, PathStream, bounded_witness_stream,
                    build_schedule, convergence_profile, max_abs_diff,
                    measure_convergence, stream)

__version__ = "0.1.0"
