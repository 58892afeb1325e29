(** A small DPLL SAT solver — the independent engine used to cross-check
    BDD-based verification results and to find sensitization witnesses.

    Chronological backtracking without clause learning, branching on
    the lowest-numbered unassigned variable with [true] first, and unit
    propagation over two watched literal positions per clause. *)

type literal = int

val pos : int -> literal
val neg : int -> literal
val var_of : literal -> int
val is_neg : literal -> bool
val negate : literal -> literal

type result = Sat of bool array | Unsat
type t

val create : ?base:t -> int -> t
(** [create nvars] — variables are [0 .. nvars-1]. With [base], the new
    solver starts with [base]'s clauses, shared rather than copied;
    clauses added to either afterwards are not seen by the other. *)

val add_clause : t -> literal list -> unit

val solve : ?budget:Budget.t -> t -> result
(** Complete search. [Sat m] is the {e first} model in variable order,
    [true] before [false]: the model whose assignment, read as a bit
    string from variable 0 with [true] ordered first, comes earliest.
    So the answer depends only on the clause set, not on clause order
    or on how propagation proceeds. [Unsat] when no model exists.

    When a [budget] is supplied it is ticked once per branching
    decision, so an exhausted budget aborts the search with
    [Budget.Budget_exceeded] — the caller must then treat the query as
    undecided, never as [Unsat].

    Counters: [sat.dpll.decisions] and [sat.dpll.conflicts] are fixed by
    the clause set (unit propagation has one fixpoint and finds a
    conflict in any order); [sat.dpll.propagations] may differ between
    propagation orders in branches that end in a conflict. *)

val is_satisfiable : ?budget:Budget.t -> t -> bool
