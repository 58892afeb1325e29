(** Technology-independent Boolean networks: DAGs of nodes carrying SOP
    local functions over their fanins. Networks are acyclic by
    construction — fanins must exist before a node is added, and
    construction order is a topological order. *)

type signal = int
type node = { fanins : signal array; func : Logic2.Cover.t }
type t

val create : unit -> t
val num_signals : t -> int

val add_input : t -> string -> signal
val add_node : t -> string -> fanins:signal array -> func:Logic2.Cover.t -> signal
(** The function's variable [i] refers to [fanins.(i)]. *)

val mark_output : t -> ?name:string -> signal -> unit

val find : t -> string -> signal option
val name_of : t -> signal -> string
val node_of : t -> signal -> node option
val is_input : t -> signal -> bool
val fanins : t -> signal -> signal array
val func : t -> signal -> Logic2.Cover.t

val inputs : t -> signal array
val outputs : t -> (string * signal) array
val output_signals : t -> signal array
val input_positions : t -> int array
(** Maps each input signal to its primary-input position (-1 otherwise). *)

val topo_order : t -> signal array
val fanouts : t -> signal list array
val cone : t -> signal list -> bool array
(** Transitive fanin membership (roots included). *)

val num_nodes : t -> int
val num_literals : t -> int

val eval : t -> bool array -> bool array
(** All signal values for a primary-input assignment (by PI position). *)

val eval_outputs : t -> bool array -> bool array

val to_bdds : ?budget:Budget.t -> t -> Bdd.man * Bdd.t array
(** Global BDDs per signal; BDD variable [i] is the i-th primary input.
    The fresh manager is governed by [budget] (default
    [Budget.unlimited]): construction itself can raise
    [Budget.Budget_exceeded] on adversarial cone blow-up. *)

val extract_cone : t -> string list -> t
(** A fresh network keeping only the fanin cones of the named outputs. *)

val equivalent : t -> t -> bool
(** BDD-based combinational equivalence, matching inputs/outputs by name. *)

val pp : Format.formatter -> t -> unit
