(** Reduced ordered BDDs. Handles are valid only with the manager that
    created them; equal handles denote equal functions.

    A manager is a plain single-domain structure (flat node arrays, an
    open-addressing unique table, a lossy ite cache). It may move
    between domains, but two domains must never use it at the same
    time: callers that share one (the serve daemon's cached eco
    baselines) serialize every use behind a mutex. *)

type t = private int
type man

val bfalse : t
val btrue : t

val create : ?cache_bits:int -> nvars:int -> unit -> man
(** [cache_bits] (1 .. 18) pins the ite computed-table to
    [2^cache_bits] entries and disables its growth — useful for
    stress-testing eviction. The default is an adaptive cache that
    starts at 2^14 entries and doubles with the unique table up to a
    ceiling of 2^18. *)

val nvars : man -> int
val num_nodes : man -> int
(** Total nodes allocated in the manager (a growth diagnostic). *)

val unique_capacity : man -> int
(** Slots in the open-addressing unique table (a power of two). *)

val cache_capacity : man -> int
(** Entries in the direct-mapped ite computed-table (a power of two). *)

val heap_words : man -> int
(** Words of heap the manager holds: 3 × node capacity + unique
    capacity + 3 × cache capacity. *)

val set_budget : man -> Budget.t -> unit
(** Govern this manager: node allocation checks the node quota and each
    [ite] call ticks the operation/deadline/cancellation budget, raising
    [Budget.Budget_exceeded] on exhaustion. The default is
    [Budget.unlimited], under which every check is a single
    physical-equality test. *)

val budget : man -> Budget.t

val clear_caches : man -> unit
(** Drop every ite computed-table entry in O(1) (generation bump). The
    node store and unique table are untouched; results of subsequent
    operations are unchanged — only their cost. *)

val var : man -> int -> t
val nvar : man -> int -> t

val var_of : man -> t -> int
val low_of : man -> t -> t
val high_of : man -> t -> t
val is_terminal : t -> bool

val ite : man -> t -> t -> t -> t
val bnot : man -> t -> t
val band : man -> t -> t -> t
val bor : man -> t -> t -> t
val bxor : man -> t -> t -> t
val bnand : man -> t -> t -> t
val bnor : man -> t -> t -> t
val bxnor : man -> t -> t -> t
val bimply : man -> t -> t -> t
val band_list : man -> t list -> t
val bor_list : man -> t list -> t

val eval : man -> t -> bool array -> bool

val eval_vec : man -> t -> int array -> int
(** Bit-parallel evaluation: word [i] of the argument packs variable
    [i] across up to 62 patterns, one per bit; the result packs the
    function across the same patterns (one memoized DAG walk instead
    of a per-pattern descent). Bits above the patterns supplied are
    unspecified — mask the result. *)

val iter_nodes : man -> (t -> int -> t -> t -> unit) -> unit
(** [iter_nodes man f] calls [f handle var low high] for every interned
    (non-terminal) node, in handle order. *)

val size : man -> t -> int
(** Nodes reachable from the root, terminals included. *)

val support : man -> t -> bool array

val satcount : man -> t -> Extfloat.t
(** Number of satisfying assignments over all manager variables. *)

val any_sat : man -> t -> (int * bool) list option
val sample_sat : man -> t -> rand_float:(unit -> float) -> bool array option
(** Uniform random minterm of the function, or [None] if unsatisfiable. *)

val exists : man -> bool array -> t -> t
val forall : man -> bool array -> t -> t
val restrict : man -> t -> int -> bool -> t
val compose_vec : man -> t -> t array -> t

val cube_with : man -> Logic2.Cube.t -> t array -> t
(** The cube with its variable [v] standing for the function
    [inputs.(v)] — i.e. the cube evaluated on arbitrary signals. *)

val cover_with : man -> Logic2.Cover.t -> t array -> t
val of_cube : man -> Logic2.Cube.t -> t
val of_cover : man -> Logic2.Cover.t -> t

(** {1 Cross-manager transport} *)

type dag = int array * int array * int array * int
(** [(vars, lows, highs, root)]: a postorder DAG with terminal ids 0/1
    and internal node [i] at id [i + 2]; children precede parents. It
    depends only on the function, never on handle numbering — the
    ["emask-eco/1"] persistence format and a canonical cross-manager
    comparison. *)

val export : man -> t -> dag
val import : man -> dag -> t
(** [import m (export m' f)] is [f]'s function in [m]. *)
