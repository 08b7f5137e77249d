(** Reduced ordered binary decision diagrams with hash-consing.

    Used for formal equivalence checking of protected-vs-original circuits
    (combinational cones) and as an executable specification the simulator
    and SAT attack are tested against.  Variables are integers ordered by
    their natural order. *)

type manager
type t

val manager : ?cache_size:int -> unit -> manager
(** A fresh node table.  Nodes from different managers must not be mixed;
    doing so raises [Invalid_argument]. *)

val zero : manager -> t
val one : manager -> t
val var : manager -> int -> t
(** [var m i] with [i >= 0]. *)

val nvar : manager -> int -> t
(** Complement of [var]. *)

val lnot : manager -> t -> t
val land_ : manager -> t -> t -> t
val lor_ : manager -> t -> t -> t
val lxor_ : manager -> t -> t -> t

val land_list : manager -> t list -> t
val lor_list : manager -> t list -> t
val lxor_list : manager -> t list -> t

val restrict : manager -> t -> int -> bool -> t
(** Cofactor with respect to a variable. *)

val equal : t -> t -> bool
(** Constant-time thanks to hash-consing (within one manager). *)

val is_zero : manager -> t -> bool
val is_one : manager -> t -> bool

val eval : t -> (int -> bool) -> bool
(** Evaluate under an assignment. *)

val sat_count : t -> nvars:int -> float
(** Number of satisfying assignments over [nvars] variables. *)

val any_sat : t -> (int * bool) list option
(** Some partial satisfying assignment (variables not mentioned are
    irrelevant), or [None] for the zero BDD. *)

val size : t -> int
(** Number of distinct internal nodes reachable from [t]. *)

val node_count : manager -> int
(** Total nodes allocated in the manager (monitoring / tests). *)

val support : t -> int list
(** Sorted list of variables the function depends on. *)

val of_truth : manager -> Truth.t -> vars:int array -> t
(** Build the BDD of a truth table applied to the given variables
    ([vars.(k)] is the BDD variable feeding input [k]). *)

val to_truth : t -> vars:int array -> Truth.t
(** Tabulate over the listed variables; all support variables of [t] must
    appear in [vars].  Raises [Invalid_argument] otherwise. *)
