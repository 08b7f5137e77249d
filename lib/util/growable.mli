(** Growable arrays (OCaml 5.1 predates [Dynarray]).

    Used by the netlist builder and the SAT solver, both of which append
    heavily and then iterate. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val get : 'a t -> int -> 'a
(** Raises [Invalid_argument] when the index is out of bounds. *)

val push : 'a t -> 'a -> int
(** [push t x] appends [x] and returns its index. *)

val pop : 'a t -> 'a
(** Removes and returns the last element.  Raises [Invalid_argument] when
    empty. *)

val last : 'a t -> 'a
val to_list : 'a t -> 'a list
