(** Deterministic pseudo-random source.

    Every stochastic step of the flow (benchmark generation, gate selection,
    pattern generation) takes an explicit [Rng.t] so that experiments are
    reproducible from a single integer seed, as required to regenerate the
    paper's tables deterministically. *)

type t

val make : int -> t
(** [make seed] creates an independent generator. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound).  [bound > 0]. *)

val int64 : t -> int64
(** A uniform 64-bit value. *)

val bool : t -> bool
val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val pick_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample : t -> int -> 'a array -> 'a array
(** [sample t k arr] draws [min k (Array.length arr)] distinct elements,
    in random order. *)
