(** Rows: arrays of values, immutable by convention.

    The representation is transparent because storage (and only storage)
    updates slots in place; everything else treats tuples as values. *)

type t = Value.t array

val make : Value.t list -> t
val arity : t -> int
val get : t -> int -> Value.t
val to_list : t -> Value.t list
val of_array : Value.t array -> t
val copy : t -> t

val equal : t -> t -> bool
(** Pointwise {!Value.equal_total}. *)

val compare : t -> t -> int
(** Lexicographic {!Value.compare_total}; shorter tuples first on ties. *)

val hash : t -> int
(** Consistent with {!equal}: combines {!Value.hash} of each slot. *)

val project : t -> int array -> t
(** [project row positions] extracts the given slots, in order. *)

val concat : t -> t -> t

val conform : Schema.t -> t -> (t, string) result
(** Validate against a schema: arity, types (with int→float widening
    applied in the returned copy), and NOT NULL.  The error is a
    human-readable reason. *)

val pp : Format.formatter -> t -> unit
