(** Heap table storage.

    Rows live in a growable slot array; deletion leaves a tombstone so row
    identifiers ({!rid}s) stay stable — indexes and exception tables rely
    on that.  The {!mutations} counter records every insert / update /
    delete since creation; the soft-constraint currency model (paper §3.3)
    reads it to bound statistics drift. *)

type rid = int
(** Stable row identifier. *)

type t

val create : Schema.t -> t

val schema : t -> Schema.t
val name : t -> string

val cardinality : t -> int
(** Live rows. *)

val mutations : t -> int
(** Total mutations since creation (the currency anchor). *)

exception Row_error of string
(** Schema violations (arity, type, NOT NULL) and missing rids. *)

val insert : t -> Tuple.t -> rid
(** Insert a conforming copy of the row; raises {!Row_error}.  Constraint
    checking is layered above (see {!Checker} / {!Database}). *)

val get : t -> rid -> Tuple.t option
val get_exn : t -> rid -> Tuple.t

val high_water : t -> rid
(** One past the highest rid ever allocated: every live rid is below it.
    A scan that stops here sees no row inserted after it fixed the
    mark. *)

val delete : t -> rid -> bool
(** [false] when the rid is absent (already deleted). *)

val update : t -> rid -> Tuple.t -> unit
(** Replace a live row; raises {!Row_error}. *)

val restore : t -> rid -> Tuple.t -> unit
(** Re-occupy the tombstoned slot of a previously deleted row with its
    original rid — transaction rollback relies on rid stability.  Raises
    {!Row_error} if the slot was never allocated or is occupied. *)

val place : t -> rid -> Tuple.t -> unit
(** Put a row at an exact rid, allocating slots as needed — the
    rid-faithful insert used by log replay ({!Core.Recovery}), so later
    log records keep referring to the right slots.  Raises {!Row_error}
    if the slot is occupied or the row does not conform. *)

val iteri : t -> f:(rid -> Tuple.t -> unit) -> unit
val iter : t -> f:(Tuple.t -> unit) -> unit
val fold : t -> init:'a -> f:('a -> rid -> Tuple.t -> 'a) -> 'a
val to_list : t -> Tuple.t list
val rids : t -> rid list

val clear : t -> unit
(** Remove every row (counted as mutations). *)

(** {1 Physical sizing}

    The fixed-width page model shared by the cost model and the
    executor's I/O counters. *)

val bytes_per_value : int
val page_size : int
val row_width : t -> int
val rows_per_page : t -> int
val pages : t -> int
