(** Convenience façade over {!Operators}: run a physical plan and package
    the rows with their column layout. *)

open Rel

type result = {
  columns : string list;
  rows : Tuple.t list;
  counters : Operators.Counters.t;
}

val column_names : Database.t -> Plan.t -> string list

val run : Database.t -> Plan.t -> result

val same_rows : result -> result -> bool
(** Order-insensitive multiset equality — the soundness oracle for the
    rewrite property tests. *)

val pp_result : Format.formatter -> result -> unit
val to_string : result -> string
