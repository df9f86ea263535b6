(** Domain constraints: per-column min/max ranges (Sybase's built-in
    "soft constraint" class, paper §2) and small value sets, expressed as
    CHECK predicates so the generic rewrite machinery can use them. *)

open Rel

type range_sc = { table : string; column : string; lo : Value.t; hi : Value.t }

type value_set_sc = { table : string; column : string; values : Value.t list }

val mine_range : Table.t -> column:string -> range_sc option
(** [None] when the column is entirely null (or the table empty). *)

val mine_value_set :
  ?max_values:int -> Table.t -> column:string -> value_set_sc option
(** [None] when the column has more than [max_values] distinct values. *)

val range_to_check : range_sc -> Expr.pred
val value_set_to_check : value_set_sc -> Expr.pred
