(** Column-difference bands as the paper's running example (§4.4) states
    them: "ship_date is between order_date and three weeks later", i.e.
    [0 ≤ ship_date − order_date ≤ 21] for ~99% of rows.  For a column pair
    the tightest [d_min, d_max] interval on [col_hi − col_lo] at each
    requested confidence.  The mining is {!Band.mine}'s difference shape;
    this module keeps the record a mined difference band is installed
    from, which the soft-constraint catalog stores as its check. *)

type band = { confidence : float; d_min : float; d_max : float }

type t = {
  table : string;
  col_hi : string;  (** the constrained expression is [col_hi − col_lo] *)
  col_lo : string;
  rows : int;
  bands : band list;  (** descending confidence *)
}

val mine :
  ?confidences:float list -> ?min_rows:int -> Rel.Table.t -> col_hi:string ->
  col_lo:string -> t option
(** [None] on incompatible column types or too few rows. *)

val to_check_pred : t -> band -> Rel.Expr.pred
(** [CHECK (col_hi − col_lo BETWEEN d_min AND d_max)], with exact bounds
    ({!Band.to_pred}). *)

val band_with : t -> confidence:float -> band option
(** The narrowest band whose confidence meets the request. *)

val pp : Format.formatter -> t -> unit
