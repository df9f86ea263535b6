(** Per-column catalog statistics, matching the classes the paper lists in
    §5: "the number of distinct values, high and low values, frequency and
    histogram statistics". *)

open Rel

type frequent = { value : Value.t; count : int }

type t = {
  column : string;
  row_count : int;  (** rows inspected *)
  null_count : int;
  distinct : int;  (** among non-null values *)
  low : Value.t option;
  high : Value.t option;
  frequent : frequent list;  (** top-k most frequent non-null values *)
  histogram : Histogram.t;
}

val build :
  ?histogram_buckets:int -> ?frequent_k:int -> column:string ->
  Value.t array -> t
(** Statistics over one column's values (nulls included; the array is not
    modified).  The non-null values are sorted once, stably, by
    {!Value.compare_total}: [frequent] ranks by count descending, then by
    value ascending; [histogram] has [histogram_buckets] (default 32)
    buckets and [frequent] at most [frequent_k] (default 10) entries. *)

val null_fraction : t -> float

(** {1 Selectivity primitives}

    Fractions of {e all} rows; null rows never qualify, as in SQL. *)

val sel_eq : t -> Value.t -> float
(** Frequent values answer exactly; otherwise the histogram; otherwise
    1/ndv. *)

val sel_range :
  t -> ?lo:Value.t * [ `Excl | `Incl ] -> ?hi:Value.t * [ `Excl | `Incl ] ->
  unit -> float

val sel_is_null : t -> float

val pp : Format.formatter -> t -> unit
