(** The paper's running example (§4.4): a [purchase] table where "for 99%
    of tuples, the ship date is between the order date and three weeks
    later" — with a small population of late shipments for the exception
    table to track, plus amount/quantity columns for correlation and
    grouping workloads.

    Columns: [id INT] (PK), [customer INT], [order_date DATE NOT NULL]
    (indexed), [ship_date DATE] (deliberately {e not} indexed — the
    access-path asymmetry the example turns on), [amount FLOAT]
    (linearly correlated with quantity), [quantity INT],
    [region VARCHAR]. *)

open Rel

type config = {
  rows : int;
  days : int;  (** order_date spread *)
  late_fraction : float;  (** fraction shipped later than 21 days *)
  customers : int;
  seed : int;
}

val default_config : config
(** 20k rows over 1999, 1% late. *)

val base_date : Date.t
(** 1999-01-01. *)

val schema : Schema.t

val load : ?config:config -> Database.t -> unit
(** Create the table, PK (enforced, index-backed) and the order_date
    index, and populate it deterministically. *)

val insert_batch :
  ?violating:float -> rng:Stats.Rng.t -> start_id:int -> count:int ->
  Database.t -> unit
(** A stream of further inserts for staleness / maintenance experiments;
    [violating] is the fraction shipped late.  A late row ships 22–90
    days after its order, the same range {!load} gives its late rows, so
    it violates an absolute (100%) band only when that band was mined on
    data without late rows ([late_fraction = 0.0]).  An absolute band
    mined on data with late shipments (the default 1%) already spans
    it: to break such a band, insert a row later than the band's upper
    bound yourself. *)
