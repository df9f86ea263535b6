(** Equi-depth histograms over column values — the workhorse of
    selectivity estimation (paper §5: "frequency and histogram
    statistics").

    Bucket [i] covers [(lo_i, hi_i]] (the first bucket includes its lower
    bound) and records row and distinct counts; equal values never
    straddle buckets.  Estimation interpolates uniformly within a
    bucket. *)

open Rel

type bucket = {
  lo : Value.t; (** exclusive, except for the very first bucket *)
  hi : Value.t; (** inclusive *)
  count : int;
  distinct : int;
}

type t

val empty : t

val total : t -> int
(** Non-null rows represented. *)

val buckets : t -> bucket list

val build : ?buckets:int -> Value.t list -> t
(** Build from a multiset of values (order irrelevant, nulls excluded);
    [buckets] defaults to 32. *)

val of_sorted : ?buckets:int -> Value.t array -> t
(** Build from non-null values already in {!Value.compare_total} order,
    as {!build} does after filtering and sorting; the array is not
    modified. *)

val rows_le : t -> Value.t -> float
(** Estimated rows with value ≤ v. *)

val rows_lt : t -> Value.t -> float
val rows_eq : t -> Value.t -> float

val rows_range :
  t -> ?lo:Value.t * [ `Excl | `Incl ] -> ?hi:Value.t * [ `Excl | `Incl ] ->
  unit -> float

val selectivity_range :
  t -> ?lo:Value.t * [ `Excl | `Incl ] -> ?hi:Value.t * [ `Excl | `Incl ] ->
  unit -> float
(** {!rows_range} as a fraction of {!total}. *)

val selectivity_eq : t -> Value.t -> float

val pp : Format.formatter -> t -> unit
