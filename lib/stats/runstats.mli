(** RUNSTATS: build and cache per-table statistics, as DB2's utility of
    the same name does.  Each snapshot remembers the table's mutation
    counter at collection time, which the soft-constraint currency model
    (paper §3.3) compares against to bound drift. *)

open Rel

type table_stats = {
  table : string;
  cardinality : int;
  collected_at_mutations : int;
  columns : (string * Col_stats.t) list;
}

type t

val create : unit -> t

val collect : ?histogram_buckets:int -> ?sample:int -> Table.t -> table_stats
(** Build statistics without caching; [sample] bounds the rows inspected
    for histograms (cardinality is still exact). *)

val runstats : ?histogram_buckets:int -> ?sample:int -> t -> Table.t ->
  table_stats
(** Collect and cache. *)

val runstats_all : ?histogram_buckets:int -> ?sample:int -> t -> Database.t ->
  unit

val find : t -> string -> table_stats option

val column_stats : t -> table:string -> column:string -> Col_stats.t option

val staleness : t -> Table.t -> int
(** Mutations the table has absorbed since its snapshot (the table's full
    mutation count when no snapshot exists). *)
