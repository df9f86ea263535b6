(** The sys.* virtual tables, each declared once as a list of columns.

    A column carries its name, type, nullability and getter; {!register}
    derives the view's schema and its rows from the one list, in list
    order.  The views over this library's registries are declared here;
    sys.soft_constraints, sys.indexes, sys.index_advisor and
    sys.partitions in {!Core.Softdb}; sys.sessions in {!Srv.Session}.
    sys.plan_cache and sys.recovery are registered empty by
    {!Core.Softdb.create}; {!Core.Plan_cache.create} and
    {!Core.Recovery} re-register them with rows (registering replaces a
    view by name), so their rows are the records below. *)

open Rel

type 'a column
(** One column of a view whose rows are ['a]s. *)

(** {1 Columns}

    [str]/[int]/[float]/[bool] are NOT NULL; [opt_str]/[opt_float] are
    nullable and map [None] to NULL. *)

val str : string -> ('a -> string) -> 'a column
val int : string -> ('a -> int) -> 'a column
val float : string -> ('a -> float) -> 'a column
val bool : string -> ('a -> bool) -> 'a column
val opt_str : string -> ('a -> string option) -> 'a column
val opt_float : string -> ('a -> float option) -> 'a column

val register :
  Database.t -> string -> 'a column list -> (unit -> 'a list) -> unit
(** [register db name columns rows]: the virtual table [name] with one
    column per element of [columns] and one row per element of
    [rows ()], read at every query. *)

(** {1 Views} *)

val metrics : (string * string * float) column list
(** sys.metrics(name, kind, value) over {!Metrics.snapshot}. *)

val query_log : Query_log.entry column list
(** sys.query_log(seq, sql, estimated_rows, actual_rows, q_error,
    rewrites, twins, fell_back); [rewrites] and [twins] are
    comma-joined. *)

val lockdep : (string * string * int) column list
(** sys.lockdep(held_lock, acquired_lock, times_seen) over
    {!Lockdep.edge_list}: the runtime witness's observed
    acquisition-order edges, empty unless {!Lockdep.enable}d. *)

type plan_cache_row = {
  name : string;
  sql : string;
  valid : bool;  (** the fast plan would run now *)
  dependencies : string list;  (** the plan's guards *)
  fast_runs : int;
  backup_runs : int;
  last_used : int;  (** the cache's LRU recency stamp *)
}

val plan_cache : plan_cache_row column list
(** sys.plan_cache(name, sql, valid, dependencies, fast_runs,
    backup_runs, last_used). *)

type recovery_row = {
  mode : string;  (** strict / salvage *)
  torn_tail : bool;  (** a torn tail was truncated *)
  scanned_lines : int;
  applied_records : int;
  committed_txns : int;
  dropped_txns : int list;
      (** committed transactions interior corruption forced Salvage mode
          to drop *)
  corrupt_lines : int;
  quarantined_bytes : int;
  salvage_path : string option;  (** where quarantined bytes went *)
}

val recovery : recovery_row column list
(** sys.recovery(mode, torn_tail, scanned_lines, applied_records,
    committed_txns, dropped_txns, corrupt_lines, quarantined_bytes,
    salvage_path): one row for the database's last WAL recovery;
    [dropped_txns] is a comma-joined id list. *)
