(** Prepared plans and ASC invalidation (paper §4.1).

    "Every pre-compiled query plan that employs a violated ASC in its plan
    must be dropped … One possible tactic is for a package to incorporate
    a 'backup' plan which is ASC-free.  If an ASC is overturned, a flag is
    raised and packages revert to the alternative plans."

    A prepared entry keeps the optimizer's report: its fast plan, its
    guards (the constraints its result-changing rewrites relied on) and
    its rewrite-free backup plan.  Execution runs the fast plan until
    {!Softdb.failed_guards} — the check ad-hoc statements make too —
    reports a failed guard, and the backup from then on; twins
    (estimation-only) never guard — a plan chosen under stale statistics
    is merely sub-optimal.

    The cache is bounded and LRU-evicting (prepare and execute both count
    as use; evictions surface in {!stats}, the sys.plan_cache [last_used]
    column, and the [plan_cache.evictions] metric), and thread-safe, so
    one cache can be shared by every session of the server
    ({!Srv.Server}). *)

type entry = {
  name : string;
  sql : string;
  query : Sqlfe.Ast.query;
  mutable report : Opt.Explain.report;
      (** fast plan, guards ([report.guards]) and backup plan *)
  mutable obj_tables : string list;
      (** tables any compiled plan opens — DDL-staleness tracking *)
  mutable obj_indexes : string list;
      (** indexes any compiled plan probes; a dropped or demoted one
          forces re-preparation from SQL before the next run *)
  mutable invalidated : bool;
      (** set by the first execution that finds a failed guard; the
          backup runs until re-preparation clears it *)
  mutable fast_runs : int;
  mutable backup_runs : int;
  mutable last_used : int;  (** recency stamp for LRU eviction *)
}

type t

exception No_such_plan of string

val default_capacity : int
(** 64. *)

val create : ?capacity:int -> Softdb.t -> t
(** Also re-registers the facade's sys.plan_cache view over this cache
    ({!Obs.Sys_tables.plan_cache}).  [capacity] bounds the entry
    count (default {!default_capacity}); raises [Invalid_argument] when
    < 1. *)

val prepare : t -> name:string -> string -> entry
(** Optimize and cache under [name] (replacing an entry of that name).
    Past capacity, the least-recently-used entry is evicted. *)

val find : t -> string -> entry option

val find_or_prepare : t -> name:string -> string -> entry * bool
(** The atomic find-then-prepare: [true] iff this call created the
    entry.  Sessions prepare concurrently (under a shared read lock),
    so the naive [find]-miss-then-[prepare] sequence lets two of them
    both miss and both insert; here the insert re-checks under the
    cache lock, so exactly one of N racing callers reports creation and
    the rest bind to the winner's entry. *)

type cache_stats = {
  entries : int;
  valid : int;  (** entries whose fast plan would run now *)
  fast_runs : int;
  backup_runs : int;
  capacity : int;
  evictions : int;  (** LRU evictions since creation *)
}

val stats : t -> cache_stats
(** Aggregate fast-vs-backup run counts across all entries, plus the
    capacity bound and total evictions. *)

val execute : t -> string -> Exec.Executor.result
(** Fast plan while every guard holds, the report's backup plan once one
    has failed (counted once per entry in [sc_guard_fallbacks]).
    If DDL made the compiled plans stale first (a referenced table or
    index dropped, a referenced index demoted), the entry is re-prepared
    from its SQL before running — counted in the
    [plan_cache.ddl_repreparations] metric — so a stale plan is never
    opened. *)

val reprepare : t -> unit
(** Re-optimize every invalidated or DDL-stale entry against the current
    catalog — the "recompiled before they can be used again" path.
    Entries whose recompilation fails (table dropped) are left for
    {!execute} to surface the error. *)

val pp_entry : Format.formatter -> entry -> unit
