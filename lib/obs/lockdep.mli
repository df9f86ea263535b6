(** Runtime lock-order witness: when enabled, instrumented lock sites
    record per-thread held stacks and grow an observed acquisition-order
    edge graph ((held -> acquired) with counts), catching non-reentrant
    re-acquisition and edge-graph cycles live.  {!Check.Lockdep_lint}
    cross-validates the observed {!graph} against the static
    [@lock-order] rank table.  Off by default; the disabled fast path is a single
    atomic read per call. *)

val enable : unit -> unit
val disable : unit -> unit

val enabled : unit -> bool
(** Also turned on at startup by [SOFTDB_LOCKDEP=1] (or [true]/[on]). *)

val reset : unit -> unit
(** Clear all witness state (stacks, edges, coverage, violations);
    leaves the enabled flag alone. *)

val acquire : ?reentrant:bool -> string -> unit
(** Record this thread acquiring the named lock: edges from every
    distinct held lock, coverage, depth, and a violation if the thread
    already holds the name and [reentrant] is false (default). *)

val release : string -> unit
(** Pop the name from this thread's stack (first occurrence); tolerant —
    a no-op if the thread does not hold it. *)

val pulse : string -> unit
(** Record an acquisition (edges + coverage) with no residual hold —
    for locks whose release happens on a different thread, e.g. the
    session write lock spanning BEGIN .. COMMIT across workers. *)

val edge_list : unit -> (string * string * int) list
(** Observed [(held, acquired, count)] edges, sorted. *)

val lock_list : unit -> string list
(** Every lock name the run acquired (via {!acquire} or {!pulse}),
    sorted — the coverage side of stale-rank detection. *)

val violations : unit -> string list
(** Live violations (re-acquisition, cycles), sorted and deduplicated. *)

val edges_observed : unit -> int
val max_held_depth : unit -> int
(** Deepest number of distinct locks any one thread held at once. *)

type graph = {
  g_locks : string list;  (** {!lock_list} *)
  g_edges : (string * string * int) list;  (** {!edge_list} *)
  g_violations : string list;  (** {!violations} *)
}

val graph : unit -> graph
(** The witness's current state, for {!Check.Lockdep_lint}. *)
