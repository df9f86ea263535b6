(** Plan interpretation: each node opens as a pull cursor.

    {!Counters} records the physical work done — rows fetched from
    storage, page reads (under the same fixed-width page model the cost
    model uses), index probes — so experiments can report I/O-shaped
    numbers rather than wall time alone (paper §2 [8]: "reduce the number
    of pages that need to be scanned"). *)

open Rel

module Counters : sig
  type part = { mutable part_rows : int; mutable part_pages : int }

  type t = {
    mutable rows_scanned : int;  (** rows fetched from base tables *)
    mutable pages_read : int;
    mutable index_probes : int;
    mutable rows_output : int;  (** rows produced at the plan root *)
    mutable partitions : ((string * int) * part) list;
        (** per-(table, partition) slice of rows/pages; only
            {!Plan.Partition_scan} contributes *)
  }

  val create : unit -> t

  val partition_counter : t -> table:string -> partition:int -> part
  (** The (table, partition) slice, created on first use. *)

  val partition_counts : t -> (string * int * int * int) list
  (** [(table, partition, rows_scanned, pages_read)] sorted by
      (table, partition) — the deterministic per-partition report
      [sys.partitions] and BENCH.json consume. *)

  val pp : Format.formatter -> t -> unit
end

type cursor = unit -> Tuple.t option

exception Exec_error of string

val open_plan : Database.t -> Counters.t -> Plan.t -> cursor
(** Open a plan as a cursor; work counters accumulate into the given
    record as the cursor is pulled. *)

val drain : cursor -> Tuple.t list

val run : Database.t -> ?counters:Counters.t -> Plan.t -> Tuple.t list
(** Open, drain, and count the output rows. *)

(** {1 Per-node instrumentation (EXPLAIN ANALYZE)} *)

(** Runtime statistics of one plan node.  [produced] — the node's actual
    output cardinality — and [pulls] — calls of its cursor, the final
    [None] included; 0 for a node opened but never pulled — are
    deterministic.  [elapsed_s] is inclusive: the node's self time —
    monotonic-clock time in its own open and pulls, its children's and
    the probe's own excluded, past the root's 64th pull estimated from a
    sample (see {!run_instrumented}), floored at 0 — plus the children's
    [elapsed_s], so never less than their sum.  It is informational
    only. *)
module Node : sig
  type t = {
    mutable produced : int;
    mutable pulls : int;
    mutable elapsed_s : float;
  }

  val create : unit -> t
end

val open_node :
  (Plan.t -> (unit -> cursor) -> cursor) ->
  Database.t -> Counters.t -> Plan.t -> cursor
(** [open_node wrap db counters plan] opens the plan through [wrap]:
    each node is opened by [wrap node open_], where [open_ ()] opens it
    (and, for a blocking operator, drains its inputs).  Outermost node
    first; a pass-through wrap is [fun _ open_ -> open_ ()]. *)

val run_instrumented :
  Database.t -> ?counters:Counters.t -> Plan.t ->
  Tuple.t list * (Plan.t * Node.t) list
(** Like {!run}, additionally returning one {!Node.t} per plan node,
    keyed by physical identity ([==]) of the immutable plan subtrees.
    Opens and pulls are timed on the monotonic clock.  What one clock
    read costs is measured in the same run, on an idle node that only
    calls the root, and taken off every interval, so the probe's own
    time is charged to no node.  The root's first 64 pulls are timed;
    after them one root pull in 16 is, with all it pulls below it, and
    the sampled self times are scaled to all the later root pulls.
    Every node's open and first pull are timed and never scaled,
    whichever root pull they fall in. *)
