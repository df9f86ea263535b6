(** A small in-process metrics registry.

    Counters, gauges, and sample series are deterministic and feed
    {!snapshot} (and the sys.metrics virtual table); wall-clock timings
    live in a separate store that never reaches the snapshot, so every
    test-visible value is reproducible run-to-run.  Metric names are
    dotted paths ("exec.rows.scanned"); no schema is imposed.

    Every operation is thread-safe: the registry is shared by the
    server's worker domains ({!Srv}), so mutation and snapshotting are
    serialized behind a per-registry mutex. *)

type t

val create : unit -> t
val reset : t -> unit

(** {1 Counters} *)

val incr : ?by:int -> t -> string -> unit
val counter : t -> string -> int
(** 0 when never incremented. *)

(** {1 Gauges} *)

val set_gauge : t -> string -> float -> unit

val add_gauge : t -> string -> float -> unit
(** Atomic increment (negative to decrement) — a level instrument like a
    queue depth, adjusted concurrently from many workers. *)

val gauge : t -> string -> float option

(** {1 Sample series} *)

val observe : t -> string -> float -> unit

val samples : t -> string -> float list
(** Oldest first. *)

val histogram : ?buckets:int -> t -> string -> Stats.Histogram.t
(** Equi-depth histogram over a sample series, via the engine's own
    statistics machinery. *)

type summary = {
  count : int;
  sum : float;
  mean : float;
  min_v : float;
  max_v : float;
  p50 : float;
  p95 : float;
}

val summary : t -> string -> summary option
(** [None] when no samples were observed. *)

(** {1 Timings (wall clock; never part of the snapshot)} *)

val record_time : t -> string -> float -> unit
val time : t -> string -> (unit -> 'a) -> 'a

val timings : t -> (string * int * float) list
(** (name, calls, total elapsed seconds), sorted by name. *)

(** {1 Snapshot} *)

val snapshot : t -> (string * string * float) list
(** Deterministic view of every non-timing instrument: (name, kind,
    value) sorted by name.  Sample series expand into .count/.mean/.min/
    .max scalar rows so the snapshot stays flat and SQL-friendly. *)

val pp_timings : Format.formatter -> t -> unit
val pp : Format.formatter -> t -> unit
