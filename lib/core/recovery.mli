(** Crash-safe durability: checkpointing and log replay over {!Rel.Wal}.

    {!attach} links a live {!Softdb.t} to a write-ahead log: data
    mutations, soft-constraint catalog transitions, DDL (as printed SQL)
    and transaction boundaries are appended as framed records.  Outside
    explicit {!Txn} transactions each statement autocommits its own
    frame.

    {!recover} replays the committed frames of a log into a fresh
    database: a crash at any point yields exactly the pre- or
    post-transaction state.  In particular (paper §4.1), an ASC
    overturned by a transaction whose commit record never reached the log
    is re-instated, because the whole frame is skipped.

    Fault points from {!Rel.Wal}, {!Txn} and {!Maintenance} are declared
    with {!Obs.Fault} on attach; after a simulated crash
    ({!Obs.Fault.crash_pending}) every handler freezes, so nothing the
    doomed process "did" after the crash instant reaches the log. *)

open Rel

exception Recovery_error of string

type t
(** A live link between a database and its WAL. *)

val attach : Softdb.t -> Wal.t -> t
(** Register the mutation / index / catalog listeners and one
    {!Softdb.on_event} listener (statement and transaction framing), and
    declare the fault points. *)

val softdb : t -> Softdb.t
val wal : t -> Wal.t

val flush : t -> unit
(** Commit any open autocommit frame and flush the sink. *)

val detach : t -> unit
(** {!flush}, then stop logging permanently. *)

val kill : t -> unit
(** Stop logging {e without} flushing — the simulated-crash path. *)

val checkpoint : t -> unit
(** Atomically rewrite the log as one committed frame reproducing the
    current state: schema DDL, raw rows (rid-faithful), soft-constraint
    images and exception-table registrations.  Raises {!Recovery_error}
    during an active explicit transaction. *)

val recover : Wal.record list -> Softdb.t
(** Replay the committed frames into a fresh database.  Raises
    {!Recovery_error} if a logged DDL statement fails to re-execute. *)

(** {1 Salvage-aware recovery}

    The strict replayer above trusts its input; this is the path that
    faces real, possibly-damaged log files.  Every unparsable,
    checksum-failing or LSN-regressing line is {e corrupt}.  If no
    committed frame appears at or after the first corrupt line, the
    damage is a {e torn tail}: everything from the tear on is provably
    uncommitted, so it is quarantined to [<wal>.salvage], the file is
    truncated, and recovery proceeds — in both modes.  Otherwise the
    damage is {e interior}: [Strict] raises {!Recovery_error}, while
    [Salvage] drops exactly the transactions open across a corrupt line
    (their replay would be partial), reports them, and applies the
    rest.  The outcome is a {!report}, also registered on the recovered
    database as the [sys.recovery] virtual table. *)

type mode = Strict | Salvage

type corrupt_line = { lineno : int; reason : string }

type report = {
  mode : mode;
  scanned_lines : int;
  applied_records : int;  (** non-frame records actually replayed *)
  committed_txns : int;  (** distinct committed transactions replayed *)
  dropped_txns : int list;
      (** transactions interior corruption forced [Salvage] to drop *)
  torn_tail : bool;
  quarantined_bytes : int;
  salvage_path : string option;
  corrupt : corrupt_line list;
}

val mode_name : mode -> string
(** ["strict"] / ["salvage"], as shown in sys.recovery. *)

val recover_file : ?mode:mode -> string -> Softdb.t * report
(** Classify every line of the log file at [path] and replay the
    surviving committed frames (default mode [Strict]), with the
    physical side effects: a torn tail is appended to [<path>.salvage]
    and the log truncated at the tear; interior corruption in [Salvage]
    mode quarantines the corrupt lines.  Either repair rewrites the log
    from the surviving records ({!Rel.Wal.rewrite_file} — [core] links
    no unix), so the repaired file replays to exactly the recovered
    state.  Raises {!Recovery_error}, in both modes and with the file
    untouched, when a non-empty file does not start like a log (see
    {!Rel.Wal.is_log}): a text file, or a log without line headers. *)

val resume : ?mode:mode -> string -> Softdb.t * t * report
(** [resume path] recovers from the log file at [path] (empty, absent,
    or damaged — {!recover_file} semantics, default [Strict]), reopens
    it for appending, and attaches — the CLI's [--wal] startup path.  The
    log is parsed once: {!Rel.Wal.open_scanned} reuses recovery's scan
    (a repaired file is scanned again), so transaction ids and LSNs
    continue above those in the file. *)
