(** A simple transaction layer: an undo log over catalog mutations plus a
    snapshot of the soft-constraint catalog.

    Paper §4.1 raises the interaction between ASC maintenance and
    transactions: a transaction that violates (and so overturns) an ASC
    may later abort — "is the ASC then re-instated?"  Here yes, by
    construction: {!rollback} compensates the data mutations in reverse
    order and restores every soft constraint's statement, kind, state and
    currency anchor to their values at {!begin_}.  Exception tables stay
    consistent throughout because the compensating operations flow
    through the same mutation listeners: the undo log holds only direct
    mutations, never the copies a listener made in reaction
    ({!Rel.Database.cascading}), so compensating a row re-derives its
    exception-table copy exactly once.

    One open transaction per database: its undo recorder and id counter
    live in the {!Softdb.t}, and its lifecycle is published on that
    database's {!Softdb.on_event} stream ([Began], then [Committed] or
    [Rolled_back]) — {!Recovery} frames WAL records with it. *)

exception Transaction_error of string

exception Rollback_incomplete of exn list
(** Raised by {!rollback} when one or more compensating operations (or
    catalog restores) themselves failed: the rollback ran to completion
    over everything it {e could} undo, and the collected exceptions are
    reported oldest first. *)

type t

val fault_points : string list
(** The named fault sites this module fires ([txn.begin],
    [txn.pre_commit], [txn.rollback]). *)

val id : t -> int
(** Monotonic transaction id, per database (not the WAL txn id). *)

val begin_ : Softdb.t -> t
(** Start recording; raises {!Transaction_error} if this database
    already has an open transaction. *)

val commit : t -> unit
(** Discard the undo log. *)

val rollback : t -> unit
(** Undo the recorded mutations (newest first) and restore the
    soft-constraint catalog snapshot.  A failure on one compensating
    entry does not stop the rest: all entries are attempted and the
    failures re-raised together as {!Rollback_incomplete}. *)

val mutation_count : t -> int

val atomically : Softdb.t -> (unit -> 'a) -> ('a, exn) result
(** Run a thunk in a transaction: [Ok] commits, an exception rolls back
    and is returned as [Error]. *)
