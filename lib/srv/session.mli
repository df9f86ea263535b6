(** A server session: one client's private state over the shared engine.

    Each session owns its transaction state, prepared-statement handles,
    settings and traffic counters; sessions share the {!Core.Softdb.t},
    the plan cache, and the metrics registry.  A session's pipelined
    requests are serialized by a per-session mutex (statements of one
    session run in admission order; sessions interleave freely), and
    every request follows the single-writer discipline: reads take the
    shared side of the {!Rwlock}, mutations the exclusive side, and
    BEGIN holds the exclusive side until COMMIT/ROLLBACK.  A request the
    lock cannot serve parks off its worker and runs again when the lock
    is handed to it.

    Prepared plans are shared across sessions, keyed by SQL text: a
    handle prepared by one session binds later sessions to the same
    cache entry (ticking plan_cache.shared_hits instead of
    re-optimizing). *)

type state = Idle | Active | Closed

type t

val make :
  id:int -> sdb:Core.Softdb.t -> cache:Core.Plan_cache.t ->
  metrics:Obs.Metrics.t -> t

val id : t -> int
val setting : t -> string -> string option

val mark_cancelled : t -> int -> unit
(** Flag a queued request id; the scheduler skips it at dequeue. *)

val is_cancelled : t -> int -> bool

val hello : t -> string -> Proto.response_payload
(** Answer Hello inline: name the session (a blank name keeps the
    default). *)

val handle :
  rwlock:Rwlock.t -> waiter:Rwlock.waiter -> deadline:float option -> t ->
  Proto.request_payload -> Proto.response_payload option
(** Execute one request on a worker domain.  Engine exceptions fold to
    {!Proto.Failed}.  [None]: the request parked on the lock with
    [waiter] (which bears the request's deadline) and its job must be
    run again once the waiter's [wake] fires; the re-run takes the lock
    it was handed.  A grant the answer did not use goes back.
    [Hello]/[Cancel]/[Ping]/[Quit] never reach here — the connection
    loop answers them inline. *)

val abandon : rwlock:Rwlock.t -> t -> Rwlock.waiter -> unit
(** The request is answered without running (expired, cancelled, shut
    down in the queue): give back the lock it was handed and demote an
    online build it left parked. *)

val close : rwlock:Rwlock.t -> t -> unit
(** Teardown after Quit or EOF: roll back an open transaction, surrender
    write ownership, wake the session's parked requests, mark closed
    (they and still-queued jobs answer [Session_closed]). *)

val sys_columns : t Obs.Sys_tables.column list
(** sys.sessions(session_id, name, state, in_txn, queries, writes,
    errors, prepared), one row per session; {!Server.create} registers
    it over the session registry. *)
