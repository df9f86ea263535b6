(** The multi-session server.

    Wraps one shared {!Core.Softdb.t} with a {!Scheduler} (domain worker
    pool + admission control), the single-writer {!Rwlock}, a shared
    LRU-bounded {!Core.Plan_cache}, and a session registry surfaced as
    the sys.sessions virtual table.

    Connections speak the {!Proto} wire protocol over any {!Transport}.
    Each connection's reader loop decodes frames, answers
    Hello/Ping/Cancel/Quit inline, and submits everything else to the
    scheduler; responses are sent from whichever worker domain ran the
    job, interleaving freely on the wire (correlation ids order them). *)

type t

val create :
  ?workers:int ->
  ?queue_capacity:int ->
  ?plan_cache_capacity:int ->
  ?default_deadline_ms:int ->
  ?breaker_config:Breaker.config ->
  Core.Softdb.t ->
  t
(** Spawns the worker domains immediately.  [default_deadline_ms]
    (default 10s) bounds each request's queue wait + execution; a
    session overrides it with [SET deadline_ms <n>] ([<= 0] disables).
    [breaker_config] tunes the overload circuit breaker
    ({!Breaker.default_config} otherwise), which fronts the scheduler:
    when open, requests are answered [Rejected] with an honest
    retry_after_ms without ever touching the queue.  Registers the
    sys.sessions virtual table on the database. *)

val serve_connection_async : t -> Transport.t -> Thread.t
(** Serve one connection to completion on a new thread: open a session,
    loop on [recv], tear the session down on Quit/EOF — rolling back an
    open transaction and surrendering write ownership, so a dropped
    client never wedges the engine.  A malformed frame
    ({!Proto.Protocol_error}) gets a final [Failed Parse_error] frame
    and disconnects {e this} session only — the stream is out of sync,
    but sibling connections are untouched. *)

val listen_tcp : ?host:string -> t -> port:int -> int * (unit -> unit)
(** [listen_tcp t ~port] binds (port 0 picks an ephemeral one) and
    returns [(actual_port, accept_loop)].  Run [accept_loop ()] on the
    thread that should block accepting connections; it returns when
    {!shutdown} closes the listener. *)

val shutdown : t -> unit
(** Stop accepting, close the listener, answer parked and queued
    requests [Shutting_down] and join the worker domains. *)

(** {1 Introspection (tests, bench, CLI)} *)

val scheduler : t -> Scheduler.t
val breaker : t -> Breaker.t
val plan_cache : t -> Core.Plan_cache.t
