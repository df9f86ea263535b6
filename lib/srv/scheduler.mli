(** A bounded job queue feeding a pool of OCaml 5 domains.

    [submit] applies admission control: a full queue rejects immediately
    with a retry-after hint scaled to the backlog.  Deadlines and
    cancellation are checked when a worker dequeues a job — an expired
    or cancelled job never starts, and [expired] is invoked instead of
    [run] so the client still gets an answer.  A worker takes the
    oldest queued job whose [session] has no job on a worker, so one
    session's jobs start in queue order and never overlap; other
    sessions' jobs pass a waiting one.  Beyond that the scheduler is
    lock-agnostic: jobs do their own locking ({!Rwlock}), the pool is a
    pure execution resource; a job waiting for a lock parks off the pool
    and comes back through {!resubmit}.

    Metrics (into the registry passed at creation): srv.jobs_admitted /
    srv.jobs_rejected / srv.jobs_completed / srv.jobs_expired /
    srv.jobs_deadline_killed (the subset of expiries caused by queue
    wait, the overload signal {!Breaker} watches) / srv.jobs_cancelled /
    srv.job_errors counters, the srv.queue_depth
    gauge, and srv.queue_wait / srv.query_latency wall-clock timings. *)

type job = {
  session : int;  (** at most one job per session runs at a time *)
  req_id : int;
  enqueued_at : float;
  deadline : float option;  (** absolute Unix time *)
  cancelled : unit -> bool;  (** checked at dequeue *)
  run : unit -> [ `Done | `Parked ];
      (** [`Parked]: the job is waiting for a lock, holds no worker,
          and is {!resubmit}ted when woken; only a [`Done] run counts
          as completed *)
  expired : Proto.error_code -> unit;
      (** called instead of [run] on deadline / cancel / shutdown *)
}

type t

val create : ?workers:int -> ?queue_capacity:int -> Obs.Metrics.t -> t
(** Spawns the worker domains ([max 2 (min 4 (cores - 1))] when
    unspecified; queue capacity 64).  Raises [Invalid_argument] on
    capacity < 1. *)

val workers : t -> int
val queue_depth : t -> int

val domains_used : t -> int
(** Distinct domains that have executed at least one job — the
    fan-out witness the concurrency tests assert on. *)

val submit :
  t -> job -> [ `Admitted | `Rejected of int | `Shutting_down ]
(** [`Rejected retry_after_ms] when the queue is at capacity. *)

val resubmit : t -> job -> unit
(** Queue a woken parked job again, without admission control. *)

val shutdown : t -> unit
(** Stop admitting, expire whatever is still queued (each job's
    [expired] runs with {!Proto.Shutting_down}), join the domains. *)
