(* A bounded job queue feeding a pool of OCaml 5 domains.

   Admission control happens at [submit]: when the queue is at capacity
   the job is rejected immediately with a retry-after hint scaled to the
   backlog, and the srv.rejected counter ticks — the client backs off
   and retries, rather than the server growing an unbounded queue under
   pressure.  Deadlines and cancellation are checked when a worker
   dequeues the job: an expired or cancelled job never starts executing
   (once running, jobs are not interrupted — cancellation is a queue
   operation, like DB2's or Postgres's soft cancel between operators,
   only coarser).

   A worker takes the oldest queued job whose session has no job on a
   worker, so one session's jobs start in the order they were queued and
   never overlap: two workers that popped a session's two pipelined
   jobs at once would race for its mutex, and the later statement could
   run first.  Beyond that the scheduler knows nothing about locks or
   sessions: jobs do their own locking (see {!Rwlock} and {!Session}),
   so the pool stays a pure execution resource.  A job that has to wait
   for a lock answers [`Parked] instead of blocking its worker, and
   whoever wakes it calls [resubmit]; a parked job holds no worker, so a
   burst of transactions cannot convoy the pool while the lock holder's
   next statement waits behind them.  [shutdown] stops admissions, lets
   workers drain the queue by *expiring* every remaining job (each
   client still gets a response), and joins the domains. *)

type job = {
  session : int;
  req_id : int;
  enqueued_at : float;
  deadline : float option; (* absolute Unix time *)
  cancelled : unit -> bool; (* checked at dequeue *)
  run : unit -> [ `Done | `Parked ];
  expired : Proto.error_code -> unit; (* called instead of [run] *)
}

(* @guarded-by srv.scheduler.queue *)
type t = {
  m : Mutex.t;
  nonempty : Condition.t;
  queue : job Queue.t;
  capacity : int;
  workers : int;
  metrics : Obs.Metrics.t;
  mutable stopping : bool;
  mutable running : int list; (* sessions with a job on a worker *)
  mutable stalled : int; (* workers waiting beside queued jobs *)
  mutable domains : unit Domain.t list;
  mutable domains_seen : int list; (* raw Domain ids that ran a job *)
}

let default_workers () = max 2 (min 4 (Domain.recommended_domain_count () - 1))

let locked t f =
  (* taken with nothing else held: a worker queues the jobs its job woke
     once that job is done, and the rwlock timer and session teardown
     wake outside their own mutexes *)
  (* @acquires srv.scheduler.queue *)
  Obs.Lockdep.acquire "srv.scheduler.queue";
  Mutex.lock t.m;
  Fun.protect
    ~finally:(fun () ->
      Mutex.unlock t.m;
      Obs.Lockdep.release "srv.scheduler.queue")
    f

let note_domain t =
  let id = (Domain.self () :> int) in
  locked t (fun () ->
      if not (List.mem id t.domains_seen) then
        t.domains_seen <- id :: t.domains_seen)

(* Enqueue [job] unless [refusal ()] names a verdict instead. *)
let push t job ~refusal =
  let verdict =
    locked t (fun () ->
        match refusal () with
        | Some verdict -> verdict
        | None ->
            Queue.push job t.queue;
            Condition.signal t.nonempty;
            `Admitted)
  in
  if verdict = `Admitted then
    Obs.Metrics.add_gauge t.metrics "srv.queue_depth" 1.0;
  verdict

(* Jobs woken while this domain handles a job are queued once it is
   done: the waker's answer goes out before the jobs it woke compete for
   the processor, and no lock is held when they are queued. *)
let woken_key : job list ref option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let runnable t job = not (List.mem job.session t.running)

(* The oldest queued job whose session has none running; the jobs it
   passes over keep their places. *)
let take_runnable t =
  let runnable = runnable t in
  match Queue.peek_opt t.queue with
  | None -> None
  | Some job when runnable job -> Some (Queue.pop t.queue)
  | Some _ ->
      let found = ref None and kept = Queue.create () in
      Queue.iter
        (fun job ->
          if Option.is_none !found && runnable job then found := Some job
          else Queue.push job kept)
        t.queue;
      if Option.is_some !found then begin
        Queue.clear t.queue;
        Queue.transfer kept t.queue
      end;
      !found

(* [finished]: the session whose job this worker just ran. *)
let rec worker_loop t ~finished =
  (* @acquires srv.scheduler.queue *)
  Mutex.lock t.m;
  Option.iter
    (fun s -> t.running <- List.filter (( <> ) s) t.running)
    finished;
  let rec next () =
    match take_runnable t with
    | Some job -> Some job
    | None when t.stopping && Queue.is_empty t.queue -> None
    | None ->
        (* every queued job's session has a job running *)
        let stalled = not (Queue.is_empty t.queue) in
        if stalled then t.stalled <- t.stalled + 1;
        (* @waits srv.scheduler.queue *)
        Condition.wait t.nonempty t.m;
        if stalled then t.stalled <- t.stalled - 1;
        next ()
  in
  match next () with
  | None ->
      (* a sibling may be waiting on a job this worker ran last *)
      Condition.broadcast t.nonempty;
      Mutex.unlock t.m
  | Some job ->
      t.running <- job.session :: t.running;
      (* a stalled sibling may wait for a job left runnable, say the
         next of the session this worker just finished *)
      if
        t.stalled > 0
        && Queue.fold (fun any j -> any || runnable t j) false t.queue
      then Condition.signal t.nonempty;
      let stopping = t.stopping in
      Mutex.unlock t.m;
      Obs.Metrics.add_gauge t.metrics "srv.queue_depth" (-1.0);
      note_domain t;
      let now = Unix.gettimeofday () in
      let woken = ref [] in
      Domain.DLS.set woken_key (Some woken);
      (try
         if stopping then begin
           Obs.Metrics.incr t.metrics "srv.jobs_expired";
           job.expired Proto.Shutting_down
         end
         else if job.cancelled () then begin
           Obs.Metrics.incr t.metrics "srv.jobs_cancelled";
           job.expired Proto.Cancelled
         end
         else if
           match job.deadline with Some d -> now > d | None -> false
         then begin
           Obs.Metrics.incr t.metrics "srv.jobs_expired";
           (* distinct from jobs_expired (which shutdown drains also
              tick): admitted work that died of queue wait — the overload
              signal the circuit breaker and chaoscheck gate watch *)
           Obs.Metrics.incr t.metrics "srv.jobs_deadline_killed";
           job.expired Proto.Deadline_exceeded
         end
         else begin
           match job.run () with
           | `Done ->
               Obs.Metrics.record_time t.metrics "srv.queue_wait"
                 (now -. job.enqueued_at);
               Obs.Metrics.record_time t.metrics "srv.query_latency"
                 (Unix.gettimeofday () -. now);
               Obs.Metrics.incr t.metrics "srv.jobs_completed"
           | `Parked -> () (* whoever wakes it resubmits it *)
         end
       with _ ->
         (* [run]/[expired] answer the client themselves; a leak here must
            not kill the worker *)
         Obs.Metrics.incr t.metrics "srv.job_errors");
      Domain.DLS.set woken_key None;
      List.iter
        (fun job -> ignore (push t job ~refusal:(fun () -> None)))
        (List.rev !woken);
      worker_loop t ~finished:(Some job.session)

let create ?workers ?(queue_capacity = 64) metrics =
  let workers =
    match workers with Some w -> max 1 w | None -> default_workers ()
  in
  if queue_capacity < 1 then
    invalid_arg "Scheduler.create: queue_capacity must be >= 1";
  let t =
    {
      m = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      capacity = queue_capacity;
      workers;
      metrics;
      stopping = false;
      running = [];
      stalled = 0;
      domains = [];
      domains_seen = [];
    }
  in
  t.domains <- List.init workers (fun _ ->
        Domain.spawn (fun () -> worker_loop t ~finished:None));
  t

let workers t = t.workers
let queue_depth t = locked t (fun () -> Queue.length t.queue)
let domains_used t = locked t (fun () -> List.length t.domains_seen)

(* The retry-after hint: proportional to the backlog a retrying client
   would find in front of it, amortized over the pool — deterministic
   given the queue state, so tests can pin it. *)
let retry_after_ms t = max 1 (Queue.length t.queue * 5 / t.workers)

let submit t job =
  let verdict =
    push t job ~refusal:(fun () ->
        if t.stopping then Some `Shutting_down
        else if Queue.length t.queue >= t.capacity then
          Some (`Rejected (retry_after_ms t))
        else None)
  in
  (match verdict with
  | `Admitted -> Obs.Metrics.incr t.metrics "srv.jobs_admitted"
  | `Rejected _ -> Obs.Metrics.incr t.metrics "srv.jobs_rejected"
  | `Shutting_down -> ());
  verdict

(* A woken job goes back to the queue tail without admission control: it
   was admitted once.  Deadline and cancellation are checked again at
   dequeue.  While stopping, the draining workers expire it. *)
let resubmit t job =
  match Domain.DLS.get woken_key with
  | Some woken -> woken := job :: !woken
  | None -> ignore (push t job ~refusal:(fun () -> None))

let shutdown t =
  let domains =
    locked t (fun () ->
        t.stopping <- true;
        Condition.broadcast t.nonempty;
        let ds = t.domains in
        t.domains <- [];
        ds)
  in
  List.iter Domain.join domains
