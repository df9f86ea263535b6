(* The multi-session server: transports in, scheduler out.

   One server wraps one shared Softdb.t with

   - a {!Scheduler}: bounded queue + domain worker pool (admission
     control, deadlines, cancellation);
   - a {!Rwlock}: the single-writer rule;
   - a shared {!Core.Plan_cache} (LRU-bounded), so prepared plans cross
     sessions;
   - a session registry surfaced as the sys.sessions virtual table —
     a server can be asked about itself over its own wire protocol.

   Each connection gets a reader loop (a lightweight systhread — the
   CPU-heavy work happens on the scheduler's domains): it decodes
   frames, answers Hello/Ping/Cancel/Quit inline, and turns everything
   else into a scheduler job whose completion sends the response from
   whichever domain ran it.  Responses therefore interleave freely on
   the wire; the correlation id orders them for the client. *)

(* @guarded-by none: owned by the connection's reader loop thread *)
type conn_state = {
  conn : Transport.t;
  session : Session.t;
  mutable open_ : bool;
}

(* @guarded-by srv.server.registry *)
type t = {
  sdb : Core.Softdb.t;
  scheduler : Scheduler.t;
  rwlock : Rwlock.t;
  cache : Core.Plan_cache.t;
  metrics : Obs.Metrics.t;
  breaker : Breaker.t;
  default_deadline_ms : int;
  m : Mutex.t;
  mutable sessions : Session.t list; (* newest first, closed ones kept *)
  mutable next_session : int;
  mutable shutting_down : bool;
  mutable listener : Transport.listener option;
}

let locked t f =
  (* held during query execution too: the sys.sessions generator runs
     under the executing session's locks *)
  (* @acquires srv.server.registry while srv.session db.rwlock *)
  Obs.Lockdep.acquire "srv.server.registry";
  Mutex.lock t.m;
  Fun.protect
    ~finally:(fun () ->
      Mutex.unlock t.m;
      Obs.Lockdep.release "srv.server.registry")
    f

let create ?workers ?(queue_capacity = 64) ?plan_cache_capacity
    ?(default_deadline_ms = 10_000) ?breaker_config sdb =
  let metrics = Core.Softdb.metrics sdb in
  let t =
    {
      sdb;
      scheduler = Scheduler.create ?workers ~queue_capacity metrics;
      rwlock = Rwlock.create metrics;
      cache = Core.Plan_cache.create ?capacity:plan_cache_capacity sdb;
      metrics;
      breaker = Breaker.create ?config:breaker_config metrics;
      default_deadline_ms;
      m = Mutex.create ();
      sessions = [];
      next_session = 0;
      shutting_down = false;
      listener = None;
    }
  in
  (* sys.sessions: the registry as a SQL view.  The generator runs during
     query execution on a worker; it takes only the registry mutex, never
     a lock the executing query already holds. *)
  Obs.Sys_tables.register (Core.Softdb.db sdb) "sys.sessions"
    Session.sys_columns (fun () -> List.rev (locked t (fun () -> t.sessions)));
  t

let scheduler t = t.scheduler
let breaker t = t.breaker
let plan_cache t = t.cache

let new_session t =
  locked t (fun () ->
      t.next_session <- t.next_session + 1;
      let s =
        Session.make ~id:t.next_session ~sdb:t.sdb ~cache:t.cache
          ~metrics:t.metrics
      in
      t.sessions <- s :: t.sessions;
      Obs.Metrics.incr t.metrics "srv.sessions_opened";
      s)

let session_deadline t session =
  let ms =
    match Session.setting session "deadline_ms" with
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> t.default_deadline_ms)
    | None -> t.default_deadline_ms
  in
  if ms <= 0 then None (* 0 or negative disables the deadline *)
  else Some (Unix.gettimeofday () +. (float_of_int ms /. 1000.0))

let reply cs id payload =
  try
    cs.conn.Transport.send_frame (fun buf ->
        Proto.response_frame buf { Proto.id; payload })
  with Transport.Closed -> cs.open_ <- false

let shutting_down =
  Proto.Failed { code = Proto.Shutting_down; message = "server shutting down" }

(* ---- the connection loop -------------------------------------------------- *)

let handle_inline t cs (req : Proto.request) =
  let reply = reply cs req.Proto.id in
  match req.Proto.payload with
  | Proto.Ping -> reply Proto.Pong
  | Proto.Hello { client } -> reply (Session.hello cs.session client)
  | Proto.Cancel { target } ->
      Session.mark_cancelled cs.session target;
      reply (Proto.Ok_msg (Printf.sprintf "cancelled #%d" target));
      (* a parked target goes back to the queue, where it is answered *)
      Rwlock.unpark t.rwlock ~session:(Session.id cs.session) ~req:target
  | Proto.Quit ->
      cs.open_ <- false;
      reply Proto.Bye
  | _ -> assert false

let submit_job t cs (req : Proto.request) =
  let session = cs.session in
  let deadline = session_deadline t session in
  let answer = reply cs req.Proto.id in
  (* the waiter is the request's place in the lock's line; waking it
     puts the job back in the queue *)
  let rec job =
    {
      Scheduler.session = Session.id session;
      req_id = req.Proto.id;
      enqueued_at = Unix.gettimeofday ();
      deadline;
      cancelled = (fun () -> Session.is_cancelled session req.Proto.id);
      run =
        (fun () ->
          match
            Session.handle ~rwlock:t.rwlock ~waiter:(Lazy.force waiter)
              ~deadline session req.Proto.payload
          with
          | None -> `Parked
          | Some payload ->
              Breaker.record_success t.breaker;
              answer payload;
              `Done);
      expired =
        (fun code ->
          Session.abandon ~rwlock:t.rwlock session (Lazy.force waiter);
          let message =
            match code with
            | Proto.Deadline_exceeded -> "deadline exceeded in queue"
            | Proto.Cancelled -> "cancelled"
            | Proto.Shutting_down -> "server shutting down"
            | _ -> "not executed"
          in
          (* an admitted job that died of queue wait is the overload
             signal; cancel and shutdown say nothing about load *)
          if code = Proto.Deadline_exceeded then
            Breaker.record_failure t.breaker;
          answer (Proto.Failed { code; message }));
    }
  and waiter =
    lazy
      (Rwlock.waiter ?deadline ~session:(Session.id session) ~req:req.Proto.id
         ~wake:(fun () -> Scheduler.resubmit t.scheduler job)
         ())
  in
  (* the breaker is the outer door: when open it answers without the
     job ever reaching the scheduler's queue *)
  match Breaker.admit t.breaker with
  | `Reject retry_after_ms -> answer (Proto.Rejected { retry_after_ms })
  | `Proceed -> (
      match Scheduler.submit t.scheduler job with
      | `Admitted -> ()
      | `Rejected retry_after_ms ->
          Breaker.record_failure t.breaker;
          answer (Proto.Rejected { retry_after_ms })
      | `Shutting_down -> answer shutting_down)

(* Serve one connection to completion: decode, dispatch, tear down.
   Blocking — run it on its own thread ([serve_connection_async]). *)
let serve_connection t conn =
  let session = new_session t in
  let cs = { conn; session; open_ = true } in
  let rec loop () =
    if cs.open_ then
      match conn.Transport.recv () with
      | None -> ()
      | Some line ->
          (match Proto.request_of_line line with
          | exception Proto.Protocol_error m ->
              (* a malformed frame means this client's stream is out of
                 sync — continuing to parse it would misattribute every
                 later frame.  Final error frame, then disconnect this
                 session only; siblings are untouched (each connection
                 has its own reader loop and session). *)
              Obs.Metrics.incr t.metrics "srv.protocol_errors";
              reply cs 0
                (Proto.Failed { code = Proto.Parse_error; message = m });
              cs.open_ <- false
          | req -> (
              match req.Proto.payload with
              | Proto.Ping | Proto.Hello _ | Proto.Cancel _ | Proto.Quit ->
                  handle_inline t cs req
              | _ ->
                  if locked t (fun () -> t.shutting_down) then
                    reply cs req.Proto.id shutting_down
                  else submit_job t cs req));
          loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      (* the session's queued jobs answer Session_closed once [close]
         marks it; an open transaction rolls back and the write lock is
         surrendered, so a dropped client never wedges the engine *)
      Session.close ~rwlock:t.rwlock session;
      Obs.Metrics.incr t.metrics "srv.sessions_closed";
      conn.Transport.close ())
    loop

let serve_connection_async t conn =
  Thread.create (fun () -> serve_connection t conn) ()

(* ---- TCP ------------------------------------------------------------------ *)

let listen_tcp ?host t ~port =
  let listener = Transport.listen ?host ~port () in
  locked t (fun () -> t.listener <- Some listener);
  let rec accept_loop () =
    match Transport.accept listener with
    | conn ->
        ignore (serve_connection_async t conn);
        accept_loop ()
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
        () (* listener closed: shutdown *)
  in
  (Transport.port listener, accept_loop)

let shutdown t =
  let listener =
    locked t (fun () ->
        t.shutting_down <- true;
        let l = t.listener in
        t.listener <- None;
        l)
  in
  Option.iter Transport.close_listener listener;
  (* parked requests first: they go back to the queue, which the
     scheduler's shutdown then drains *)
  Rwlock.close t.rwlock;
  Scheduler.shutdown t.scheduler
