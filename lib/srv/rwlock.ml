(* The single-writer rule, as a lock whose waiters park.

   Reads share the lock; anything that mutates engine state — data,
   schema, the SC catalog, WAL appends — takes it exclusively, so every
   mutation and WAL record stays serialized as in the single-threaded
   engine.  The write side is owned by a *session*: a transaction holds
   it from BEGIN to COMMIT/ROLLBACK while its statements arrive as jobs
   on any worker domain, and the owner's nested acquisitions are
   reentrant (depth-counted) and never park.

   A request the lock cannot serve parks: its {!waiter} joins a FIFO
   list and its job unwinds, freeing the worker.  Each release hands the
   lock to the longest waiters that can hold it together — one writer
   with every request its session has parked, or every reader queued
   before the next writer — and calls their [wake] once the state mutex
   is released; the woken request's next acquisition takes the grant.
   FIFO order keeps a waiting writer ahead of new readers and a
   session's statements in order.  Deadlines cost no polling: a timer
   thread sleeps in [select] on a self-pipe until the earliest parked
   deadline (for good while none is parked), then wakes the expired
   waiters ungranted, so their jobs expire at dequeue. *)

type hold = Shared | Exclusive
type state = Idle | Parked | Granted of hold

(* @guarded-by srv.rwlock.state *)
type waiter = {
  session : int;
  req : int;
  deadline : float option;
  wake : unit -> unit;
  mutable write : bool;
  mutable state : state;
  mutable parked_at : float;
}

let waiter ?deadline ~session ~req ~wake () =
  { session; req; deadline; wake; write = false; state = Idle; parked_at = 0. }

(* @guarded-by srv.rwlock.state *)
type t = {
  m : Mutex.t;
  metrics : Obs.Metrics.t;
  mutable readers : int;
  mutable writer : int option; (* owning session *)
  mutable writer_depth : int;
  mutable queue : waiter list; (* longest waiter first *)
  mutable closed : bool;
  mutable timer_due : float; (* the timer's next wake; infinity: none *)
  mutable unclaimed : int; (* grants whose jobs have not run yet *)
  mutable timer : Thread.t option;
  poke_r : Unix.file_descr;
  poke_w : Unix.file_descr;
}

let locked t f =
  (* the short internal state mutex; callers hold the session mutex and
     may logically hold the rwlock itself (reentrant re-acquire paths) *)
  (* @acquires srv.rwlock.state while srv.session db.rwlock *)
  Obs.Lockdep.acquire "srv.rwlock.state";
  Mutex.lock t.m;
  Fun.protect
    ~finally:(fun () ->
      Mutex.unlock t.m;
      Obs.Lockdep.release "srv.rwlock.state")
    f

(* The lock as [session] would take it now; [queued]: an earlier waiter
   is in the way, which only the owner's reentry passes.  The owner's
   reads nest like its writes: its job may run after another of its jobs
   released, so each keeps a depth of its own. *)
let take t ~session ~write ~queued =
  match t.writer with
  | Some s when s = session ->
      t.writer_depth <- t.writer_depth + 1;
      Some Exclusive
  | Some _ -> None
  | None when queued || (write && t.readers > 0) -> None
  | None when write ->
      t.writer <- Some session;
      t.writer_depth <- 1;
      Some Exclusive
  | None ->
      t.readers <- t.readers + 1;
      Some Shared

(* Grant the head of the list while it can hold the lock; a writer takes
   every request its session has parked along. *)
let rec grant t =
  match t.queue with
  | [] -> []
  | w :: rest -> (
      match take t ~session:w.session ~write:w.write ~queued:false with
      | None -> []
      | Some hold ->
          let own, rest =
            if hold = Shared then ([], rest)
            else List.partition (fun o -> o.session = w.session) rest
          in
          t.queue <- rest;
          t.writer_depth <- t.writer_depth + List.length own;
          t.unclaimed <- t.unclaimed + 1 + List.length own;
          w.state <- Granted hold;
          List.iter (fun o -> o.state <- Granted Exclusive) own;
          (w :: own) @ grant t)

(* Take the waiters matching [p] off the list ungranted, then grant
   whoever that unblocks: [(dropped, granted)]. *)
let drop t p =
  let dropped, kept = List.partition p t.queue in
  t.queue <- kept;
  List.iter (fun w -> w.state <- Idle) dropped;
  (dropped, grant t)

let next_due t =
  List.fold_left
    (fun due w -> Option.fold ~none:due ~some:(Float.min due) w.deadline)
    infinity t.queue

(* The timer's next due travels through the pipe, 8 bytes a poke, so a
   poked timer never waits for the state mutex its poker holds.  nan
   stops it. *)
let poke t due =
  let b = Bytes.create 8 in
  Bytes.set_int64_ne b 0 (Int64.bits_of_float due);
  try ignore (Unix.single_write t.poke_w b 0 8) with Unix.Unix_error _ -> ()

(* Run [f] under the state mutex, then wake the timer if the earliest
   deadline moved earlier, or if none is left to sleep toward once the
   granted jobs have run: the job that empties the list then answers
   before the timer competes for the processor. *)
let changing t f =
  locked t (fun () ->
      let r = f () in
      let due = next_due t in
      if
        (not t.closed)
        && (due < t.timer_due
           || (due = infinity && t.timer_due < infinity && t.unclaimed = 0))
      then begin
        t.timer_due <- due;
        poke t due
      end;
      r)

(* Outside the state mutex: count and time the waits that ended, wake
   the jobs. *)
let finish t (dropped, granted) =
  let now = Unix.gettimeofday () in
  if dropped <> [] then
    Obs.Metrics.incr ~by:(List.length dropped) t.metrics
      "srv.rwlock.park_expired";
  List.iter
    (fun w ->
      Obs.Metrics.record_time t.metrics "srv.rwlock.wait" (now -. w.parked_at);
      w.wake ())
    (dropped @ granted)

(* The last due poked since the pipe was last read, else [latest]. *)
let rec read_due t latest =
  let b = Bytes.create 512 in
  match Unix.read t.poke_r b 0 512 with
  | n -> read_due t (Some (Int64.float_of_bits (Bytes.get_int64_ne b (n - 8))))
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> latest

(* Sleep until [due]; then expire what is due, or take the new due from
   the pipe.  Expiry reads the due afresh under the state mutex and
   empties the pipe, whose pokes are all older. *)
let rec timer_loop t due =
  let timeout =
    if due = infinity then -1. else Float.max 0. (due -. Unix.gettimeofday ())
  in
  let due =
    match Unix.select [ t.poke_r ] [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> due
    | _ :: _, _, _ -> Option.value (read_due t None) ~default:due
    | [], _, _ ->
        let ended, due =
          locked t (fun () ->
              let now = Unix.gettimeofday () in
              let ended =
                drop t (fun w ->
                    Option.fold ~none:false ~some:(( > ) now) w.deadline)
              in
              t.timer_due <- next_due t;
              ignore (read_due t None);
              (ended, if t.closed then Float.nan else t.timer_due))
        in
        finish t ended;
        due
  in
  if not (Float.is_nan due) then timer_loop t due

let create metrics =
  let poke_r, poke_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock poke_r;
  Unix.set_nonblock poke_w;
  let t =
    {
      m = Mutex.create ();
      metrics;
      readers = 0;
      writer = None;
      writer_depth = 0;
      queue = [];
      closed = false;
      timer_due = infinity;
      unclaimed = 0;
      timer = None;
      poke_r;
      poke_w;
    }
  in
  t.timer <- Some (Thread.create (timer_loop t) infinity);
  t

let holds_write t ~session = locked t (fun () -> t.writer = Some session)

let acquire t w ~write =
  let outcome =
    changing t (fun () ->
        match w.state with
        | Granted hold ->
            w.state <- Idle;
            t.unclaimed <- t.unclaimed - 1;
            `Held hold
        | Parked -> `Parked
        | Idle -> (
            match take t ~session:w.session ~write ~queued:(t.queue <> []) with
            | Some hold -> `Held hold
            | None when t.closed -> `Closed
            | None ->
                w.write <- write;
                w.state <- Parked;
                w.parked_at <- Unix.gettimeofday ();
                t.queue <- t.queue @ [ w ];
                `Parked))
  in
  if outcome = `Parked then
    Obs.Metrics.incr t.metrics
      (if write then "srv.rwlock.parked_writes" else "srv.rwlock.parked_reads");
  outcome

let acquire_read t w = acquire t w ~write:false
let acquire_write t w = acquire t w ~write:true

let give_back t ~session = function
  | Shared -> t.readers <- t.readers - 1
  | Exclusive when t.writer = Some session ->
      t.writer_depth <- t.writer_depth - 1;
      if t.writer_depth = 0 then t.writer <- None
  | Exclusive -> ()

let update t f = finish t (changing t f)

let release t ~session hold =
  update t (fun () ->
      give_back t ~session hold;
      drop t (fun _ -> false))

(* The grant or the place in line goes back; [w] itself is not woken. *)
let abandon t w =
  update t (fun () ->
      (match w.state with
      | Granted hold ->
          w.state <- Idle;
          t.unclaimed <- t.unclaimed - 1;
          give_back t ~session:w.session hold
      | Idle | Parked -> ());
      ([], snd (drop t (fun o -> o == w))))

let unpark t ~session ~req =
  update t (fun () -> drop t (fun w -> w.session = session && w.req = req))

let forfeit_write t ~session =
  update t (fun () ->
      if t.writer = Some session then begin
        t.writer <- None;
        t.writer_depth <- 0
      end;
      drop t (fun w -> w.session = session))

let close t =
  let ended, timer =
    locked t (fun () ->
        if not t.closed then poke t Float.nan;
        t.closed <- true;
        let timer = t.timer in
        t.timer <- None;
        (drop t (fun _ -> true), timer))
  in
  finish t ended;
  Option.iter
    (fun th ->
      Thread.join th;
      Unix.close t.poke_r;
      Unix.close t.poke_w)
    timer
