(* A server session: one client's private state over the shared engine.

   Each session owns its transaction state, its prepared-statement
   handles, its settings, and its traffic counters; everything engine-
   shared (the Softdb.t, the plan cache, the metrics registry) arrives
   by reference and is protected by its own discipline — the plan cache
   and registries by internal mutexes, data/catalog/WAL by the
   single-writer lock ({!Rwlock}).

   A session's requests can be pipelined, but the scheduler never runs
   two of its jobs at once, and starts them in queue order ({!Scheduler}),
   which is exactly a session's contract (statements of one session
   execute in order of admission, sessions interleave freely).  The
   mutex alone would not keep that order: two workers holding a
   session's two jobs race for it, and the later one may win.

   The locking discipline, uniform across every request:
   session mutex → reader/writer lock → engine.  Reads take the shared
   side, mutating statements the exclusive side, and BEGIN takes the
   exclusive side *and keeps it* until COMMIT/ROLLBACK — the
   transaction's statements run under the ownership already held (the
   lock is session-owned and reentrant), so WAL appends and SC catalog
   transitions stay serialized while plain reads fan out between
   transactions.  A request the lock cannot serve parks: [handle]
   unwinds with [None], dropping the session mutex and the worker, and
   runs again from the top once {!Rwlock} hands it the lock.  Everything
   before the acquisition is a lookup or a parse, so the re-run reaches
   the same acquisition and takes its grant (an online build resumes
   from [t.builds]); the session's later requests park behind it in the
   lock's FIFO list, which keeps them in order.

   Canonical lock-rank table, machine-read by the static lock-order
   lint (Check.Lock_lint; see DESIGN.md §6 and §10).  Locks may only be
   acquired in strictly increasing rank order; every acquisition site
   declares what it takes and what is held with an [@acquires] (or
   [@waits]) annotation, and the lint fails the build on a rank
   inversion or an unannotated acquisition.  The runtime witness
   ({!Obs.Lockdep}) checks the same table against the acquisition
   orders the server actually exhibits; a rank the racecheck traffic
   cannot exercise carries [lockdep-waive] with the reason beside it.

   [srv.scheduler.queue] is taken with nothing else held: a worker pops
   its job before taking any lock, and the jobs a release wakes are
   queued once the waking job is done (the rwlock timer and session
   teardown wake them outside their own mutexes).  Nothing is acquired
   under it either: like [srv.breaker] it is a leaf, so any rank is
   sound, and it keeps 35.

   [srv.breaker] is a leaf: the circuit breaker ({!Breaker}) decides
   admit/reject with nothing else held and acquires nothing while held
   (its metrics tick after the mutex is released).

   [idx.lifecycle] guards one online index build's bookkeeping
   ({!Idx.Lifecycle}): the builder takes it per batch while holding the
   session and write locks, monitors take it with nothing else held to
   read progress, so it sits just above [db.rwlock].

   @lock-order srv.transport.chan rank=10 lockdep-waive (in-memory pair transport; racecheck traffic is TCP)
   @lock-order srv.transport.write rank=12
   @lock-order srv.breaker rank=15
   @lock-order srv.session rank=20
   @lock-order db.rwlock rank=30 reentrant
   @lock-order idx.lifecycle rank=32
   @lock-order srv.scheduler.queue rank=35
   @lock-order srv.rwlock.state rank=40
   @lock-order srv.server.registry rank=50
   @lock-order core.plan_cache rank=60
   @lock-order core.recalibration rank=70 lockdep-waive (needs accumulated SSC feedback to fire)
   @lock-order obs.metrics rank=80
   @lock-order obs.query_log rank=85
   @lock-order obs.lockdep rank=95 lockdep-waive (the witness's own mutex is not self-tracked)

   Prepared statements share plans across sessions: the cache key is the
   SQL text itself, so when session B prepares a query session A already
   compiled, B's handle binds to the same entry (a shared-hit metric
   ticks instead of a second optimization). *)

type state = Idle | Active | Closed

(* @guarded-by srv.session — the traffic counters are additionally read
   lock-free by [sys_columns], a deliberate stale-tolerant snapshot *)
type t = {
  id : int;
  sdb : Core.Softdb.t;
  cache : Core.Plan_cache.t;
  metrics : Obs.Metrics.t;
  lock : Mutex.t;
  mutable name : string;
  mutable state : state;
  mutable txn : Core.Txn.t option;
  mutable settings : (string * string) list;
  mutable queries : int; (* read statements executed *)
  mutable writes : int; (* mutating statements executed *)
  mutable errors : int;
  prepared : (string, string) Hashtbl.t; (* handle -> shared cache key *)
  cancelled : (int, unit) Hashtbl.t; (* request ids cancelled in queue *)
  mutable builds : (Rwlock.waiter * Idx.Lifecycle.t) list;
      (* online builds parked between batches, by request *)
}

let make ~id ~sdb ~cache ~metrics =
  {
    id;
    sdb;
    cache;
    metrics;
    lock = Mutex.create ();
    name = Printf.sprintf "session-%d" id;
    state = Idle;
    txn = None;
    settings = [];
    queries = 0;
    writes = 0;
    errors = 0;
    prepared = Hashtbl.create 8;
    cancelled = Hashtbl.create 8;
    builds = [];
  }

let locked t f =
  (* @acquires srv.session *)
  Obs.Lockdep.acquire "srv.session";
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () ->
      Mutex.unlock t.lock;
      Obs.Lockdep.release "srv.session")
    f

let id t = t.id

let setting t key =
  locked t (fun () -> List.assoc_opt key t.settings)

let mark_cancelled t target =
  locked t (fun () -> Hashtbl.replace t.cancelled target ())

let is_cancelled t req_id =
  locked t (fun () -> Hashtbl.mem t.cancelled req_id)

let state_string t =
  match t.state with Idle -> "idle" | Active -> "active" | Closed -> "closed"

(* The sys.sessions view; counters are read without the session mutex —
   they are word-sized and a snapshot that is one query stale is fine
   for an observability view. *)
let sys_columns =
  Obs.Sys_tables.
    [
      int "session_id" (fun t -> t.id);
      str "name" (fun (t : t) -> t.name);
      str "state" state_string;
      bool "in_txn" (fun t -> t.txn <> None);
      int "queries" (fun t -> t.queries);
      int "writes" (fun t -> t.writes);
      int "errors" (fun t -> t.errors);
      int "prepared" (fun t -> Hashtbl.length t.prepared);
    ]

(* ---- statement execution -------------------------------------------------- *)

let failed code fmt =
  Printf.ksprintf (fun message -> Proto.Failed { code; message }) fmt

(* Unwinds a parked request out of [handle]; never escapes it. *)
exception Parked

(* Engine exceptions, folded to protocol errors the same way the CLI
   folds them to stderr lines.  The final catch-all keeps the protocol
   invariant that every request gets a response: an exception this list
   missed must not leave the client waiting forever.  [Parked] is the
   one exception that must pass — it is not an answer. *)
let guard_engine f =
  try f () with
  | Sqlfe.Parser.Parse_error m -> failed Proto.Parse_error "parse error: %s" m
  | Sqlfe.Lexer.Lex_error (m, pos) ->
      failed Proto.Parse_error "lex error at %d: %s" pos m
  | Rel.Checker.Constraint_violation v ->
      failed Proto.Exec_error "%s" (Fmt.str "%a" Rel.Checker.pp_violation v)
  | Rel.Database.Catalog_error m | Core.Softdb.Error m ->
      failed Proto.Exec_error "%s" m
  | Rel.Table.Row_error m -> failed Proto.Exec_error "row error: %s" m
  | Rel.Expr.Binding.Unresolved r ->
      failed Proto.Exec_error "unknown column: %s"
        (Fmt.str "%a" Rel.Expr.pp_col_ref r)
  | Opt.Planner.Unplannable m -> failed Proto.Exec_error "cannot plan: %s" m
  | Opt.Logical.Unsupported m -> failed Proto.Exec_error "unsupported: %s" m
  | Core.Txn.Transaction_error m -> failed Proto.Txn_error "%s" m
  | Core.Plan_cache.No_such_plan m ->
      failed Proto.Exec_error "no such prepared plan: %s" m
  | Transport.Closed -> failed Proto.Session_closed "connection closed"
  | Parked -> raise Parked
  | exn -> failed Proto.Exec_error "internal error: %s" (Printexc.to_string exn)

(* Tuple.t is transparently Value.t array, so rows cross the protocol
   boundary without copying. *)
let result_to_payload (r : Exec.Executor.result) =
  Proto.Result_set
    { columns = r.Exec.Executor.columns; rows = r.Exec.Executor.rows }

let outcome_to_payload = function
  | Core.Softdb.Rows r -> result_to_payload r
  | Core.Softdb.Affected n -> Proto.Affected n
  | Core.Softdb.Report report ->
      Proto.Explained (Fmt.str "%a" Opt.Explain.pp report)
  | Core.Softdb.Analyzed a ->
      Proto.Explained (Fmt.str "%a" Opt.Explain.pp_analysis a)
  | Core.Softdb.Done msg -> Proto.Ok_msg msg

let is_read_statement = function
  | Sqlfe.Ast.Query _ | Sqlfe.Ast.Explain _ | Sqlfe.Ast.Explain_analyze _ ->
      true
  | _ -> false

let shutting_down () = failed Proto.Shutting_down "server shutting down"

let with_hold ~rwlock t hold f =
  Obs.Lockdep.acquire ~reentrant:true "db.rwlock";
  Fun.protect
    ~finally:(fun () ->
      Rwlock.release rwlock ~session:t.id hold;
      Obs.Lockdep.release "db.rwlock")
    f

(* Run [f] under the lock, or park the request (see the header). *)
let under_lock ~rwlock ~waiter t ~write f =
  match
    (* @acquires db.rwlock while srv.session *)
    if write then Rwlock.acquire_write rwlock waiter
    else Rwlock.acquire_read rwlock waiter
  with
  | `Held hold -> with_hold ~rwlock t hold f
  | `Parked -> raise Parked
  | `Closed -> shutting_down ()

(* A successful CREATE INDEX ... ONLINE returned after registering only
   the write-only shell; the session now drives the backfill itself —
   one exclusive-lock acquisition per batch, so concurrent readers
   interleave between batches, which is the ONLINE promise.  A batch
   that meets a held lock parks the request like any other: the build is
   kept in [t.builds] and the re-run carries on from there.  The request
   deadline bounds the whole build: on expiry the index is demoted
   (never an error — traffic continues against the write-only tree), and
   a unique violation found mid-backfill demotes the same way. *)
let rec drive_online_build ~rwlock ~waiter ~deadline t build =
  let expired () =
    match deadline with Some d -> Unix.gettimeofday () > d | None -> false
  in
  let finish () =
    let name = Rel.Index.name (Idx.Lifecycle.index build) in
    match Idx.Lifecycle.finish build with
    | Idx.Lifecycle.Built ->
        Obs.Metrics.incr t.metrics "idx.online_builds";
        Proto.Ok_msg
          (Printf.sprintf "created index %s online (%d rows backfilled)" name
             (Idx.Lifecycle.progress build).Idx.Lifecycle.p_inserted)
    | Idx.Lifecycle.Demoted_build reason ->
        Obs.Metrics.incr t.metrics "idx.online_demotions";
        Proto.Ok_msg
          (Printf.sprintf "index %s demoted during online build: %s" name
             reason)
  in
  if expired () then begin
    Idx.Lifecycle.demote build "online build deadline exceeded";
    finish ()
  end
  else
    match
      (* @acquires db.rwlock while srv.session *)
      Rwlock.acquire_write rwlock waiter
    with
    | `Held hold ->
        if with_hold ~rwlock t hold (fun () -> Idx.Lifecycle.step build) then
          drive_online_build ~rwlock ~waiter ~deadline t build
        else finish ()
    | `Parked ->
        t.builds <- (waiter, build) :: t.builds;
        raise Parked
    | `Closed ->
        Idx.Lifecycle.demote build "server shutting down";
        finish ()

let online_build ~rwlock ~waiter ~deadline t index_name =
  let db = Core.Softdb.db t.sdb in
  match Rel.Database.find_index_by_name db index_name with
  | Some idx when Rel.Index.state idx = Rel.Index.Write_only ->
      drive_online_build ~rwlock ~waiter ~deadline t
        (Idx.Lifecycle.start db idx)
  | Some _ | None ->
      (* replayed/raced to another state: nothing left to drive *)
      Proto.Ok_msg (Printf.sprintf "created index %s" index_name)

(* An executed statement counts in sys.sessions as a read, a write or an
   error. *)
let count t ~write payload =
  (match payload with
  | Proto.Failed _ -> t.errors <- t.errors + 1
  | _ when write -> t.writes <- t.writes + 1
  | _ -> t.queries <- t.queries + 1);
  payload

let exec_sql ~rwlock ~waiter ~deadline t sql =
  guard_engine (fun () ->
      let stmt = Sqlfe.Parser.parse_statement sql in
      let write = not (is_read_statement stmt) in
      let payload =
        under_lock ~rwlock ~waiter t ~write (fun () ->
            guard_engine (fun () ->
                outcome_to_payload (Core.Softdb.exec_statement t.sdb stmt)))
      in
      let payload =
        match (stmt, payload) with
        | ( Sqlfe.Ast.Create_index { index_name; online = true; _ },
            Proto.Ok_msg _ ) ->
            guard_engine (fun () ->
                online_build ~rwlock ~waiter ~deadline t index_name)
        | _ -> payload
      in
      count t ~write payload)

(* Prepared plans are shared across sessions by SQL text: preparing a
   query someone else already compiled binds to the same entry. *)
let prepare ~rwlock ~waiter t ~handle sql =
  guard_engine (fun () ->
      let key = "sql:" ^ sql in
      under_lock ~rwlock ~waiter t ~write:false (fun () ->
          guard_engine (fun () ->
              let _, created =
                Core.Plan_cache.find_or_prepare t.cache ~name:key sql
              in
              if not created then
                Obs.Metrics.incr t.metrics "plan_cache.shared_hits";
              Hashtbl.replace t.prepared handle key;
              Proto.Ok_msg (Printf.sprintf "prepared %s" handle))))

let execute_prepared ~rwlock ~waiter t handle =
  match Hashtbl.find_opt t.prepared handle with
  | None -> failed Proto.Exec_error "no prepared handle %s in this session" handle
  | Some key ->
      guard_engine (fun () ->
          count t ~write:false
            (under_lock ~rwlock ~waiter t ~write:false (fun () ->
                 guard_engine (fun () ->
                     (* re-prepare transparently if the shared entry was
                        LRU-evicted since this session bound the handle *)
                     (match Core.Plan_cache.find t.cache key with
                     | Some _ -> ()
                     | None ->
                         ignore
                           (Core.Plan_cache.prepare t.cache ~name:key
                              (String.sub key 4 (String.length key - 4))));
                     result_to_payload (Core.Plan_cache.execute t.cache key)))))

(* BEGIN takes the write lock and keeps it: the transaction's later
   statements run under this ownership, and COMMIT/ROLLBACK release it.
   A second BEGIN in the same session is an error (no nesting). *)
let begin_txn ~rwlock ~waiter t =
  if t.txn <> None then failed Proto.Txn_error "already in a transaction"
  else
    match
      (* @acquires db.rwlock while srv.session *)
      Rwlock.acquire_write rwlock waiter
    with
    | `Parked -> raise Parked
    | `Closed -> shutting_down ()
    | `Held hold -> (
        (* the hold spans BEGIN..COMMIT across worker threads, so the
           witness records the acquisition without a per-thread hold *)
        Obs.Lockdep.pulse "db.rwlock";
        let payload =
          guard_engine (fun () ->
              let txn = Core.Txn.begin_ t.sdb in
              t.txn <- Some txn;
              Proto.Ok_msg
                (Printf.sprintf "transaction %d started" (Core.Txn.id txn)))
        in
        (match payload with
        | Proto.Failed _ -> Rwlock.release rwlock ~session:t.id hold
        | _ -> ());
        count t ~write:true payload)

let end_txn ~rwlock t ~commit =
  match t.txn with
  | None -> failed Proto.Txn_error "no transaction in progress"
  | Some txn ->
      let payload =
        guard_engine (fun () ->
            (if commit then Core.Txn.commit txn else Core.Txn.rollback txn);
            Proto.Ok_msg
              (Printf.sprintf "transaction %d %s" (Core.Txn.id txn)
                 (if commit then "committed" else "rolled back")))
      in
      (* however the commit/rollback went, the transaction is over and
         the engine must not stay wedged behind this session *)
      t.txn <- None;
      Rwlock.release rwlock ~session:t.id Rwlock.Exclusive;
      count t ~write:true payload

(* ---- request dispatch ------------------------------------------------------ *)

let hello t client =
  locked t (fun () ->
      if client <> "" then t.name <- client;
      Proto.Hello_ok { session = t.id })

(* The online build the request left parked, off [t.builds]. *)
let take_build t waiter =
  let mine, others = List.partition (fun (w, _) -> w == waiter) t.builds in
  t.builds <- others;
  List.map snd mine

(* Give back what an answered request still holds: a grant it did not
   use, or a build it parked (demoted), so it can wedge nothing. *)
let drop_request ~rwlock t waiter =
  List.iter
    (fun build -> Idx.Lifecycle.demote build "request abandoned")
    (take_build t waiter);
  Rwlock.abandon rwlock waiter

let abandon ~rwlock t waiter =
  locked t (fun () -> drop_request ~rwlock t waiter)

let dispatch ~rwlock ~waiter ~deadline t (payload : Proto.request_payload) =
  match (take_build t waiter, payload) with
  | build :: _, _ ->
      count t ~write:true
        (guard_engine (fun () ->
             drive_online_build ~rwlock ~waiter ~deadline t build))
  | [], Proto.Statement sql -> exec_sql ~rwlock ~waiter ~deadline t sql
  | [], Proto.Prepare { handle; sql } ->
      prepare ~rwlock ~waiter t ~handle sql
  | [], Proto.Execute { handle } -> execute_prepared ~rwlock ~waiter t handle
  | [], Proto.Begin_txn -> begin_txn ~rwlock ~waiter t
  | [], Proto.Commit_txn -> end_txn ~rwlock t ~commit:true
  | [], Proto.Rollback_txn -> end_txn ~rwlock t ~commit:false
  | [], Proto.Set { key; value } ->
      t.settings <- (key, value) :: List.remove_assoc key t.settings;
      Proto.Ok_msg (Printf.sprintf "set %s" key)
  | [], (Proto.Hello _ | Proto.Cancel _ | Proto.Ping | Proto.Quit) ->
      (* handled inline by the connection loop; reaching a worker means a
         server bug, not a client error *)
      failed Proto.Exec_error "request cannot be queued"

(* Runs on a worker domain, under this session's mutex; the scheduler
   runs one session's pipelined jobs one at a time, in admission order.
   [None] when the request parked. *)
let handle ~rwlock ~waiter ~deadline t payload =
  locked t (fun () ->
      let answer =
        if t.state = Closed then
          Some (failed Proto.Session_closed "session is closed")
        else begin
          t.state <- Active;
          Fun.protect
            ~finally:(fun () -> if t.state = Active then t.state <- Idle)
            (fun () ->
              try Some (dispatch ~rwlock ~waiter ~deadline t payload)
              with Parked -> None)
        end
      in
      if Option.is_some answer then drop_request ~rwlock t waiter;
      answer)

(* Session teardown, called from the connection loop after Quit or EOF:
   roll back an open transaction, surrender any write ownership and
   wake the session's parked requests, mark closed so they and any
   still-queued jobs answer Session_closed. *)
let close ~rwlock t =
  locked t (fun () ->
      if t.state <> Closed then begin
        (match t.txn with
        | Some txn ->
            (* rollback ends the transaction however its undo fails *)
            (try Core.Txn.rollback txn with _ -> ());
            t.txn <- None
        | None -> ());
        t.state <- Closed
      end);
  (* outside the session mutex: the requests it wakes answer
     Session_closed under it *)
  Rwlock.forfeit_write rwlock ~session:t.id
