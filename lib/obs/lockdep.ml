(* Runtime lock-order witness (lockdep).

   The static lints (Check.Lock_lint / Check.Guard_lint) reason about
   the locking discipline the annotations *declare*.  This module
   observes the discipline the server actually *exhibits*: when enabled,
   every instrumented lock acquisition records, per thread, which locks
   were already held, growing an acquisition-order edge graph
   (held -> acquired) with occurrence counts.  Check.Lockdep_lint then
   cross-validates the observed graph against the declared rank table —
   every edge must go strictly uphill in rank, and every declared rank
   must have been exercised by the run (or carry [lockdep-waive]).

   Two violation classes are also caught live, without any rank table:
   - re-acquiring a lock the same thread already holds, unless the
     acquisition is marked reentrant;
   - an acquisition that closes a cycle in the edge graph — the
     canonical AB/BA deadlock shape, caught even when the interleaving
     that would actually deadlock never happens.

   Off by default; [enable] (or SOFTDB_LOCKDEP=1 in the environment)
   turns it on.  The disabled path is one Atomic.get per call site, so
   instrumentation stays resident in production builds.  State is
   process-global because the locks it tracks span subsystems that
   share no registry.

   Threads are keyed by [Thread.id]: the server mixes domains and
   threads, and distinct threads multiplexed onto one domain must not
   have their held-stacks conflated.  Release is tolerant (removing a
   name that is not on the stack is a no-op) and [pulse] records an
   acquisition without a residual hold — together these accommodate the
   one deliberately unbalanced site, the session write lock taken at
   BEGIN on one worker and released at COMMIT on another.

   Determinism contract: for a fixed request mix the *edge set*, the
   *acquired-lock set*, and the *max held depth* are structural — fixed
   by which code paths run, not by interleavings — so they are safe to
   gate in BENCH.json.  Per-edge counts are deterministic for a fixed
   workload but are not gated, to keep the headline numbers robust. *)

(* ---- enablement ---------------------------------------------------------- *)

(* @guarded-by none: a lone atomic read/write flag *)
let enabled_flag = Atomic.make false
let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false
let enabled () = Atomic.get enabled_flag

let () =
  match Sys.getenv_opt "SOFTDB_LOCKDEP" with
  | Some ("1" | "true" | "on") -> enable ()
  | _ -> ()

(* ---- witness state -------------------------------------------------------- *)

(* The witness's own mutex ranks above every tracked lock (it is taken
   while any of them is held) and is itself untracked — tracking it
   would recurse. *)
let state = Mutex.create ()

(* @guarded-by obs.lockdep *)
let held : (int, string list) Hashtbl.t = Hashtbl.create 64

(* @guarded-by obs.lockdep *)
let edges : (string * string, int ref) Hashtbl.t = Hashtbl.create 64

(* @guarded-by obs.lockdep *)
let succs : (string, (string, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 64

(* @guarded-by obs.lockdep *)
let seen : (string, int ref) Hashtbl.t = Hashtbl.create 64

(* @guarded-by obs.lockdep *)
let violation_set : (string, unit) Hashtbl.t = Hashtbl.create 8

(* @guarded-by obs.lockdep *)
let max_depth = ref 0

let locked f =
  (* @acquires obs.lockdep while srv.transport.chan srv.transport.write srv.breaker srv.session db.rwlock idx.lifecycle srv.scheduler.queue srv.rwlock.state srv.server.registry core.plan_cache core.recalibration obs.metrics obs.query_log *)
  Mutex.lock state;
  Fun.protect ~finally:(fun () -> Mutex.unlock state) f

let reset () =
  locked (fun () ->
      Hashtbl.reset held;
      Hashtbl.reset edges;
      Hashtbl.reset succs;
      Hashtbl.reset seen;
      Hashtbl.reset violation_set;
      max_depth := 0)

let add_violation msg = Hashtbl.replace violation_set msg ()

(* ---- edge graph ----------------------------------------------------------- *)

let successors name =
  match Hashtbl.find_opt succs name with
  | Some s -> List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) s [])
  | None -> []

(* Path from [src] to [dst] in the edge graph, successors visited in
   sorted order so reported cycles are deterministic. *)
let find_path src dst =
  let visited = Hashtbl.create 16 in
  let rec go node path =
    if node = dst then Some (List.rev (node :: path))
    else if Hashtbl.mem visited node then None
    else begin
      Hashtbl.replace visited node ();
      List.fold_left
        (fun acc nxt ->
          match acc with Some _ -> acc | None -> go nxt (node :: path))
        None (successors node)
    end
  in
  go src []

let record_edge from_lock to_lock =
  match Hashtbl.find_opt edges (from_lock, to_lock) with
  | Some r -> incr r
  | None ->
      Hashtbl.replace edges (from_lock, to_lock) (ref 1);
      let s =
        match Hashtbl.find_opt succs from_lock with
        | Some s -> s
        | None ->
            let s = Hashtbl.create 4 in
            Hashtbl.replace succs from_lock s;
            s
      in
      Hashtbl.replace s to_lock ();
      (* a fresh edge may close a cycle: can [to_lock] reach back? *)
      if from_lock <> to_lock then
        match find_path to_lock from_lock with
        | Some path ->
            add_violation
              (Printf.sprintf "lock-order cycle: %s"
                 (String.concat " -> " (from_lock :: path)))
        | None -> ()

let mark_seen name =
  match Hashtbl.find_opt seen name with
  | Some r -> incr r
  | None -> Hashtbl.replace seen name (ref 1)

let record_acquisition stack name =
  mark_seen name;
  List.iter
    (fun h -> if h <> name then record_edge h name)
    (List.sort_uniq compare stack)

(* ---- the tracked operations ----------------------------------------------- *)

let thread_stack tid = Option.value ~default:[] (Hashtbl.find_opt held tid)

let acquire ?(reentrant = false) name =
  if enabled () then
    locked (fun () ->
        let tid = Thread.id (Thread.self ()) in
        let stack = thread_stack tid in
        if List.mem name stack && not reentrant then
          add_violation
            (Printf.sprintf "re-acquired non-reentrant lock %s" name);
        record_acquisition stack name;
        let stack = name :: stack in
        Hashtbl.replace held tid stack;
        let depth = List.length (List.sort_uniq compare stack) in
        if depth > !max_depth then max_depth := depth)

let release name =
  if enabled () then
    locked (fun () ->
        let tid = Thread.id (Thread.self ()) in
        let rec drop = function
          | [] -> [] (* tolerant: releasing an untracked hold is a no-op *)
          | h :: tl -> if h = name then tl else h :: drop tl
        in
        match drop (thread_stack tid) with
        | [] -> Hashtbl.remove held tid
        | stack -> Hashtbl.replace held tid stack)

(* An acquisition with no residual hold: records edges and coverage but
   leaves the per-thread stack untouched.  For the session write lock,
   which BEGIN acquires on one worker thread and COMMIT releases on
   another — a per-thread stack cannot carry that hold soundly. *)
let pulse name =
  if enabled () then
    locked (fun () ->
        let tid = Thread.id (Thread.self ()) in
        record_acquisition (thread_stack tid) name)

(* ---- views ---------------------------------------------------------------- *)

let edge_list () =
  locked (fun () ->
      Hashtbl.fold (fun (a, b) r acc -> (a, b, !r) :: acc) edges []
      |> List.sort compare)

let lock_list () =
  locked (fun () ->
      Hashtbl.fold (fun name _ acc -> name :: acc) seen []
      |> List.sort compare)

let violations () =
  locked (fun () ->
      Hashtbl.fold (fun v () acc -> v :: acc) violation_set []
      |> List.sort compare)

let edges_observed () = locked (fun () -> Hashtbl.length edges)
let max_held_depth () = locked (fun () -> !max_depth)

(* ---- the graph, for Check.Lockdep_lint ------------------------------------ *)

type graph = {
  g_locks : string list;  (* every lock the run acquired, sorted *)
  g_edges : (string * string * int) list;  (* held -> acquired, sorted *)
  g_violations : string list;
}

let graph () =
  {
    g_locks = lock_list ();
    g_edges = edge_list ();
    g_violations = violations ();
  }
