(* A simple transaction layer: an undo log over catalog mutations plus a
   snapshot of the soft-constraint catalog.

   Paper §4.1 asks: a transaction violates (and so overturns) an ASC —
   "what then if transaction A aborts in the end anyway?  Is the ASC then
   re-instated?"  Here the answer is yes by construction: [rollback]
   undoes the data mutations in reverse order and restores every soft
   constraint's statement, kind, state and currency anchor to their
   values at [begin_], so an ASC dropped (or widened) only by the aborted
   transaction comes back exactly as it was.  Exception tables stay
   consistent throughout because the compensating operations flow through
   the same mutation listeners.

   The state is the database's: its open transaction's undo recorder and
   its id counter live in the {!Softdb.t}, so transactions on different
   databases never see each other.  Lifecycle events
   ([Softdb.Began]/[Committed]/[Rolled_back]) on the database's event
   stream let the durability layer ({!Recovery}) frame WAL records; the
   catalog restore goes through the {!Sc_catalog} setters for the same
   reason. *)

open Rel

type sc_snapshot = {
  snap_name : string;
  snap_statement : Soft_constraint.statement;
  snap_kind : Soft_constraint.kind;
  snap_state : Soft_constraint.state;
  snap_installed : int;
  snap_violations : int;
}

(* @guarded-by db.rwlock — a transaction exists only while its session
   owns the exclusive write lock (BEGIN..COMMIT) *)
type t = {
  id : int;
  sdb : Softdb.t;
  mutable log : Database.mutation list; (* newest first *)
  snapshots : sc_snapshot list;
  mutable active : bool;
  mutable recording : bool;
}

exception Transaction_error of string
exception Rollback_incomplete of exn list

let fault_points = [ "txn.begin"; "txn.pre_commit"; "txn.rollback" ]

let id t = t.id

let snapshot_catalog catalog =
  List.map
    (fun (sc : Soft_constraint.t) ->
      {
        snap_name = sc.Soft_constraint.name;
        snap_statement = sc.Soft_constraint.statement;
        snap_kind = sc.Soft_constraint.kind;
        snap_state = sc.Soft_constraint.state;
        snap_installed = sc.Soft_constraint.installed_at_mutations;
        snap_violations = sc.Soft_constraint.violation_count;
      })
    (Sc_catalog.all catalog)

let begin_ sdb =
  if Option.is_some (Softdb.txn_recorder sdb) then
    raise (Transaction_error "a transaction is already active");
  Obs.Fault.point "txn.begin";
  let t =
    {
      id = Softdb.next_txn_id sdb;
      sdb;
      log = [];
      snapshots = snapshot_catalog (Softdb.catalog sdb);
      active = true;
      recording = true;
    }
  in
  (* only direct mutations are logged: undoing one re-fires the
     listeners, which undo its cascades (an exception-table copy) *)
  let db = Softdb.db sdb in
  Softdb.set_txn_recorder sdb
    (Some
       (fun m ->
         if t.recording && not (Database.cascading db) then
           t.log <- m :: t.log));
  Softdb.notify sdb Softdb.Began;
  t

(* the transaction is over: the database may begin another *)
let finish t =
  t.active <- false;
  Softdb.set_txn_recorder t.sdb None

let commit t =
  if not t.active then raise (Transaction_error "transaction is not active");
  Obs.Fault.point "txn.pre_commit";
  finish t;
  Softdb.notify t.sdb Softdb.Committed

let rollback t =
  if not t.active then raise (Transaction_error "transaction is not active");
  let db = Softdb.db t.sdb in
  (* stop recording, then compensate newest-first; deleted rows come back
     under their original rid so older undo records still apply.  However
     the compensation ends, the transaction is over — a failure mid-undo
     must not leave a phantom active transaction — and the abort is
     published so the WAL frames it. *)
  Fun.protect ~finally:(fun () ->
      finish t;
      Softdb.notify t.sdb Softdb.Rolled_back)
  @@ fun () ->
  t.recording <- false;
  Obs.Fault.point "txn.rollback";
  (* a listener blowing up on one compensating operation must not strand
     the rest of the undo log: collect, keep compensating, re-raise *)
  let errors = ref [] in
  let guarded f = try f () with e -> errors := e :: !errors in
  List.iter
    (fun m ->
      guarded (fun () ->
          match m with
          | Database.Inserted { table; rid; _ } ->
              ignore (Database.delete db ~table rid)
          | Database.Deleted { table; rid; row } ->
              Database.restore db ~table rid (Tuple.copy row)
          | Database.Updated { table; rid; before; _ } ->
              Database.update db ~table rid (Tuple.copy before)))
    t.log;
  (* restore the soft-constraint catalog: statements widened or states
     overturned by this transaction come back (§4.1) *)
  let catalog = Softdb.catalog t.sdb in
  List.iter
    (fun snap ->
      match Sc_catalog.find catalog snap.snap_name with
      | Some sc ->
          guarded (fun () ->
              if sc.Soft_constraint.statement <> snap.snap_statement then
                Sc_catalog.set_statement catalog sc snap.snap_statement;
              Sc_catalog.set_kind catalog sc snap.snap_kind;
              Sc_catalog.set_state catalog sc snap.snap_state;
              Sc_catalog.set_anchor catalog sc snap.snap_installed;
              Sc_catalog.set_violations catalog sc snap.snap_violations)
      | None -> ())
    t.snapshots;
  match List.rev !errors with
  | [] -> ()
  | errs -> raise (Rollback_incomplete errs)

let mutation_count t = List.length t.log

(* Run [f] atomically: commit on success, roll back on exception. *)
let atomically sdb f =
  let t = begin_ sdb in
  match f () with
  | result ->
      commit t;
      Ok result
  | exception e ->
      rollback t;
      Error e
