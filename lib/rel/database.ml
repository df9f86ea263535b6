(* The database catalog: tables, secondary indexes, integrity constraints,
   and a mutation log hook.

   All data modification goes through this module so that (a) enforced
   constraints are checked, (b) indexes stay consistent, and (c) mutation
   listeners — the soft-constraint maintenance machinery of {!Core} — see
   every change.  Informational constraints are stored but never checked,
   exactly as in the paper (§1). *)

type mutation =
  | Inserted of { table : string; rid : Table.rid; row : Tuple.t }
  | Deleted of { table : string; rid : Table.rid; row : Tuple.t }
  | Updated of {
      table : string;
      rid : Table.rid;
      before : Tuple.t;
      after : Tuple.t;
    }

(* A virtual table materializes on demand from a generator; nothing is
   stored.  Used for the sys.* observability views. *)
type virtual_def = { vschema : Schema.t; generate : unit -> Tuple.t list }

type t = {
  tables : (string, Table.t) Hashtbl.t;
  indexes : (string, Index.t) Hashtbl.t; (* by index name *)
  virtuals : (string, virtual_def) Hashtbl.t;
  partitions : (string, Partition.t) Hashtbl.t; (* by table name *)
  mutable constraints : Icdef.t list;
  mutable listeners : (mutation -> unit) list;
  mutable notifying : int; (* listener passes in progress, nested *)
  mutable index_listeners : (Index.t -> unit) list;
      (* index lifecycle transitions (write-only/backfilling/readable/
         demoted): the WAL link logs them for crash recovery *)
}

exception Catalog_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Catalog_error s)) fmt

let create () =
  {
    tables = Hashtbl.create 16;
    indexes = Hashtbl.create 16;
    virtuals = Hashtbl.create 8;
    partitions = Hashtbl.create 4;
    constraints = [];
    listeners = [];
    notifying = 0;
    index_listeners = [];
  }

let norm = String.lowercase_ascii

(* ---- tables ---------------------------------------------------------- *)

let create_table t schema =
  let key = norm schema.Schema.table in
  if Hashtbl.mem t.tables key || Hashtbl.mem t.virtuals key then
    error "table %s already exists" schema.Schema.table;
  let table = Table.create schema in
  Hashtbl.replace t.tables key table;
  table

(* Registering under an existing name replaces the previous generator, so
   a fresh facade over the same database can rebind its views. *)
let register_virtual t ~name ~schema generate =
  let key = norm name in
  if Hashtbl.mem t.tables key then
    error "cannot register virtual table %s: a base table exists" name;
  Hashtbl.replace t.virtuals key { vschema = schema; generate }

let materialize_virtual (v : virtual_def) =
  let tbl = Table.create v.vschema in
  List.iter (fun row -> ignore (Table.insert tbl row)) (v.generate ());
  tbl

let find_table t name =
  match Hashtbl.find_opt t.tables (norm name) with
  | Some _ as found -> found
  | None ->
      Option.map materialize_virtual (Hashtbl.find_opt t.virtuals (norm name))

let table_exn t name =
  match find_table t name with
  | Some table -> table
  | None -> error "no such table: %s" name

let table_names t =
  Hashtbl.fold (fun _ table acc -> Table.name table :: acc) t.tables []
  |> List.sort String.compare

let drop_table t name =
  let key = norm name in
  if not (Hashtbl.mem t.tables key) then error "no such table: %s" name;
  Hashtbl.remove t.tables key;
  let stale =
    Hashtbl.fold
      (fun iname idx acc ->
        if norm (Index.table_name idx) = key then iname :: acc else acc)
      t.indexes []
  in
  List.iter (Hashtbl.remove t.indexes) stale;
  Hashtbl.remove t.partitions key;
  t.constraints <-
    List.filter (fun ic -> norm ic.Icdef.table <> key) t.constraints

(* ---- partitioning ----------------------------------------------------- *)

(* Declaring a partitioning routes every existing row into its segment;
   from then on the mutation paths below keep segment membership exact.
   The heap is untouched — rids, indexes and scans all keep working —
   so partitioning is purely additive metadata plus bookkeeping. *)
let declare_partitioning t ~table spec =
  let key = norm table in
  if Hashtbl.mem t.virtuals key then
    error "cannot partition virtual table %s" table;
  let tbl = table_exn t table in
  if Hashtbl.mem t.partitions key then
    error "table %s is already partitioned" table;
  let part =
    try Partition.make (Table.schema tbl) spec
    with Invalid_argument m -> error "cannot partition %s: %s" table m
  in
  Table.iteri tbl ~f:(fun rid row -> Partition.add part (Partition.route part row) rid);
  Hashtbl.replace t.partitions key part;
  part

let partitioning t table = Hashtbl.find_opt t.partitions (norm table)

let partitioned_tables t =
  Hashtbl.fold (fun key _ acc -> key :: acc) t.partitions []
  |> List.sort String.compare

let seg_insert t table rid row =
  match partitioning t table with
  | None -> ()
  | Some part -> Partition.add part (Partition.route part row) rid

let seg_delete t table rid row =
  match partitioning t table with
  | None -> ()
  | Some part -> Partition.remove part (Partition.route part row) rid

let seg_update t table rid ~before ~after =
  match partitioning t table with
  | None -> ()
  | Some part ->
      let src = Partition.route part before
      and dst = Partition.route part after in
      if src <> dst then begin
        Partition.remove part src rid;
        Partition.add part dst rid
      end
      else
        (* in-place churn still ages the segment's currency anchor *)
        Partition.touch part src

(* ---- indexes ---------------------------------------------------------- *)

let create_index t ~name ~table ~columns ?(unique = false) () =
  let key = norm name in
  if Hashtbl.mem t.indexes key then error "index %s already exists" name;
  let tbl = table_exn t table in
  let idx = Index.create ~name ~table:tbl ~columns ~unique () in
  Hashtbl.replace t.indexes key idx;
  idx

(* The online-build entry point: an empty write-only shell registered in
   the catalog immediately, so every mutation from this moment on
   maintains it; the backfill (lib/idx) covers the pre-existing rows. *)
let create_index_shell t ~name ~table ~columns ?(unique = false) () =
  let key = norm name in
  if Hashtbl.mem t.indexes key then error "index %s already exists" name;
  let tbl = table_exn t table in
  let idx = Index.create_shell ~name ~table:tbl ~columns ~unique () in
  Hashtbl.replace t.indexes key idx;
  idx

let find_index_by_name t name = Hashtbl.find_opt t.indexes (norm name)

let all_indexes t =
  Hashtbl.fold (fun _ idx acc -> idx :: acc) t.indexes []
  |> List.sort (fun a b -> String.compare (Index.name a) (Index.name b))

let on_index_state t f = t.index_listeners <- f :: t.index_listeners

let set_index_state t idx state =
  if Index.state idx <> state then begin
    Index.set_state idx state;
    List.iter (fun f -> f idx) t.index_listeners
  end

(* Discard and rebuild an index from the current heap contents; the
   result is readable and consistent by construction.  Used by WAL
   replay when a logged [Readable] transition is reached, and by an
   explicit repair of a demoted index. *)
let rebuild_index t name =
  let key = norm name in
  match Hashtbl.find_opt t.indexes key with
  | None -> error "no such index: %s" name
  | Some old ->
      let tbl = table_exn t (Index.table_name old) in
      let idx =
        Index.create ~name:(Index.name old) ~table:tbl
          ~columns:(Index.columns old) ~unique:(Index.is_unique old) ()
      in
      Hashtbl.replace t.indexes key idx;
      idx

let drop_index t name =
  let key = norm name in
  if not (Hashtbl.mem t.indexes key) then error "no such index: %s" name;
  Hashtbl.remove t.indexes key

let indexes_on t table =
  let key = norm table in
  Hashtbl.fold
    (fun _ idx acc ->
      if norm (Index.table_name idx) = key then idx :: acc else acc)
    t.indexes []

(* an index whose key columns are exactly [columns] (order-insensitive for
   uniqueness purposes, order-sensitive otherwise) *)
let find_index_on t table columns =
  let want = List.map norm columns in
  List.find_opt
    (fun idx -> List.map norm (Index.columns idx) = want)
    (indexes_on t table)

(* a single-column index on [column], for access-path selection *)
let find_index_on_column t table column =
  List.find_opt
    (fun idx ->
      match Index.columns idx with
      | [ c ] -> norm c = norm column
      | _ -> false)
    (indexes_on t table)

(* ---- constraints ------------------------------------------------------ *)

let checker_env t =
  {
    Checker.find_table = (fun name -> find_table t name);
    Checker.find_index =
      (fun table columns -> find_index_on t table columns);
  }

let add_constraint t ic =
  if List.exists (fun c -> norm c.Icdef.name = norm ic.Icdef.name)
       t.constraints
  then error "constraint %s already exists" ic.Icdef.name;
  ignore (table_exn t ic.Icdef.table);
  (* adding an *enforced* constraint requires the current data to satisfy
     it; informational constraints are taken on faith (the paper's
     external promise) *)
  if Icdef.is_enforced ic then begin
    match Checker.verify (checker_env t) ic with
    | [] -> ()
    | (_, v) :: _ ->
        error "cannot add constraint %s: existing data violates it (%s)"
          ic.Icdef.name v.Checker.reason
  end;
  t.constraints <- t.constraints @ [ ic ]

let drop_constraint t name =
  let before = List.length t.constraints in
  t.constraints <-
    List.filter (fun c -> norm c.Icdef.name <> norm name) t.constraints;
  if List.length t.constraints = before then
    error "no such constraint: %s" name

let constraints t = t.constraints

let constraints_on t table =
  List.filter (fun c -> norm c.Icdef.table = norm table) t.constraints

let find_constraint t name =
  List.find_opt (fun c -> norm c.Icdef.name = norm name) t.constraints

(* ---- mutation listeners ----------------------------------------------- *)

let on_mutation t f = t.listeners <- f :: t.listeners

(* A listener that raises does not keep the mutation from the others:
   the open transaction's undo recorder must see every mutation that
   reached storage, whichever listener fails.  The first failure is
   re-raised once all have run. *)
let notify t m =
  t.notifying <- t.notifying + 1;
  let failures =
    List.filter_map
      (fun f ->
        try
          f m;
          None
        with e -> Some e)
      t.listeners
  in
  t.notifying <- t.notifying - 1;
  match failures with [] -> () | e :: _ -> raise e

let cascading t = t.notifying > 1

(* ---- data modification ------------------------------------------------ *)

let enforced_on t table =
  List.filter Icdef.is_enforced (constraints_on t table)

let check_insert_ok t table row =
  let env = checker_env t in
  List.iter
    (fun ic ->
      match Checker.check_row env ic table row () with
      | Some v -> raise (Checker.Constraint_violation v)
      | None -> ())
    (enforced_on t (Table.name table))

let writable_exn t table =
  if Hashtbl.mem t.virtuals (norm table) then
    error "table %s is a read-only virtual table" table;
  table_exn t table

let insert t ~table row =
  let tbl = writable_exn t table in
  (match Tuple.conform (Table.schema tbl) row with
  | Error msg -> raise (Table.Row_error msg)
  | Ok _ -> ());
  check_insert_ok t tbl row;
  let rid = Table.insert tbl row in
  let row = Table.get_exn tbl rid in
  (try List.iter (fun idx -> Index.on_insert idx rid row) (indexes_on t table)
   with Index.Unique_violation _ as e ->
     (* roll the heap insert back so storage and indexes agree: the
        indexes that took the row before the veto drop it again *)
     List.iter (fun idx -> Index.on_delete idx rid row) (indexes_on t table);
     ignore (Table.delete tbl rid);
     raise e);
  seg_insert t table rid row;
  notify t (Inserted { table = Table.name tbl; rid; row });
  rid

let delete t ~table rid =
  let tbl = writable_exn t table in
  match Table.get tbl rid with
  | None -> false
  | Some row ->
      (match
         Checker.check_no_dangling_children (checker_env t)
           ~all_constraints:t.constraints ~parent:tbl row
       with
      | Some v -> raise (Checker.Constraint_violation v)
      | None -> ());
      ignore (Table.delete tbl rid);
      List.iter (fun idx -> Index.on_delete idx rid row) (indexes_on t table);
      seg_delete t table rid row;
      notify t (Deleted { table = Table.name tbl; rid; row });
      true

let update t ~table rid row =
  let tbl = writable_exn t table in
  let before = Table.get_exn tbl rid in
  let after =
    match Tuple.conform (Table.schema tbl) row with
    | Error msg -> raise (Table.Row_error msg)
    | Ok r -> r
  in
  let env = checker_env t in
  List.iter
    (fun ic ->
      match Checker.check_row env ic tbl after ~exclude:rid () with
      | Some v -> raise (Checker.Constraint_violation v)
      | None -> ())
    (enforced_on t (Table.name tbl));
  (match
     Checker.check_no_dangling_children env ~all_constraints:t.constraints
       ~parent:tbl before
   with
  | Some v ->
      (* only a problem if the referenced key actually changed *)
      let changed =
        not (Tuple.equal before after)
        &&
        match find_constraint t v.Checker.constraint_name with
        | Some { Icdef.body = Icdef.Foreign_key { ref_columns; _ }; _ } ->
            let schema = Table.schema tbl in
            List.exists
              (fun c ->
                let i = Schema.index_exn schema c in
                not (Value.equal_total (Tuple.get before i) (Tuple.get after i)))
              ref_columns
        | _ -> false
      in
      if changed then raise (Checker.Constraint_violation v)
  | None -> ());
  Table.update tbl rid after;
  List.iter
    (fun idx -> Index.on_update idx rid ~before ~after)
    (indexes_on t table);
  seg_update t table rid ~before ~after:(Table.get_exn tbl rid);
  notify t (Updated { table = Table.name tbl; rid; before; after })

(* Compensating re-insert for transaction rollback: restores a deleted
   row under its original rid, maintains indexes and notifies listeners,
   but skips constraint checking (the pre-transaction state was already
   consistent, and intermediate undo states may not be). *)
let restore t ~table rid row =
  let tbl = table_exn t table in
  Table.restore tbl rid row;
  let row = Table.get_exn tbl rid in
  List.iter (fun idx -> Index.on_insert idx rid row) (indexes_on t table);
  seg_insert t table rid row;
  notify t (Inserted { table = Table.name tbl; rid; row })

(* ---- log replay ------------------------------------------------------- *)

(* Recovery applies committed log records to a fresh database.  The
   records describe mutations that already passed constraint checking
   when first executed, and the listeners' side effects (maintenance
   reactions, exception-table upkeep) are themselves in the log — so
   replay bypasses both checks and listeners, maintaining only storage
   and indexes.  Inserts are rid-faithful via {!Table.place}. *)

let replay_insert t ~table rid row =
  let tbl = table_exn t table in
  Table.place tbl rid row;
  let row = Table.get_exn tbl rid in
  List.iter (fun idx -> Index.on_insert idx rid row) (indexes_on t table);
  seg_insert t table rid row

let replay_delete t ~table rid =
  let tbl = table_exn t table in
  match Table.get tbl rid with
  | None -> ()
  | Some row ->
      ignore (Table.delete tbl rid);
      List.iter (fun idx -> Index.on_delete idx rid row) (indexes_on t table);
      seg_delete t table rid row

let replay_update t ~table rid row =
  let tbl = table_exn t table in
  let before = Table.get_exn tbl rid in
  Table.update tbl rid row;
  let after = Table.get_exn tbl rid in
  List.iter
    (fun idx -> Index.on_update idx rid ~before ~after)
    (indexes_on t table);
  seg_update t table rid ~before ~after

let pp ppf t =
  Fmt.pf ppf "database: %d tables, %d indexes, %d constraints"
    (Hashtbl.length t.tables) (Hashtbl.length t.indexes)
    (List.length t.constraints)
