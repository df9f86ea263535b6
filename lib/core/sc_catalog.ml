(* The soft-constraint catalog: the persistent registry the paper argues
   RDBMSs lack ("there is no mechanism in RDBMSs to represent such
   characterizations and to maintain them", §3.2).

   Besides storage and lookup it produces the optimizer's view: the
   rewrite context inputs ({!Opt.Rewrite.ctx}) assembled from every
   *usable* constraint, with SSC confidences decayed by the currency
   model. *)

open Rel

(* Catalog transitions fire change events so the durability layer
   ({!Recovery}) can log them; every field write therefore goes through
   the setters below rather than mutating {!Soft_constraint.t} directly. *)
type change =
  | Installed of Soft_constraint.t
  | Removed of Soft_constraint.t
  | State_changed of Soft_constraint.t
  | Kind_changed of Soft_constraint.t
  | Anchor_changed of Soft_constraint.t
  | Violations_changed of Soft_constraint.t
  | Statement_changed of Soft_constraint.t
  | Exception_registered of { constraint_name : string; table : string }

(* @guarded-by db.rwlock — catalog structure changes ride the
   single-writer path; read-path confidence recalibration serializes
   behind core.recalibration before touching entries *)
type t = {
  mutable scs : Soft_constraint.t list;
  mutable exception_tables : (string * string) list;
      (* constraint name -> exception table name *)
  mutable listeners : (change -> unit) list;
  mutable mined : int; (* names issued by [fresh_name] *)
}

let create () =
  { scs = []; exception_tables = []; listeners = []; mined = 0 }

let norm = String.lowercase_ascii

exception Duplicate_name of string

let on_change t f = t.listeners <- f :: t.listeners
let notify t c = List.iter (fun f -> f c) t.listeners

let add t sc =
  if
    List.exists
      (fun s -> norm s.Soft_constraint.name = norm sc.Soft_constraint.name)
      t.scs
  then raise (Duplicate_name sc.Soft_constraint.name);
  t.scs <- t.scs @ [ sc ];
  notify t (Installed sc)

let find t name =
  List.find_opt (fun s -> norm s.Soft_constraint.name = norm name) t.scs

(* Numbered per catalog, so the names a database's advisor mines (and
   EXPLAIN shows) do not depend on what other databases in the process
   mined; a number whose name the catalog already holds, say one
   recovered from the log, is skipped. *)
let fresh_name t prefix =
  let rec next () =
    t.mined <- t.mined + 1;
    let name = Printf.sprintf "%s_%d" prefix t.mined in
    if Option.is_some (find t name) then next () else name
  in
  next ()

let drop t name =
  match find t name with
  | None -> ()
  | Some sc ->
      sc.Soft_constraint.state <- Soft_constraint.Dropped;
      t.scs <-
        List.filter (fun s -> norm s.Soft_constraint.name <> norm name) t.scs;
      notify t (Removed sc)

(* ---- field setters (fire change events) --------------------------------- *)

let set_state t (sc : Soft_constraint.t) state =
  if sc.Soft_constraint.state <> state then begin
    sc.Soft_constraint.state <- state;
    notify t (State_changed sc)
  end

let set_kind t (sc : Soft_constraint.t) kind =
  if sc.Soft_constraint.kind <> kind then begin
    sc.Soft_constraint.kind <- kind;
    notify t (Kind_changed sc)
  end

let set_anchor t (sc : Soft_constraint.t) anchor =
  if sc.Soft_constraint.installed_at_mutations <> anchor then begin
    sc.Soft_constraint.installed_at_mutations <- anchor;
    notify t (Anchor_changed sc)
  end

let set_violations t (sc : Soft_constraint.t) count =
  if sc.Soft_constraint.violation_count <> count then begin
    sc.Soft_constraint.violation_count <- count;
    notify t (Violations_changed sc)
  end

let set_statement t (sc : Soft_constraint.t) statement =
  sc.Soft_constraint.statement <- statement;
  notify t (Statement_changed sc)

let all t = t.scs

let on_table t table =
  List.filter (fun s -> norm s.Soft_constraint.table = norm table) t.scs

let usable t = List.filter Soft_constraint.is_usable t.scs

let register_exception_table t ~constraint_name ~table =
  t.exception_tables <-
    (constraint_name, table)
    :: List.remove_assoc constraint_name t.exception_tables;
  notify t (Exception_registered { constraint_name; table })

let exception_table_for t constraint_name =
  List.assoc_opt constraint_name t.exception_tables

let exception_tables t = List.rev t.exception_tables

(* ---- optimizer view ----------------------------------------------------- *)

let mutations_of db table =
  match Database.find_table db table with
  | Some tbl -> Table.mutations tbl
  | None -> 0

let rows_of db table =
  match Database.find_table db table with
  | Some tbl -> Table.cardinality tbl
  | None -> 0

(* The planner ignores SSCs whose decayed confidence is at or below this
   bound; the catalog linter flags them so the operator can refresh or
   drop them. *)
let use_threshold = 0.0

(* The drift counter a soft constraint's currency anchor compares
   against.  Partition-domain statements use their home segment's local
   counter — one hot shard's churn must not age its siblings' SCs. *)
let drift_counter db (sc : Soft_constraint.t) =
  match sc.Soft_constraint.statement with
  | Soft_constraint.Part_stmt { partition; _ } -> (
      match Database.partitioning db sc.Soft_constraint.table with
      | Some part when partition >= 0 && partition < Partition.count part ->
          Partition.seg_mutations part partition
      | _ -> mutations_of db sc.Soft_constraint.table)
  | _ -> mutations_of db sc.Soft_constraint.table

(* Confidence usable now, after currency decay (§3.3). *)
let current_confidence db (sc : Soft_constraint.t) =
  let base = Soft_constraint.confidence sc in
  let updates_since =
    drift_counter db sc - sc.Soft_constraint.installed_at_mutations
  in
  let table_rows =
    match sc.Soft_constraint.statement with
    | Soft_constraint.Part_stmt { partition; _ } -> (
        match Database.partitioning db sc.Soft_constraint.table with
        | Some part when partition >= 0 && partition < Partition.count part ->
            Partition.rows part partition
        | _ -> rows_of db sc.Soft_constraint.table)
    | _ -> rows_of db sc.Soft_constraint.table
  in
  Currency.usable_confidence ~base ~updates_since ~table_rows

let rewrite_ctx ?(flags = Opt.Rewrite.all_on) t db : Opt.Rewrite.ctx =
  let usable = usable t in
  let has_exceptions (sc : Soft_constraint.t) =
    List.mem_assoc sc.Soft_constraint.name t.exception_tables
  in
  (* an exception-backed ASC may have stored violations, so it must only
     be exploited through the exception-union rule, never as a plain
     always-true statement *)
  let ascs =
    List.filter_map
      (fun sc ->
        if Soft_constraint.is_absolute sc && not (has_exceptions sc) then
          Soft_constraint.to_icdef sc
        else None)
      usable
  in
  (* usable statistical SCs, as their checks: twinning reads the bands
     there, however the SC was declared or mined *)
  let sscs =
    List.filter_map
      (fun (sc : Soft_constraint.t) ->
        if Soft_constraint.is_absolute sc then None
        else
          let confidence = current_confidence db sc in
          match Soft_constraint.check_pred sc with
          | Some check when confidence > use_threshold ->
              Some
                {
                  Opt.Rewrite.name = sc.Soft_constraint.name;
                  table = sc.Soft_constraint.table;
                  check;
                  confidence;
                }
          | _ -> None)
      usable
  in
  let fds =
    List.filter_map
      (fun (sc : Soft_constraint.t) ->
        match sc.Soft_constraint.statement with
        | Soft_constraint.Fd_stmt fd when Soft_constraint.is_absolute sc ->
            Some
              { Opt.Rewrite.fd_sc = Some sc.Soft_constraint.name; fd }
        | _ -> None)
      usable
  in
  let holes =
    List.filter_map
      (fun (sc : Soft_constraint.t) ->
        match sc.Soft_constraint.statement with
        | Soft_constraint.Holes_stmt h when Soft_constraint.is_absolute sc ->
            Some
              {
                Opt.Rewrite.holes_sc = Some sc.Soft_constraint.name;
                holes = h;
              }
        | _ -> None)
      usable
  in
  (* valid absolute partition-domain SCs: the premises partition pruning
     names in its certificates *)
  let parts =
    List.filter_map
      (fun (sc : Soft_constraint.t) ->
        match sc.Soft_constraint.statement with
        | Soft_constraint.Part_stmt { partition; pred }
          when Soft_constraint.is_absolute sc ->
            Some
              {
                Opt.Rewrite.part_sc_name = Some sc.Soft_constraint.name;
                part_table = sc.Soft_constraint.table;
                part_index = partition;
                part_pred = pred;
              }
        | _ -> None)
      usable
  in
  let exceptions =
    List.filter_map
      (fun (name, table) ->
        match find t name with
        | Some sc -> (
            match Soft_constraint.check_pred sc with
            | Some check ->
                Some
                  {
                    Opt.Rewrite.exc_constraint = name;
                    exc_base_table = sc.Soft_constraint.table;
                    exc_table = table;
                    exc_check = check;
                  }
            | None -> None)
        | None -> None)
      t.exception_tables
  in
  Opt.Rewrite.make_ctx ~flags ~ascs ~sscs ~fds ~holes ~exceptions ~parts db

let pp ppf t =
  Fmt.pf ppf "soft-constraint catalog (%d entries):@." (List.length t.scs);
  List.iter (fun sc -> Fmt.pf ppf "  %a@." Soft_constraint.pp sc) t.scs
