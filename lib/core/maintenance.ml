(* ASC/SSC maintenance (paper §4.1–§4.3).

   For each soft constraint a [policy] decides what happens when a
   mutation violates it:

   - [Drop]          — the paper's "maintenance policy of last resort":
                       the SC flips to [Violated] and stops being used;
   - [Sync_repair]   — repair at violation time by *widening* the
                       statement (bands grow to cover the new row; hole
                       rectangles overlapping the new value are discarded,
                       the paper's conservative §4.3 tactic);
   - [Async_repair]  — flip to [Violated], queue the SC, and let
                       [run_repairs] re-mine it from current data later
                       ("dropped from active, and queued for repair").

   An SC with an exception table is never repaired: see [handle_violation].

   SSCs are never checked synchronously (their whole point); their
   confidences decay via {!Currency} and are restored by
   [refresh_statistics], the RUNSTATS-analogue. *)

open Rel

let log_src = Logs.Src.create "softdb.maintenance" ~doc:"soft-constraint maintenance"

module Log = (val Logs.src_log log_src)

type policy = Drop | Sync_repair | Async_repair

type event = {
  sc_name : string;
  action : string;
  at_mutations : int;
}

(* @guarded-by db.rwlock — mutated by FD maintenance inside write
   statements only *)
type fd_state = {
  map : (Tuple.t, (Value.t * int ref)) Hashtbl.t;
  lhs_pos : int list;
  rhs_pos : int;
}

(* @guarded-by db.rwlock — the single-writer rule; confidence
   recalibration additionally funnels read-path event/queue appends
   through core.recalibration *)
type t = {
  db : Database.t;
  catalog : Sc_catalog.t;
  mutable policies : (string * policy) list;
  mutable repair_queue : string list;
  mutable events : event list;
  fd_states : (string, fd_state) Hashtbl.t;
  mutable default_policy : policy;
}

let norm = String.lowercase_ascii

(* Named crash/IO-error sites for the fault harness; {!Recovery.attach}
   declares them so the crash-matrix test can iterate the full set. *)
let fault_points =
  [ "maintenance.violation"; "maintenance.repair"; "maintenance.refresh" ]

let policy_of t name =
  Option.value (List.assoc_opt (norm name) t.policies)
    ~default:t.default_policy

let set_policy t name policy =
  t.policies <- (norm name, policy) :: List.remove_assoc (norm name) t.policies

let record t sc_name action =
  let at_mutations =
    match Sc_catalog.find t.catalog sc_name with
    | Some sc -> Sc_catalog.mutations_of t.db sc.Soft_constraint.table
    | None -> 0
  in
  Log.debug (fun m -> m "%s: %s" sc_name action);
  t.events <- { sc_name; action; at_mutations } :: t.events

let events t = List.rev t.events

(* ---- FD incremental state ---------------------------------------------- *)

let build_fd_state db (sc : Soft_constraint.t) (fd : Mining.Fd_mine.fd) =
  match Database.find_table db sc.Soft_constraint.table with
  | None -> None
  | Some tbl ->
      let schema = Table.schema tbl in
      let lhs_pos = List.map (Schema.index_exn schema) fd.Mining.Fd_mine.lhs in
      let rhs_pos = Schema.index_exn schema fd.Mining.Fd_mine.rhs in
      let map = Hashtbl.create 1024 in
      let consistent = ref true in
      Table.iter tbl ~f:(fun row ->
          if !consistent then begin
            let key = Tuple.make (List.map (Tuple.get row) lhs_pos) in
            let v = Tuple.get row rhs_pos in
            match Hashtbl.find_opt map key with
            | None -> Hashtbl.add map key (v, ref 1)
            | Some (v0, n) ->
                if Value.equal_total v0 v then incr n else consistent := false
          end);
      if !consistent then Some { map; lhs_pos; rhs_pos } else None

(* ---- violation detection per statement ---------------------------------- *)

(* The one row test of check shapes and partition-domain statements
   (whose test routes first); [false] for every other statement class,
   which is tested elsewhere or not at all. *)
let row_violates db (sc : Soft_constraint.t) row =
  let test pred =
    match Database.find_table db sc.Soft_constraint.table with
    | Some tbl ->
        Expr.check_violated (Expr.Binding.of_schema (Table.schema tbl)) pred row
    | None -> false
  in
  match sc.Soft_constraint.statement with
  | Soft_constraint.Part_stmt { partition; pred } -> (
      (* partition-local: a row that routes to a sibling segment cannot
         violate this SC, so one hot shard's churn never overturns the
         other shards' domain constraints *)
      match Database.partitioning db sc.Soft_constraint.table with
      | Some part when Partition.route part row = partition -> test pred
      | _ -> false)
  | _ -> (
      match Soft_constraint.check_pred sc with
      | Some p -> test p
      | None -> false)

(* ---- repairs -------------------------------------------------------------- *)

let numeric = Mining.Band.numeric

(* Try to repair [sc] in place so the new [row] no longer violates it:
   each band conjunct of its check grows by the row's image
   ({!Mining.Band.widen}) and a single-column BETWEEN grows to the row's
   value; a NULL needs no widening.  Returns false when the row violates
   a conjunct of neither kind, or the statement is not a check. *)
let sync_repair t (sc : Soft_constraint.t) row =
  match Database.find_table t.db sc.Soft_constraint.table with
  | None -> false
  | Some tbl -> (
      let schema = Table.schema tbl in
      let value (r : Expr.col_ref) =
        Tuple.get row (Schema.index_exn schema r.Expr.col)
      in
      let widen c =
        match (Mining.Band.of_pred c, c) with
        | Some band, _ -> (
            match
              ( numeric (value (Mining.Band.banded band)),
                numeric (value band.Mining.Band.map.Mining.Band.src) )
            with
            | Some a, Some b ->
                Some (Mining.Band.to_pred (Mining.Band.widen band ~a ~b))
            | _ -> Some c)
        | None, Expr.Between (Expr.Col r, Expr.Const lo, Expr.Const hi) ->
            let v = value r in
            if Value.is_null v then Some c
            else
              let lo = if Value.compare_total v lo < 0 then v else lo
              and hi = if Value.compare_total v hi > 0 then v else hi in
              Some (Expr.Between (Expr.Col r, Expr.Const lo, Expr.Const hi))
        | None, _ ->
            if Expr.check_violated (Expr.Binding.of_schema schema) c row then
              None
            else Some c
      in
      let repair pred restate =
        let cs = Expr.conjuncts pred in
        let widened = List.map widen cs in
        if List.mem None widened then false
        else begin
          let cs' = List.filter_map Fun.id widened in
          if cs' <> cs then
            Sc_catalog.set_statement t.catalog sc (restate (Expr.conjoin cs'));
          true
        end
      in
      match sc.Soft_constraint.statement with
      | Soft_constraint.Ic_stmt (Icdef.Check p) ->
          repair p (fun p -> Soft_constraint.Ic_stmt (Icdef.Check p))
      | Soft_constraint.Part_stmt { partition; pred } ->
          repair pred (fun pred ->
              Soft_constraint.Part_stmt { partition; pred })
      | _ -> false)

(* Conservative hole shrinking on insert (paper §4.3): assume the new
   value violates every rectangle its coordinate touches. *)
let shrink_holes (h : Mining.Join_holes.t) ~axis ~at =
  let keep (r : Mining.Join_holes.rect) =
    match axis with
    | `A -> not (at >= r.Mining.Join_holes.a_lo && at < r.Mining.Join_holes.a_hi)
    | `B -> not (at >= r.Mining.Join_holes.b_lo && at < r.Mining.Join_holes.b_hi)
  in
  { h with Mining.Join_holes.rects = List.filter keep h.Mining.Join_holes.rects }

let handle_violation t (sc : Soft_constraint.t) row =
  Obs.Fault.point "maintenance.violation";
  Sc_catalog.set_violations t.catalog sc
    (sc.Soft_constraint.violation_count + 1);
  (* an SC with an exception table stores its violations there: repairing
     it would widen or re-mine the check the exception-union plan reads,
     while the table keeps the rows the installed check rejects — a
     stored row would then come back from both branches *)
  let stored =
    Sc_catalog.exception_table_for t.catalog sc.Soft_constraint.name <> None
  in
  match if stored then Drop else policy_of t sc.Soft_constraint.name with
  | Drop ->
      Sc_catalog.set_state t.catalog sc Soft_constraint.Violated;
      record t sc.Soft_constraint.name "dropped on violation"
  | Sync_repair ->
      if sync_repair t sc row then begin
        Sc_catalog.set_anchor t.catalog sc
          (Sc_catalog.drift_counter t.db sc);
        record t sc.Soft_constraint.name "repaired synchronously (widened)"
      end
      else begin
        Sc_catalog.set_state t.catalog sc Soft_constraint.Violated;
        record t sc.Soft_constraint.name
          "sync repair impossible; dropped on violation"
      end
  | Async_repair ->
      Sc_catalog.set_state t.catalog sc Soft_constraint.Violated;
      t.repair_queue <- t.repair_queue @ [ sc.Soft_constraint.name ];
      record t sc.Soft_constraint.name "queued for asynchronous repair"

(* ---- the mutation listener ------------------------------------------------ *)

let on_row_arrival t table row =
  List.iter
    (fun (sc : Soft_constraint.t) ->
      (* probation SCs (§3.2) are monitored but never exploited: count
         their violations without invoking a repair policy *)
      if
        sc.Soft_constraint.state = Soft_constraint.Probation
        && Soft_constraint.is_absolute sc
      then begin
        if row_violates t.db sc row then begin
          Sc_catalog.set_violations t.catalog sc
            (sc.Soft_constraint.violation_count + 1);
          record t sc.Soft_constraint.name "violation during probation"
        end
      end;
      if Soft_constraint.is_usable sc && Soft_constraint.is_absolute sc then begin
        (* check-shaped and partition-domain statements: direct row test *)
        if row_violates t.db sc row then
          handle_violation t sc row;
        (* FD statements: incremental map *)
        match sc.Soft_constraint.statement with
        | Soft_constraint.Fd_stmt _ -> (
            match Hashtbl.find_opt t.fd_states (norm sc.Soft_constraint.name) with
            | None -> ()
            | Some st -> (
                let key = Tuple.make (List.map (Tuple.get row) st.lhs_pos) in
                let v = Tuple.get row st.rhs_pos in
                match Hashtbl.find_opt st.map key with
                | None -> Hashtbl.add st.map key (v, ref 1)
                | Some (v0, n) ->
                    if Value.equal_total v0 v then incr n
                    else begin
                      Hashtbl.remove t.fd_states (norm sc.Soft_constraint.name);
                      handle_violation t sc row
                    end))
        | Soft_constraint.Holes_stmt h -> (
            (* conservative §4.3 shrink on any new value along either axis *)
            match Database.find_table t.db table with
            | None -> ()
            | Some tbl ->
                let schema = Table.schema tbl in
                let try_axis axis col =
                  match Schema.find_index schema col with
                  | Some i -> (
                      match numeric (Tuple.get row i) with
                      | Some at ->
                          let h' = shrink_holes h ~axis ~at in
                          if
                            List.length h'.Mining.Join_holes.rects
                            <> List.length h.Mining.Join_holes.rects
                          then begin
                            Sc_catalog.set_statement t.catalog sc
                              (Soft_constraint.Holes_stmt h');
                            record t sc.Soft_constraint.name
                              "holes conservatively shrunk on insert"
                          end
                      | None -> ())
                  | None -> ()
                in
                if norm table = norm h.Mining.Join_holes.left_table then
                  try_axis `A h.Mining.Join_holes.left_col
                else if norm table = norm h.Mining.Join_holes.right_table then
                  try_axis `B h.Mining.Join_holes.right_col)
        | _ -> ()
      end)
    (Sc_catalog.on_table t.catalog table
    @ (* hole SCs are registered under their left table but react to both *)
    List.filter
      (fun (sc : Soft_constraint.t) ->
        match sc.Soft_constraint.statement with
        | Soft_constraint.Holes_stmt h ->
            norm h.Mining.Join_holes.right_table = norm table
            && norm sc.Soft_constraint.table <> norm table
        | _ -> false)
      (Sc_catalog.all t.catalog))

let on_row_removal _t _table _row =
  (* deletes cannot violate check-shaped or hole statements; FD maps shrink *)
  ()

let attach ?(default_policy = Drop) db catalog =
  let t =
    {
      db;
      catalog;
      policies = [];
      repair_queue = [];
      events = [];
      fd_states = Hashtbl.create 8;
      default_policy;
    }
  in
  Database.on_mutation db (fun m ->
      match m with
      | Database.Inserted { table; row; _ } -> on_row_arrival t table row
      | Database.Updated { table; after; before; _ } ->
          (* treat as removal + arrival for FD maps; check shapes only need
             the after image *)
          on_row_removal t table before;
          on_row_arrival t table after
      | Database.Deleted { table; row; _ } -> on_row_removal t table row);
  t

(* FD maps are built on demand when an FD SC is installed. *)
let track_fd t (sc : Soft_constraint.t) =
  match sc.Soft_constraint.statement with
  | Soft_constraint.Fd_stmt fd -> (
      match build_fd_state t.db sc fd with
      | Some st -> Hashtbl.replace t.fd_states (norm sc.Soft_constraint.name) st
      | None ->
          Sc_catalog.set_state t.catalog sc Soft_constraint.Violated;
          record t sc.Soft_constraint.name "FD does not hold at install time")
  | _ -> ()

(* ---- asynchronous repair --------------------------------------------------- *)

let remine t (sc : Soft_constraint.t) =
  let holds body =
    Checker.holds (Database.checker_env t.db)
      (Icdef.make ~name:sc.Soft_constraint.name ~table:sc.Soft_constraint.table
         body)
  in
  match Database.find_table t.db sc.Soft_constraint.table with
  | None -> false
  | Some tbl -> (
      match sc.Soft_constraint.statement with
      | Soft_constraint.Fd_stmt fd ->
          if Mining.Fd_mine.holds tbl fd then begin
            track_fd t sc;
            true
          end
          else false
      | Soft_constraint.Ic_stmt (Icdef.Check p)
        when Mining.Band.of_check p <> [] ->
          (* each band conjunct re-mined at the SC's confidence, in the
             same shape on the same columns; the other conjuncts must
             still hold *)
          let confidence = Soft_constraint.confidence sc in
          let cs = Expr.conjuncts p in
          let remined =
            List.map
              (fun c ->
                match Mining.Band.of_pred c with
                | Some band ->
                    Option.map Mining.Band.to_pred
                      (Mining.Band.remine tbl band ~confidence)
                | None -> Some c)
              cs
          in
          let rest = List.filter (fun c -> Mining.Band.of_pred c = None) cs in
          let ok =
            (not (List.mem None remined))
            && (rest = [] || holds (Icdef.Check (Expr.conjoin rest)))
          in
          if ok then
            Sc_catalog.set_statement t.catalog sc
              (Soft_constraint.Ic_stmt
                 (Icdef.Check (Expr.conjoin (List.filter_map Fun.id remined))));
          ok
      | Soft_constraint.Ic_stmt body -> holds body
      | Soft_constraint.Holes_stmt h -> (
          match
            ( Database.find_table t.db h.Mining.Join_holes.left_table,
              Database.find_table t.db h.Mining.Join_holes.right_table )
          with
          | Some left, Some right -> (
              match
                Mining.Join_holes.mine ~grid:h.Mining.Join_holes.grid ~left
                  ~right ~join_left:h.Mining.Join_holes.join_left
                  ~join_right:h.Mining.Join_holes.join_right
                  ~left_col:h.Mining.Join_holes.left_col
                  ~right_col:h.Mining.Join_holes.right_col ()
              with
              | Some h' ->
                  Sc_catalog.set_statement t.catalog sc
                    (Soft_constraint.Holes_stmt h');
                  true
              | None -> false)
          | _ -> false)
      | Soft_constraint.Part_stmt { partition; pred } -> (
          (* re-verify the statement against the segment's current rows;
             siblings are never read *)
          match Database.partitioning t.db sc.Soft_constraint.table with
          | None -> false
          | Some part ->
              let binding = Expr.Binding.of_schema (Table.schema tbl) in
              List.for_all
                (fun rid ->
                  match Table.get tbl rid with
                  | None -> true
                  | Some row -> not (Expr.check_violated binding pred row))
                (Partition.members part partition))
      | _ -> false)

let run_repairs t =
  let queue = t.repair_queue in
  t.repair_queue <- [];
  List.iter
    (fun name ->
      match Sc_catalog.find t.catalog name with
      | None -> ()
      | Some sc ->
          Obs.Fault.point "maintenance.repair";
          if remine t sc then begin
            Sc_catalog.set_state t.catalog sc Soft_constraint.Active;
            Sc_catalog.set_anchor t.catalog sc
              (Sc_catalog.drift_counter t.db sc);
            record t name "asynchronously repaired (re-mined)"
          end
          else begin
            Sc_catalog.set_state t.catalog sc Soft_constraint.Dropped;
            record t name "asynchronous repair failed; dropped"
          end)
    queue

(* ---- probation (paper §3.2) ------------------------------------------------ *)

(* "SCs might be inexpensively maintained … but not employed over a
   probationary period to assess their likely utility."  A constraint in
   [Probation] is monitored by the violation listeners (its counter
   advances) but is invisible to the optimizer; [promote_survivors]
   activates the ones that survived [after] mutations of their table with
   no violation, and drops the rest once judged. *)
let promote_survivors ?(after = 100) t =
  let promoted = ref [] and rejected = ref [] in
  List.iter
    (fun (sc : Soft_constraint.t) ->
      if sc.Soft_constraint.state = Soft_constraint.Probation then begin
        let observed =
          Sc_catalog.mutations_of t.db sc.Soft_constraint.table
          - sc.Soft_constraint.installed_at_mutations
        in
        if sc.Soft_constraint.violation_count > 0 then begin
          Sc_catalog.set_state t.catalog sc Soft_constraint.Dropped;
          record t sc.Soft_constraint.name
            "dropped at end of probation (violations observed)";
          rejected := sc :: !rejected
        end
        else if observed >= after then begin
          Sc_catalog.set_state t.catalog sc Soft_constraint.Active;
          record t sc.Soft_constraint.name "promoted from probation";
          promoted := sc :: !promoted
        end
      end)
    (Sc_catalog.all t.catalog);
  (List.rev !promoted, List.rev !rejected)

(* ---- SSC statistics refresh (the periodic "bring up to date" of §1) ------- *)

(* Measured confidence of a statement against the current data — band
   coverage, FD agreement, check satisfaction.  [None] when the statement
   class has no scalar measure (or the table is gone).  Also the
   "observed selectivity" the cardinality-feedback loop compares against
   the stored confidence. *)
let measured_confidence db (sc : Soft_constraint.t) =
  match Database.find_table db sc.Soft_constraint.table with
  | None -> None
  | Some tbl -> (
      match sc.Soft_constraint.statement with
      | Soft_constraint.Fd_stmt fd -> Some (Mining.Fd_mine.confidence tbl fd)
      | Soft_constraint.Ic_stmt (Icdef.Check p)
        when Option.is_some (Mining.Band.of_pred p) ->
          Option.map (Mining.Band.coverage tbl) (Mining.Band.of_pred p)
      | Soft_constraint.Ic_stmt (Icdef.Check p) ->
          let binding = Expr.Binding.of_schema (Table.schema tbl) in
          let total = ref 0 and ok = ref 0 in
          Table.iter tbl ~f:(fun row ->
              incr total;
              if not (Expr.check_violated binding p row) then incr ok);
          if !total = 0 then Some 1.0
          else Some (float_of_int !ok /. float_of_int !total)
      | _ -> None)

let refresh_statistics t =
  Obs.Fault.point "maintenance.refresh";
  List.iter
    (fun (sc : Soft_constraint.t) ->
      if not (Soft_constraint.is_absolute sc) then begin
        match measured_confidence t.db sc with
        | Some c ->
            Sc_catalog.set_kind t.catalog sc (Soft_constraint.Statistical c);
            Sc_catalog.set_anchor t.catalog sc
              (Sc_catalog.drift_counter t.db sc);
            record t sc.Soft_constraint.name
              (Printf.sprintf "statistics refreshed: confidence %.4f" c)
        | None -> ()
      end)
    (Sc_catalog.all t.catalog)

(* ---- feedback hooks -------------------------------------------------------- *)

(* Flag [name] for a statistics-style refresh through the existing repair
   queue (deduplicated).  Used by the cardinality-feedback loop when an
   observed selectivity contradicts the stored confidence badly. *)
let queue_refresh t name =
  if not (List.exists (fun n -> norm n = norm name) t.repair_queue) then begin
    t.repair_queue <- t.repair_queue @ [ name ];
    record t name "queued for refresh (cardinality feedback)"
  end

let repair_queue t = t.repair_queue
