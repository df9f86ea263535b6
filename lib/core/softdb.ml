(* The system façade: a database with a soft-constraint catalog wired into
   its optimizer.  SQL goes in; statements execute against the catalog and
   storage; queries run through rewrite → plan → execute with every
   soft-constraint pathway available (and individually toggleable, for
   the ablation experiments). *)

open Rel

type event =
  | Stmt_started of Sqlfe.Ast.statement
  | Stmt_finished of Sqlfe.Ast.statement * bool  (** success? *)
  | Began
  | Committed
  | Rolled_back

(* An SC's measured coverage, valid while its table is the same table at
   the same mutation count and the SC's statement is unchanged. *)
type coverage = {
  table : Table.t;
  mutations : int;
  statement : Soft_constraint.statement;
  observed : float;
}

(* @guarded-by db.rwlock — engine flags and hooks change via write
   statements (or before the server starts); readers see them frozen *)
type t = {
  db : Database.t;
  stats : Stats.Runstats.t;
  catalog : Sc_catalog.t;
  maintenance : Maintenance.t;
  metrics : Obs.Metrics.t;
  query_log : Obs.Query_log.t;
  mutable flags : Opt.Rewrite.flags;
  mutable cost_params : Opt.Cost.params;
  mutable feedback : bool; (* recalibrate SSC confidence from execution *)
  mutable feedback_tolerance : float;
  mutable listeners : (event -> unit) list;
      (* statement and transaction framing hooks: the WAL link
         ({!Recovery}) uses them for its frame boundaries and DDL capture *)
  mutable txn_recorder : (Database.mutation -> unit) option;
      (* the open transaction's undo recorder ({!Txn}); [None] when no
         transaction is open *)
  mutable txn_ids : int; (* transactions begun so far *)
  recalibration : Mutex.t; (* see [observe_twin] *)
  coverage : (string * coverage) list Atomic.t;
      (* the last measured coverage per SC name, read and replaced from
         the read path (see [observe_twin]) *)
  mutable constraints_named : int;
      (* unnamed constraints named so far: per database, so the same DDL
         gets the same names whatever else the process has run *)
}

(* Cumulative per-partition execution counters live in the metrics
   registry under one key scheme, so sys.partitions, record_feedback and
   the fallback attribution all agree on the spelling. *)
let part_metric what table partition =
  Printf.sprintf "exec.partition.%s.%s.%d" what
    (String.lowercase_ascii table)
    partition

(* The domain SC of segment [i], whatever its current name: any
   [Part_stmt] in the catalog for this (table, partition). *)
let find_partition_sc t ~table ~partition =
  List.find_opt
    (fun (sc : Soft_constraint.t) ->
      String.lowercase_ascii sc.Soft_constraint.table
      = String.lowercase_ascii table
      &&
      match sc.Soft_constraint.statement with
      | Soft_constraint.Part_stmt p -> p.partition = partition
      | _ -> false)
    (Sc_catalog.all t.catalog)

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let rewrite_ctx ?flags t =
  Sc_catalog.rewrite_ctx
    ~flags:(Option.value flags ~default:t.flags)
    t.catalog t.db

(* ---- index advisor -------------------------------------------------------- *)

(* Distill the SC catalog into the advisor's hint language: the bands
   the ASCs' and SSCs' checks state ({!Mining.Band.widths})
   become [Band] hints on the banded column (range predicates on it
   select contiguous key runs), valid FDs become covering-extension hints
   (dependent columns ride along for free). *)
let advisor_hints t =
  let ctx = rewrite_ctx t in
  let bands ~ssc table check =
    List.map
      (fun (column, width) -> Idx.Advisor.Band { table; column; width; ssc })
      (Mining.Band.widths check)
  in
  List.concat_map
    (fun (ic : Icdef.t) ->
      match ic.Icdef.body with
      | Icdef.Check p -> bands ~ssc:false ic.Icdef.table p
      | _ -> [])
    ctx.Opt.Rewrite.ascs
  @ List.concat_map
      (fun (s : Opt.Rewrite.ssc) ->
        bands ~ssc:true s.Opt.Rewrite.table s.Opt.Rewrite.check)
      ctx.Opt.Rewrite.sscs
  @ List.map
      (fun (nf : Opt.Rewrite.named_fd) ->
        Idx.Advisor.Fd
          {
            table = nf.Opt.Rewrite.fd.Mining.Fd_mine.table;
            determinant = nf.Opt.Rewrite.fd.Mining.Fd_mine.lhs;
            dependents = [ nf.Opt.Rewrite.fd.Mining.Fd_mine.rhs ];
          })
      ctx.Opt.Rewrite.fds

let advise t =
  let queries =
    List.map
      (fun (e : Obs.Query_log.entry) -> e.Obs.Query_log.sql)
      (Obs.Query_log.entries t.query_log)
  in
  Idx.Advisor.advise t.db ~queries ~hints:(advisor_hints t)

let advice_statement (c : Idx.Advisor.candidate) =
  Printf.sprintf "CREATE INDEX %s_idx_%s ON %s (%s) ONLINE"
    c.Idx.Advisor.cand_table
    (String.concat "_" c.Idx.Advisor.cand_columns)
    c.Idx.Advisor.cand_table
    (String.concat ", " c.Idx.Advisor.cand_columns)

(* The sys.* views: read-only virtual tables over the live registries, so
   the repl can SELECT against its own observability state.  Each is one
   column list ({!Obs.Sys_tables}); sys.plan_cache and sys.recovery start
   empty so they are queryable on every database, and {!Plan_cache} and
   {!Recovery} re-register them with rows. *)
let register_sys_tables t =
  let open Obs.Sys_tables in
  register t.db "sys.metrics" metrics (fun () -> Obs.Metrics.snapshot t.metrics);
  register t.db "sys.query_log" query_log (fun () ->
      Obs.Query_log.entries t.query_log);
  register t.db "sys.soft_constraints"
    [
      str "name" (fun sc -> sc.Soft_constraint.name);
      str "table_name" (fun sc -> sc.Soft_constraint.table);
      str "kind" (fun sc ->
          match sc.Soft_constraint.kind with
          | Soft_constraint.Absolute -> "ASC"
          | Soft_constraint.Statistical _ -> "SSC");
      str "state" (fun sc ->
          Fmt.to_to_string Soft_constraint.pp_state sc.Soft_constraint.state);
      opt_float "confidence" (fun sc ->
          match sc.Soft_constraint.kind with
          | Soft_constraint.Absolute -> None
          | Soft_constraint.Statistical c -> Some c);
      opt_float "current_confidence" (fun sc ->
          Some (Sc_catalog.current_confidence t.db sc));
      int "violations" (fun sc -> sc.Soft_constraint.violation_count);
      str "statement" (fun sc ->
          Fmt.to_to_string Soft_constraint.pp_statement
            sc.Soft_constraint.statement);
    ]
    (fun () -> Sc_catalog.all t.catalog);
  register t.db "sys.plan_cache" plan_cache (fun () -> []);
  register t.db "sys.indexes"
    [
      str "name" Index.name;
      str "table_name" Index.table_name;
      str "columns" (fun idx -> String.concat "," (Index.columns idx));
      bool "is_unique" Index.is_unique;
      str "state" (fun idx -> Index.state_to_string (Index.state idx));
      int "entries" Index.entries;
      int "distinct_keys" Index.distinct_keys;
    ]
    (fun () -> Database.all_indexes t.db);
  register t.db "sys.index_advisor"
    [
      int "rank" fst;
      str "table_name" (fun (_, c) -> c.Idx.Advisor.cand_table);
      str "columns" (fun (_, c) -> String.concat "," c.Idx.Advisor.cand_columns);
      bool "covering" (fun (_, c) -> c.Idx.Advisor.cand_covering);
      float "score" (fun (_, c) -> c.Idx.Advisor.cand_score);
      int "queries" (fun (_, c) -> c.Idx.Advisor.cand_queries);
      str "reason" (fun (_, c) -> c.Idx.Advisor.cand_reason);
      str "statement" (fun (_, c) -> advice_statement c);
    ]
    (fun () -> List.mapi (fun i c -> (i + 1, c)) (advise t));
  register t.db "sys.recovery" recovery (fun () -> []);
  register t.db "sys.lockdep" lockdep Obs.Lockdep.edge_list;
  (* one row per segment (table, partitioning, index) *)
  let segment_sc (table, _, i) = find_partition_sc t ~table ~partition:i in
  let counter what (table, _, i) =
    Obs.Metrics.counter t.metrics (part_metric what table i)
  in
  register t.db "sys.partitions"
    [
      str "table_name" (fun (table, _, _) -> table);
      int "part_index" (fun (_, _, i) -> i);
      str "spec" (fun (_, part, _) ->
          Partition.spec_to_string (Partition.spec part));
      str "part_bounds" (fun (_, part, i) ->
          Fmt.to_to_string Expr.pp_pred (Partition.constraint_pred part i));
      int "rows" (fun (_, part, i) -> Partition.rows part i);
      opt_str "sc_name" (fun seg ->
          Option.map (fun sc -> sc.Soft_constraint.name) (segment_sc seg));
      opt_str "sc_state" (fun seg ->
          Option.map
            (fun sc ->
              Fmt.to_to_string Soft_constraint.pp_state sc.Soft_constraint.state)
            (segment_sc seg));
      int "rows_scanned" (counter "rows_scanned");
      int "pages_read" (counter "pages_read");
      int "fallbacks" (counter "fallbacks");
    ]
    (fun () ->
      List.concat_map
        (fun table ->
          match Database.partitioning t.db table with
          | None -> []
          | Some part ->
              List.init (Partition.count part) (fun i -> (table, part, i)))
        (Database.partitioned_tables t.db))

let create ?(flags = Opt.Rewrite.all_on) () =
  let db = Database.create () in
  let catalog = Sc_catalog.create () in
  let maintenance = Maintenance.attach db catalog in
  let t =
    {
      db;
      stats = Stats.Runstats.create ();
      catalog;
      maintenance;
      metrics = Obs.Metrics.create ();
      query_log = Obs.Query_log.create ();
      flags;
      cost_params = Opt.Cost.default_params;
      feedback = true;
      feedback_tolerance = Obs.Feedback.default_tolerance;
      listeners = [];
      txn_recorder = None;
      txn_ids = 0;
      recalibration = Mutex.create ();
      coverage = Atomic.make [];
      constraints_named = 0;
    }
  in
  Database.on_mutation db (fun m -> Option.iter (fun r -> r m) t.txn_recorder);
  register_sys_tables t;
  t

let db t = t.db
let catalog t = t.catalog
let maintenance t = t.maintenance
let statistics t = t.stats
let metrics t = t.metrics
let query_log t = t.query_log
let set_feedback ?tolerance t on =
  t.feedback <- on;
  Option.iter (fun tol -> t.feedback_tolerance <- tol) tolerance

let on_event t f = t.listeners <- f :: t.listeners
let notify t ev = List.iter (fun f -> f ev) t.listeners
let txn_recorder t = t.txn_recorder
let set_txn_recorder t r = t.txn_recorder <- r

let next_txn_id t =
  t.txn_ids <- t.txn_ids + 1;
  t.txn_ids

let planner_env t =
  Opt.Planner.make_env ~params:t.cost_params t.db t.stats

let runstats ?table t =
  match table with
  | None -> Stats.Runstats.runstats_all t.stats t.db
  | Some name ->
      ignore (Stats.Runstats.runstats t.stats (Database.table_exn t.db name))

(* ---- soft constraint installation ---------------------------------------- *)

let install_sc t sc =
  Sc_catalog.add t.catalog sc;
  Maintenance.track_fd t.maintenance sc

(* Install a SOFT-mode declaration from SQL: validate a would-be ASC
   against the data; declared confidences make SSCs directly. *)
let install_soft_declaration t ~name ~table ~(body : Icdef.body)
    ~(declared_confidence : float option) =
  let muts = Sc_catalog.mutations_of t.db table in
  match declared_confidence with
  | Some c when c < 1.0 ->
      install_sc t
        (Soft_constraint.make ~name ~table
           ~kind:(Soft_constraint.Statistical c) ~installed_at_mutations:muts
           (Soft_constraint.Ic_stmt body))
  | _ -> (
      (* candidate ASC: verify against the current state *)
      let ic = Icdef.make ~name ~table body in
      let env = Database.checker_env t.db in
      match Checker.verify env ic with
      | [] ->
          install_sc t
            (Soft_constraint.make ~name ~table ~kind:Soft_constraint.Absolute
               ~installed_at_mutations:muts (Soft_constraint.Ic_stmt body))
      | violations -> (
          (* not absolute: keep as an SSC with the measured confidence
             when the statement is check-shaped *)
          match body with
          | Icdef.Check _ | Icdef.Not_null _ ->
              let rows =
                max 1 (Table.cardinality (Database.table_exn t.db table))
              in
              let c =
                1.0
                -. (float_of_int (List.length violations) /. float_of_int rows)
              in
              install_sc t
                (Soft_constraint.make ~name ~table
                   ~kind:(Soft_constraint.Statistical c)
                   ~installed_at_mutations:muts (Soft_constraint.Ic_stmt body))
          | _ ->
              error
                "constraint %s does not hold (%d violations) and its class \
                 cannot be statistical"
                name (List.length violations)))

(* Mine and install per-segment partition-domain SCs
   ({!Mining.Segment_domain}): each non-empty segment's observed band
   over the partition column becomes an absolute, overturnable
   [Part_stmt].  Anchored on the segment's *local* mutation counter, so
   churn in a sibling shard never ages it.  Existing SCs under the same
   generated names are replaced — re-mining refreshes the bands. *)
let mine_partition_domains t ~table =
  match Database.partitioning t.db table with
  | None -> error "table %s is not partitioned" table
  | Some part ->
      List.map
        (fun { Mining.Segment_domain.partition; pred; _ } ->
          let name = Printf.sprintf "%s_p%d_domain" table partition in
          if Sc_catalog.find t.catalog name <> None then
            Sc_catalog.drop t.catalog name;
          let sc =
            Soft_constraint.make ~name ~table ~kind:Soft_constraint.Absolute
              ~installed_at_mutations:(Partition.seg_mutations part partition)
              (Soft_constraint.Part_stmt { partition; pred })
          in
          install_sc t sc;
          sc)
        (Mining.Segment_domain.domains t.db ~table)

(* ---- statement execution --------------------------------------------------- *)

type outcome =
  | Rows of Exec.Executor.result
  | Affected of int
  | Report of Opt.Explain.report
  | Analyzed of Opt.Explain.analysis
  | Done of string

let fresh_constraint_name t table =
  t.constraints_named <- t.constraints_named + 1;
  Printf.sprintf "%s_con%d" table t.constraints_named

let eval_const_expr (e : Expr.t) : Value.t =
  try Expr.eval [||] e [||]
  with Expr.Binding.Unresolved r ->
    error "non-constant expression references column %s"
      (Fmt.str "%a" Expr.pp_col_ref r)

let add_table_constraint t ~table (con : Sqlfe.Ast.table_constraint) =
  let name =
    Option.value con.Sqlfe.Ast.con_name ~default:(fresh_constraint_name t table)
  in
  match con.Sqlfe.Ast.con_mode with
  | Sqlfe.Ast.Mode_enforced ->
      Database.add_constraint t.db
        (Icdef.make ~enforcement:Icdef.Enforced ~name ~table
           con.Sqlfe.Ast.con_body)
  | Sqlfe.Ast.Mode_informational ->
      Database.add_constraint t.db
        (Icdef.make ~enforcement:Icdef.Informational ~name ~table
           con.Sqlfe.Ast.con_body)
  | Sqlfe.Ast.Mode_soft declared_confidence ->
      install_soft_declaration t ~name ~table ~body:con.Sqlfe.Ast.con_body
        ~declared_confidence

(* auto-create a unique index backing a PRIMARY KEY / UNIQUE declaration *)
let back_key_with_index t ~table (con : Sqlfe.Ast.table_constraint) =
  match (con.Sqlfe.Ast.con_mode, con.Sqlfe.Ast.con_body) with
  | ( (Sqlfe.Ast.Mode_enforced | Sqlfe.Ast.Mode_informational),
      (Icdef.Primary_key cols | Icdef.Unique cols) ) ->
      let index_name = Printf.sprintf "%s_key_%s" table (String.concat "_" cols) in
      if Database.find_index_by_name t.db index_name = None then
        ignore
          (Database.create_index t.db ~name:index_name ~table ~columns:cols
             ~unique:(con.Sqlfe.Ast.con_mode = Sqlfe.Ast.Mode_enforced) ())
  | _ -> ()

let matching_rids t ~table pred =
  let tbl = Database.table_exn t.db table in
  let binding = Expr.Binding.of_schema (Table.schema tbl) in
  let keep = Expr.compile_filter binding pred in
  List.rev
    (Table.fold tbl ~init:[] ~f:(fun acc rid row ->
         if keep row then rid :: acc else acc))

(* Some rewrite rules log no constraint attribution (FD simplification,
   hole trimming, unsatisfiability detection): their rewrite context was
   assembled from whole classes of usable absolute SCs.  Guard such plans
   conservatively on every usable absolute SC of the class — an
   over-approximate guard can only cause a spurious fallback, never a
   wrong result. *)
let class_guards t (applied : Opt.Rewrite.applied list) =
  let fired rule =
    List.exists
      (fun (a : Opt.Rewrite.applied) ->
        a.Opt.Rewrite.rule = rule && a.Opt.Rewrite.sc = None)
      applied
  in
  let of_class keep =
    List.filter_map
      (fun (sc : Soft_constraint.t) ->
        if Soft_constraint.is_absolute sc && keep sc.Soft_constraint.statement
        then Some sc.Soft_constraint.name
        else None)
      (Sc_catalog.usable t.catalog)
  in
  let fd = function Soft_constraint.Fd_stmt _ -> true | _ -> false in
  let holes = function Soft_constraint.Holes_stmt _ -> true | _ -> false in
  (if fired "fd_simplification" then of_class fd else [])
  @ (if fired "hole_trimming" then of_class holes else [])
  @
  if fired "unsatisfiable" || fired "unionall_pruning" then
    of_class (fun _ -> true)
  else []

(* Certificate premises that are catalog SCs must also be guarded: a
   result-changing rewrite can rest on more constraints than the one it
   logged as [sc] (e.g. the key witness behind a join elimination may
   itself be an overturnable ASC). *)
let premise_guards t (applied : Opt.Rewrite.applied list) =
  List.concat_map
    (fun (a : Opt.Rewrite.applied) ->
      if Opt.Rewrite.delta_changes_results a.Opt.Rewrite.delta then
        List.filter
          (fun name -> Sc_catalog.find t.catalog name <> None)
          a.Opt.Rewrite.premises
      else [])
    applied

let optimize ?flags t (q : Sqlfe.Ast.query) =
  let report = Opt.Explain.optimize (rewrite_ctx ?flags t) (planner_env t) q in
  match
    class_guards t report.Opt.Explain.applied
    @ premise_guards t report.Opt.Explain.applied
  with
  | [] -> report
  | extra ->
      {
        report with
        Opt.Explain.guards =
          List.sort_uniq String.compare (report.Opt.Explain.guards @ extra);
      }

(* ---- cardinality feedback -------------------------------------------------- *)

let rec twin_names acc (l : Opt.Logical.t) =
  match l with
  | Opt.Logical.Block b ->
      List.fold_left
        (fun acc (p : Opt.Logical.pred_item) ->
          match p.Opt.Logical.origin with
          | Opt.Logical.Twin sc -> if List.mem sc acc then acc else sc :: acc
          | _ -> acc)
        acc b.Opt.Logical.preds
  | Opt.Logical.Union ts -> List.fold_left twin_names acc ts

(* Confidence recalibration mutates the SC catalog and the maintenance
   queue *from the read path*: it runs when a query finishes.  Under the
   server's worker pool many read queries finish concurrently, so the
   adjust branch is serialized behind one mutex — data and catalog
   structure mutations proper stay on the single-writer path (lib/srv),
   and field-level confidence updates from readers are funnelled here
   (the database's [recalibration] mutex). *)

(* The measured coverage of [sc], rescanning its table only when the
   table, its mutation count or the SC's statement changed since the last
   measurement.  Concurrent readers may both measure and overwrite each
   other's entry; that costs a rescan, never a stale value. *)
let measured_coverage t (sc : Soft_constraint.t) =
  let name = sc.Soft_constraint.name in
  match Database.find_table t.db sc.Soft_constraint.table with
  | None -> None
  | Some tbl -> (
      let memo = Atomic.get t.coverage in
      match List.assoc_opt name memo with
      | Some m
        when m.table == tbl
             && m.mutations = Table.mutations tbl
             && m.statement = sc.Soft_constraint.statement ->
          Some m.observed
      | _ ->
          let mutations = Table.mutations tbl in
          let measured = Maintenance.measured_confidence t.db sc in
          Option.iter
            (fun observed ->
              Atomic.set t.coverage
                (( name,
                   {
                     table = tbl;
                     mutations;
                     statement = sc.Soft_constraint.statement;
                     observed;
                   } )
                :: List.remove_assoc name memo))
            measured;
          measured)

(* Per-twin observation: the measured coverage of the SSC's statement
   against current data is the observed selectivity of the twinned
   predicate class.  Recalibration (when enabled) pulls the catalog
   confidence toward it and may escalate to the repair queue. *)
let observe_twin t sc_name =
  match Sc_catalog.find t.catalog sc_name with
  | None -> None
  | Some sc -> (
      let stored =
        match sc.Soft_constraint.kind with
        | Soft_constraint.Statistical c -> c
        | Soft_constraint.Absolute -> 1.0
      in
      match measured_coverage t sc with
      | None -> None
      | Some observed ->
          let adjusted =
            if not t.feedback then None
            else
              match
                Obs.Feedback.recalibrate ~tolerance:t.feedback_tolerance
                  ~stored ~observed ()
              with
              | Obs.Feedback.Keep -> None
              | Obs.Feedback.Adjust { confidence; refresh } ->
                  (* @acquires core.recalibration while srv.session db.rwlock *)
                  Obs.Lockdep.acquire "core.recalibration";
                  Mutex.lock t.recalibration;
                  Fun.protect
                    ~finally:(fun () ->
                      Mutex.unlock t.recalibration;
                      Obs.Lockdep.release "core.recalibration")
                    (fun () ->
                      Sc_catalog.set_kind t.catalog sc
                        (Soft_constraint.Statistical confidence);
                      Sc_catalog.set_anchor t.catalog sc
                        (Sc_catalog.mutations_of t.db
                           sc.Soft_constraint.table);
                      Maintenance.record t.maintenance sc_name
                        (Printf.sprintf
                           "confidence recalibrated %.4f -> %.4f (observed \
                            %.4f)"
                           stored confidence observed);
                      Obs.Metrics.incr t.metrics "feedback.recalibrations";
                      if refresh then
                        Maintenance.queue_refresh t.maintenance sc_name;
                      Some confidence)
          in
          Some { Obs.Query_log.sc = sc_name; stored; observed; adjusted })

let record_feedback ?(fell_back = false) t (report : Opt.Explain.report)
    (result : Exec.Executor.result) =
  let m = t.metrics in
  let c = result.Exec.Executor.counters in
  Obs.Metrics.incr m "queries.executed";
  Obs.Metrics.incr ~by:c.Exec.Operators.Counters.rows_scanned m
    "exec.rows_scanned";
  Obs.Metrics.incr ~by:c.Exec.Operators.Counters.pages_read m
    "exec.pages_read";
  Obs.Metrics.incr ~by:c.Exec.Operators.Counters.index_probes m
    "exec.index_probes";
  Obs.Metrics.incr ~by:c.Exec.Operators.Counters.rows_output m
    "exec.rows_output";
  List.iter
    (fun (table, partition, rows, pages) ->
      Obs.Metrics.incr ~by:rows m (part_metric "rows_scanned" table partition);
      Obs.Metrics.incr ~by:pages m (part_metric "pages_read" table partition))
    (Exec.Operators.Counters.partition_counts c);
  let rewrites =
    List.sort_uniq String.compare
      (List.map
         (fun (a : Opt.Rewrite.applied) -> a.Opt.Rewrite.rule)
         report.Opt.Explain.applied)
  in
  List.iter (fun r -> Obs.Metrics.incr m ("rewrite." ^ r)) rewrites;
  let actual = List.length result.Exec.Executor.rows in
  let estimated = report.Opt.Explain.estimated_cardinality in
  Obs.Metrics.observe m "query.q_error"
    (Obs.Feedback.q_error ~estimated ~actual);
  let twins =
    List.filter_map (observe_twin t)
      (List.rev (twin_names [] report.Opt.Explain.rewritten))
  in
  ignore
    (Obs.Query_log.add ~fell_back t.query_log
       ~sql:(Sqlfe.Printer.query_to_string report.Opt.Explain.original)
       ~estimated_rows:estimated ~actual_rows:actual ~rewrites ~twins)

(* A guard holds at execution time if the constraint it names is still a
   declared hard/informational IC, or a usable soft constraint, or an
   exception-backed ASC whose exception table still exists (violations
   are stored there, so the exception-union rewrite stays exact).

   Guards in the "idx:<name>" namespace protect index-backed rewrites
   instead: they hold while the named index still exists and is readable,
   so DROP INDEX or a mid-flight demotion degrades the plan to its
   index-free backup rather than probing a stale or half-built tree. *)
let guard_ok t name =
  match String.length name > 4 && String.sub name 0 4 = "idx:" with
  | true -> (
      let index = String.sub name 4 (String.length name - 4) in
      match Database.find_index_by_name t.db index with
      | Some idx -> Index.is_readable idx
      | None -> false)
  | false -> (
  match Database.find_constraint t.db name with
  | Some _ -> true
  | None -> (
      match Sc_catalog.find t.catalog name with
      | None -> false
      | Some sc -> (
          Soft_constraint.is_usable sc
          ||
          match Sc_catalog.exception_table_for t.catalog name with
          | Some table -> Database.find_table t.db table <> None
          | None -> false)))

(* The guards of [report] that no longer hold — empty while its fast plan
   may run.  The one §4.1 decision: ad-hoc execution ({!execute_report})
   and prepared plans ({!Plan_cache}) both revert on it.  A report with
   no backup has no result-changing rewrite, so nothing to revert from. *)
let failed_guards t (report : Opt.Explain.report) =
  match report.Opt.Explain.backup_plan with
  | None -> []
  | Some _ ->
      List.filter (fun name -> not (guard_ok t name)) report.Opt.Explain.guards

(* One guarded fallback happened on the strength of [failed] guard
   names: count it, and attribute it to every partition whose domain SC
   is among them. *)
let note_guard_fallback t failed =
  Obs.Metrics.incr t.metrics "sc_guard_fallbacks";
  List.iter
    (fun name ->
      match Sc_catalog.find t.catalog name with
      | Some sc -> (
          match sc.Soft_constraint.statement with
          | Soft_constraint.Part_stmt p ->
              Obs.Metrics.incr t.metrics
                (part_metric "fallbacks" sc.Soft_constraint.table p.partition)
          | _ -> ())
      | None -> ())
    failed

(* Execute an optimized report with its guards checked at open: if an SC
   a rewrite relied on was overturned since planning, degrade to the
   rewrite-free backup plan (§4.1's flag-and-revert). *)
let execute_report t (report : Opt.Explain.report) =
  let failed = failed_guards t report in
  let fell_back = failed <> [] in
  let plan =
    match report.Opt.Explain.backup_plan with
    | Some backup when fell_back -> backup
    | _ -> report.Opt.Explain.plan
  in
  let result =
    Obs.Metrics.time t.metrics "time.query_execution" (fun () ->
        Exec.Executor.run t.db plan)
  in
  if fell_back then note_guard_fallback t failed;
  (result, fell_back)

let run_query ?flags t (q : Sqlfe.Ast.query) =
  let report = optimize ?flags t q in
  let result, fell_back = execute_report t report in
  record_feedback ~fell_back t report result;
  result

(* EXPLAIN ANALYZE: instrumented execution with per-node annotation; the
   run also feeds the metrics/feedback loop like any other query. *)
let analyze ?flags t (q : Sqlfe.Ast.query) =
  let analysis =
    Obs.Metrics.time t.metrics "time.query_execution" (fun () ->
        Opt.Explain.analyze (rewrite_ctx ?flags t) (planner_env t) q)
  in
  record_feedback t analysis.Opt.Explain.a_report analysis.Opt.Explain.result;
  analysis

let exec_statement_inner t (stmt : Sqlfe.Ast.statement) : outcome =
  match stmt with
  | Sqlfe.Ast.Query q -> Rows (run_query t q)
  | Sqlfe.Ast.Explain q -> Report (optimize t q)
  | Sqlfe.Ast.Explain_analyze q -> Analyzed (analyze t q)
  | Sqlfe.Ast.Create_table { name; cols; constraints } ->
      let schema =
        Schema.make name
          (List.map
             (fun (c : Sqlfe.Ast.col_def) ->
               Schema.column ~nullable:(not c.Sqlfe.Ast.col_not_null)
                 c.Sqlfe.Ast.col_name c.Sqlfe.Ast.col_type)
             cols)
      in
      ignore (Database.create_table t.db schema);
      List.iter
        (fun con ->
          back_key_with_index t ~table:name con;
          add_table_constraint t ~table:name con)
        constraints;
      Done (Printf.sprintf "created table %s" name)
  | Sqlfe.Ast.Drop_table name ->
      Database.drop_table t.db name;
      Done (Printf.sprintf "dropped table %s" name)
  | Sqlfe.Ast.Drop_index name ->
      Database.drop_index t.db name;
      Done (Printf.sprintf "dropped index %s" name)
  | Sqlfe.Ast.Create_index { index_name; table; columns; unique; online } ->
      if online then (
        (* only the write-only shell: the statement never blocks readers.
           The caller drives the backfill — Idx.Lifecycle.step under the
           session write lock, or synchronously via the string APIs. *)
        ignore
          (Database.create_index_shell t.db ~name:index_name ~table ~columns
             ~unique ());
        Done (Printf.sprintf "created index %s (online, backfill pending)"
                index_name))
      else (
        ignore
          (Database.create_index t.db ~name:index_name ~table ~columns ~unique
             ());
        Done (Printf.sprintf "created index %s" index_name))
  | Sqlfe.Ast.Alter_add_constraint { table; con } ->
      back_key_with_index t ~table con;
      add_table_constraint t ~table con;
      Done "constraint added"
  | Sqlfe.Ast.Alter_partition_by { table; spec } ->
      (* Declaration only: partition-domain SCs are data-dependent, so
         they are installed separately ({!mine_partition_domains}) and
         logged as catalog transitions, never regenerated by DDL replay. *)
      ignore (Database.declare_partitioning t.db ~table spec);
      Done
        (Printf.sprintf "partitioned %s by %s" table
           (Partition.spec_to_string spec))
  | Sqlfe.Ast.Drop_constraint { table = _; name } -> (
      match Database.find_constraint t.db name with
      | Some _ ->
          Database.drop_constraint t.db name;
          Done (Printf.sprintf "dropped constraint %s" name)
      | None -> (
          match Sc_catalog.find t.catalog name with
          | Some _ ->
              Sc_catalog.drop t.catalog name;
              Done (Printf.sprintf "dropped soft constraint %s" name)
          | None -> error "no such constraint: %s" name))
  | Sqlfe.Ast.Create_exception_table { name; constraint_name } -> (
      match Sc_catalog.find t.catalog constraint_name with
      | None -> error "no such soft constraint: %s" constraint_name
      | Some sc ->
          let handle =
            Exception_table.install t.db ~sc ~table_name:name
          in
          Sc_catalog.register_exception_table t.catalog ~constraint_name
            ~table:handle.Exception_table.exception_table;
          Done (Printf.sprintf "exception table %s tracks %s" name
                  constraint_name))
  | Sqlfe.Ast.Insert { table; columns; rows } ->
      let tbl = Database.table_exn t.db table in
      let schema = Table.schema tbl in
      let positions =
        match columns with
        | None -> List.init (Schema.arity schema) Fun.id
        | Some cols -> List.map (Schema.index_exn schema) cols
      in
      let count = ref 0 in
      List.iter
        (fun exprs ->
          if List.length exprs <> List.length positions then
            error "INSERT arity mismatch for table %s" table;
          let row = Array.make (Schema.arity schema) Value.Null in
          List.iter2
            (fun pos e -> row.(pos) <- eval_const_expr e)
            positions exprs;
          ignore (Database.insert t.db ~table (Tuple.of_array row));
          incr count)
        rows;
      Affected !count
  | Sqlfe.Ast.Delete { table; where } ->
      let rids = matching_rids t ~table where in
      List.iter (fun rid -> ignore (Database.delete t.db ~table rid)) rids;
      Affected (List.length rids)
  | Sqlfe.Ast.Update { table; assignments; where } ->
      let tbl = Database.table_exn t.db table in
      let schema = Table.schema tbl in
      let binding = Expr.Binding.of_schema schema in
      let compiled =
        List.map
          (fun (c, e) -> (Schema.index_exn schema c, Expr.compile binding e))
          assignments
      in
      let rids = matching_rids t ~table where in
      List.iter
        (fun rid ->
          let before = Table.get_exn tbl rid in
          let after = Tuple.copy before in
          List.iter (fun (pos, f) -> after.(pos) <- f before) compiled;
          Database.update t.db ~table rid after)
        rids;
      Affected (List.length rids)
  | Sqlfe.Ast.Runstats table ->
      runstats ?table t;
      Done "statistics collected"

(* Statement execution framed by the [Stmt_started]/[Stmt_finished]
   hooks, which the WAL link uses for autocommit boundaries. *)
let exec_statement t (stmt : Sqlfe.Ast.statement) : outcome =
  notify t (Stmt_started stmt);
  match exec_statement_inner t stmt with
  | outcome ->
      notify t (Stmt_finished (stmt, true));
      outcome
  | exception e ->
      notify t (Stmt_finished (stmt, false));
      raise e

(* The string APIs have no session loop to drive an online backfill, so
   a [CREATE INDEX ... ONLINE] finishes synchronously after the statement:
   the DDL itself (and its WAL record) covers only the shell, then the
   build runs to completion and its lifecycle transitions surface through
   {!Database.on_index_state} — which is exactly what the WAL's Idx_state
   records capture, so replay reproduces shell + transitions, never a
   second backfill. *)
let finish_online_build t (stmt : Sqlfe.Ast.statement) =
  match stmt with
  | Sqlfe.Ast.Create_index { index_name; online = true; _ } -> (
      match Database.find_index_by_name t.db index_name with
      | Some idx when Index.state idx = Index.Write_only ->
          ignore (Idx.Lifecycle.run t.db idx : Idx.Lifecycle.outcome)
      | _ -> ())
  | _ -> ()

let exec t sql =
  let stmt = Sqlfe.Parser.parse_statement sql in
  let outcome = exec_statement t stmt in
  finish_online_build t stmt;
  outcome

let exec_script t sql =
  List.map
    (fun stmt ->
      let outcome = exec_statement t stmt in
      finish_online_build t stmt;
      outcome)
    (Sqlfe.Parser.parse_script sql)

(* Run a query string and return the rows. *)
let query ?flags t sql =
  match Sqlfe.Parser.parse_statement sql with
  | Sqlfe.Ast.Query q -> run_query ?flags t q
  | _ -> error "expected a SELECT statement"

let explain ?flags t sql =
  match Sqlfe.Parser.parse_statement sql with
  | Sqlfe.Ast.Query q | Sqlfe.Ast.Explain q -> optimize ?flags t q
  | _ -> error "expected a SELECT statement"

(* Convenience oracle used everywhere in tests and benches: the same
   query with the whole soft-constraint machinery off. *)
let query_baseline t sql = query ~flags:Opt.Rewrite.all_off t sql
