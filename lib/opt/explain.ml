open Exec
(* EXPLAIN: end-to-end optimization of a parsed query with a readable
   trace — the rewritten statement, the rules that fired, the twin
   predicates the cardinality model saw, estimates, and the physical
   plan. *)

type report = {
  original : Sqlfe.Ast.query;
  logical : Logical.t;
  rewritten : Logical.t;
  applied : Rewrite.applied list;
  estimated_cardinality : float;
  plan : Plan.t;
  estimated_cost : float;
  guards : string list;
  backup_plan : Plan.t option;
}

(* Estimation-only rewrites (twins) never change results, so they need no
   guard; every other fired rule did change the plan's semantics on the
   strength of some constraint. *)
let result_changing applied =
  List.filter (fun (a : Rewrite.applied) -> a.Rewrite.rule <> "twinning")
    applied

(* Index-only access is decided inside the planner, not the rewriter;
   collect each such scan so it can be surfaced as an applied
   "index_only" entry — with a certificate, a guard, and a backup —
   like any other result-changing transformation. *)
let rec index_only_accesses (plan : Plan.t) =
  match plan with
  | Plan.Index_only_scan { table; alias; index; _ } -> [ (index, table, alias) ]
  | _ -> List.concat_map index_only_accesses (Plan.children plan)

let optimize (ctx : Rewrite.ctx) (penv : Planner.env) (q : Sqlfe.Ast.query) :
    report =
  let logical = Logical.of_query q in
  let rewritten, applied = Rewrite.rewrite ctx logical in
  let plan, cost = Planner.plan_query penv rewritten in
  let idx_applied =
    List.map
      (fun (index, table, alias) ->
        {
          Rewrite.rule = "index_only";
          detail =
            Printf.sprintf "%s (%s) answered from index %s alone" alias
              table index;
          sc = Some ("idx:" ^ index);
          premises = [ "idx:" ^ index ];
          delta = Rewrite.Index_access { index; table; alias };
        })
      (index_only_accesses plan)
  in
  let applied = applied @ idx_applied in
  let changing = result_changing applied in
  let guards =
    List.sort_uniq String.compare
      (List.filter_map (fun (a : Rewrite.applied) -> a.Rewrite.sc) changing)
  in
  let backup_plan =
    (* only needed when a rewrite actually changed the query: the backup
       is the plan of the unrewritten logical form (§4.1's "'backup' plan
       which is ASC-free") — and, when the primary leans on an index,
       planned with indexes disabled entirely, so a demotion mid-flight
       can never invalidate the fallback too *)
    if changing = [] then None
    else
      let bpenv =
        if idx_applied <> [] then { penv with Planner.use_indexes = false }
        else penv
      in
      Some (fst (Planner.plan_query bpenv logical))
  in
  {
    original = q;
    logical;
    rewritten;
    applied;
    estimated_cardinality =
      Selectivity.query_cardinality (Planner.sel_env penv) rewritten;
    plan;
    estimated_cost = cost;
    guards;
    backup_plan;
  }

(* ---- rewrite certificates ------------------------------------------------- *)

(* A certificate is the per-rewrite view [softdb check] re-derives
   soundness from: the rule, its SC premises, the structural delta, and
   whether the delta can change results.  It is a projection of
   [report.applied] — kept as a separate type so the checker does not
   depend on how the rewriter logs. *)
type certificate = {
  cert_rule : string;
  cert_detail : string;
  cert_premises : string list;
  cert_delta : Rewrite.delta;
  cert_result_changing : bool;
}

let certificate_of (a : Rewrite.applied) =
  {
    cert_rule = a.Rewrite.rule;
    cert_detail = a.Rewrite.detail;
    cert_premises = a.Rewrite.premises;
    cert_delta = a.Rewrite.delta;
    cert_result_changing = Rewrite.delta_changes_results a.Rewrite.delta;
  }

let certificates r = List.map certificate_of r.applied

let pp_certificate ppf c =
  Fmt.pf ppf "%s [%s] {%a} premises: %s" c.cert_rule
    (if c.cert_result_changing then "result-changing" else "estimation-only")
    Rewrite.pp_delta c.cert_delta
    (match c.cert_premises with
    | [] -> "(none)"
    | ps -> String.concat ", " ps)

let pp_certificates ppf r =
  match certificates r with
  | [] -> Fmt.pf ppf "certificates: (none)@."
  | certs ->
      Fmt.pf ppf "certificates:@.";
      List.iter (fun c -> Fmt.pf ppf "  - %a@." pp_certificate c) certs

(* Everything shown by EXPLAIN except the plan tree itself; shared with
   EXPLAIN ANALYZE, which renders its own annotated tree. *)
let pp_header ppf r =
  Fmt.pf ppf "original : %s@." (Sqlfe.Printer.query_to_string r.original);
  Fmt.pf ppf "rewritten: %s@."
    (Sqlfe.Printer.query_to_string (Logical.to_query r.rewritten));
  (match r.applied with
  | [] -> Fmt.pf ppf "rewrites : (none)@."
  | rules ->
      Fmt.pf ppf "rewrites :@.";
      List.iter (fun a -> Fmt.pf ppf "  - %a@." Rewrite.pp_applied a) rules);
  let rec twins ppf = function
    | Logical.Block b ->
        List.iter
          (fun (p : Logical.pred_item) ->
            if p.Logical.estimation_only then
              Fmt.pf ppf "  ~ %a@." Logical.pp_pred_item p)
          b.Logical.preds
    | Logical.Union ts -> List.iter (twins ppf) ts
  in
  twins ppf r.rewritten

let pp ppf r =
  pp_header ppf r;
  Fmt.pf ppf "est. rows: %.1f  est. cost: %.1f@." r.estimated_cardinality
    r.estimated_cost;
  Fmt.pf ppf "plan:@.%a" (Plan.pp ~indent:2) r.plan

let to_string r = Fmt.str "%a" pp r

(* ---- EXPLAIN ANALYZE ------------------------------------------------------ *)

(* Per-node cardinality estimation over the *physical* plan, so the
   annotated tree can show estimated vs. actual rows at every operator.
   Scan nodes reuse the blended (twin-aware) per-table estimates computed
   on the rewritten logical query; everything above applies the same
   default filter factors the block estimator uses.  This is a display
   model — the cost-based choices were already made by the planner. *)

let norm = String.lowercase_ascii

(* Per-alias blended output estimates, scoped by UNION ALL branch: both
   branches of an exception union name the same alias, so each child of
   a [Union_all] node reads the estimates of its own logical branch. *)
type scope = { alias_est : (string * float) list; branches : scope list }

let rec scope_of senv (l : Logical.t) =
  match l with
  | Logical.Block b ->
      let e = Selectivity.estimate_block senv b in
      {
        alias_est =
          List.map
            (fun (alias, base, sel) -> (norm alias, base *. sel))
            e.Selectivity.per_table;
        branches = [];
      }
  | Logical.Union ts ->
      { alias_est = []; branches = List.map (scope_of senv) ts }

(* the scope each child of [plan] is estimated in *)
let child_scopes scope (plan : Plan.t) =
  match plan with
  | Plan.Union_all inputs
    when List.compare_lengths inputs scope.branches = 0 ->
      scope.branches
  | _ -> List.map (fun _ -> scope) (Plan.children plan)

(* the scans visible below a node: alias -> table *)
let rec scans_below plan acc =
  match plan with
  | Plan.Seq_scan { table; alias; _ }
  | Plan.Index_scan { table; alias; _ }
  | Plan.Index_only_scan { table; alias; _ }
  | Plan.Partition_scan { table; alias; _ }
  | Plan.Partition_concat { table; alias; _ } ->
      (norm alias, table) :: acc
  | Plan.Filter { input; _ }
  | Plan.Project { input; _ }
  | Plan.Sort { input; _ }
  | Plan.Group { input; _ }
  | Plan.Limit { input; _ } ->
      scans_below input acc
  | Plan.Distinct input -> scans_below input acc
  | Plan.Nested_loop_join { left; right; _ }
  | Plan.Hash_join { left; right; _ }
  | Plan.Merge_join { left; right; _ } ->
      scans_below left (scans_below right acc)
  | Plan.Union_all inputs ->
      List.fold_left (fun acc p -> scans_below p acc) acc inputs

let table_of_col senv scans (r : Rel.Expr.col_ref) =
  match r.Rel.Expr.rel with
  | Some q -> List.assoc_opt (norm q) scans
  | None ->
      List.find_map
        (fun (_, table) ->
          match Rel.Database.find_table senv.Selectivity.db table with
          | Some tbl
            when Rel.Schema.find_index (Rel.Table.schema tbl) r.Rel.Expr.col
                 <> None ->
              Some table
          | _ -> None)
        scans

let ndv_of senv scans (r : Rel.Expr.col_ref) =
  match table_of_col senv scans r with
  | Some table -> Selectivity.ndv senv ~table ~column:r.Rel.Expr.col
  | None -> 25

let rec pred_sel senv scans (p : Rel.Expr.pred) =
  let open Rel in
  match p with
  | Expr.Ptrue -> 1.0
  | Expr.Pfalse -> 0.0
  | Expr.Cmp (Expr.Eq, Expr.Col a, Expr.Col b) ->
      1.0
      /. float_of_int (max (ndv_of senv scans a) (ndv_of senv scans b))
  | Expr.Cmp (Expr.Ne, _, _) -> 1.0 -. Selectivity.default_eq
  | Expr.Cmp ((Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge), _, _) ->
      Selectivity.default_range
  | Expr.Cmp (Expr.Eq, _, _) -> Selectivity.default_eq
  | Expr.Between _ -> Selectivity.default_range /. 2.0
  | Expr.In_list (_, vs) ->
      Float.min 1.0 (Selectivity.default_eq *. float_of_int (List.length vs))
  | Expr.Is_null _ -> Selectivity.default_eq
  | Expr.Is_not_null _ -> 1.0 -. Selectivity.default_eq
  | Expr.And (a, b) -> pred_sel senv scans a *. pred_sel senv scans b
  | Expr.Or (a, b) ->
      let sa = pred_sel senv scans a and sb = pred_sel senv scans b in
      Float.min 1.0 (sa +. sb -. (sa *. sb))
  | Expr.Not a -> Float.max 0.0 (1.0 -. pred_sel senv scans a)

(* The planner hands both scan shapes the full conjoined local filter
   (the index probe range is also kept as residual), so rows × filter
   selectivity is the right estimate for either; the blended per-alias
   estimate additionally folds in estimation-only twins. *)
let scan_estimate senv scope ~table ~alias ~filter =
  match List.assoc_opt (norm alias) scope.alias_est with
  | Some e -> e
  | None ->
      let rows = Selectivity.table_cardinality senv table in
      let preds = List.map Selectivity.localize (Rel.Expr.conjuncts filter) in
      rows *. Selectivity.conjunct_selectivity senv ~table preds

let rec estimate senv scope (plan : Plan.t) =
  match plan with
  | Plan.Seq_scan { table; alias; filter } ->
      scan_estimate senv scope ~table ~alias ~filter
  | Plan.Index_scan { table; alias; filter; _ }
  | Plan.Index_only_scan { table; alias; filter; _ } ->
      scan_estimate senv scope ~table ~alias ~filter
  | Plan.Partition_concat { table; alias; children; _ } -> (
      (* all surviving partitions re-produce the blended per-alias
         estimate; a pruned concatenation scales it by the surviving row
         fraction *)
      let whole = scan_estimate senv scope ~table ~alias ~filter:Rel.Expr.Ptrue in
      match Rel.Database.partitioning senv.Selectivity.db table with
      | None -> whole
      | Some part ->
          let total =
            List.init (Rel.Partition.count part) (Rel.Partition.rows part)
            |> List.fold_left ( + ) 0
          in
          let surviving =
            List.fold_left
              (fun acc (i, _) -> acc + Rel.Partition.rows part i)
              0 children
          in
          if total = 0 then 0.0
          else whole *. (float_of_int surviving /. float_of_int total))
  | Plan.Partition_scan { table; alias; filter; partition } -> (
      let whole = scan_estimate senv scope ~table ~alias ~filter in
      match Rel.Database.partitioning senv.Selectivity.db table with
      | None -> whole
      | Some part ->
          let total =
            List.init (Rel.Partition.count part) (Rel.Partition.rows part)
            |> List.fold_left ( + ) 0
          in
          if total = 0 then 0.0
          else
            whole
            *. (float_of_int (Rel.Partition.rows part partition)
               /. float_of_int total))
  | Plan.Filter { input; pred } ->
      estimate senv scope input
      *. pred_sel senv (scans_below input []) pred
  | Plan.Project { input; _ } | Plan.Sort { input; _ } ->
      estimate senv scope input
  | Plan.Distinct input ->
      (* approximation: no reduction, matching the block estimator *)
      estimate senv scope input
  | Plan.Nested_loop_join { left; right; pred } ->
      estimate senv scope left
      *. estimate senv scope right
      *. pred_sel senv (scans_below plan []) pred
  | Plan.Hash_join { left; right; left_keys; right_keys; residual; _ }
  | Plan.Merge_join { left; right; left_keys; right_keys; residual } ->
      let scans = scans_below plan [] in
      let key_sel l r =
        match (l, r) with
        | Rel.Expr.Col a, Rel.Expr.Col b ->
            1.0
            /. float_of_int (max (ndv_of senv scans a) (ndv_of senv scans b))
        | _ -> Selectivity.default_eq
      in
      let rec keys_sel ls rs =
        match (ls, rs) with
        | l :: ltl, r :: rtl -> key_sel l r *. keys_sel ltl rtl
        | _ -> 1.0
      in
      estimate senv scope left
      *. estimate senv scope right
      *. keys_sel left_keys right_keys
      *. pred_sel senv scans residual
  | Plan.Group { input; keys; _ } ->
      let inp = estimate senv scope input in
      if keys = [] then 1.0
      else
        let scans = scans_below input [] in
        let groups =
          List.fold_left
            (fun acc (e, _) ->
              acc
              *.
              match e with
              | Rel.Expr.Col r -> float_of_int (ndv_of senv scans r)
              | _ -> 25.0)
            1.0 keys
        in
        Float.min inp groups
  | Plan.Union_all inputs ->
      List.fold_left2
        (fun acc sc p -> acc +. estimate senv sc p)
        0.0 (child_scopes scope plan) inputs
  | Plan.Limit { input; n } ->
      Float.min (estimate senv scope input) (float_of_int n)

(* single-line operator labels for the annotated tree *)
let node_label (plan : Plan.t) =
  let open Rel in
  match plan with
  | Plan.Seq_scan { table; alias; filter } ->
      Fmt.str "SeqScan %s%s%a" table
        (if alias = table then "" else " as " ^ alias)
        Plan.pp_filter filter
  | Plan.Index_scan { table; alias; index; lo; hi; filter } ->
      Fmt.str "IndexScan %s%s using %s [%a, %a]%a" table
        (if alias = table then "" else " as " ^ alias)
        index Plan.pp_bound lo Plan.pp_bound hi Plan.pp_filter filter
  | Plan.Index_only_scan { table; alias; index; columns; lo; hi; filter } ->
      Fmt.str "IndexOnlyScan %s%s using %s (%s) [%a, %a]%a" table
        (if alias = table then "" else " as " ^ alias)
        index
        (String.concat ", " columns)
        Plan.pp_bound lo Plan.pp_bound hi Plan.pp_filter filter
  | Plan.Filter { pred; _ } -> Fmt.str "Filter %a" Expr.pp_pred pred
  | Plan.Project { exprs; _ } ->
      Fmt.str "Project %a"
        (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (e, n) ->
             Fmt.pf ppf "%a as %s" Expr.pp e n))
        exprs
  | Plan.Nested_loop_join { pred; _ } ->
      Fmt.str "NestedLoopJoin on %a" Expr.pp_pred pred
  | Plan.Hash_join { left_keys; right_keys; residual; build; _ } ->
      Fmt.str "HashJoin %a = %a%a build %s"
        (Fmt.list ~sep:(Fmt.any ", ") Expr.pp)
        left_keys
        (Fmt.list ~sep:(Fmt.any ", ") Expr.pp)
        right_keys Plan.pp_filter residual (Plan.side_name build)
  | Plan.Merge_join { left_keys; right_keys; residual; _ } ->
      Fmt.str "MergeJoin %a = %a%a"
        (Fmt.list ~sep:(Fmt.any ", ") Expr.pp)
        left_keys
        (Fmt.list ~sep:(Fmt.any ", ") Expr.pp)
        right_keys Plan.pp_filter residual
  | Plan.Sort { keys; _ } ->
      Fmt.str "Sort %a"
        (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (k : Plan.sort_key) ->
             Fmt.pf ppf "%a%s" Expr.pp k.Plan.key
               (if k.Plan.asc then "" else " desc")))
        keys
  | Plan.Group { keys; aggs; _ } ->
      Fmt.str "Group by %a aggs %a"
        (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (e, _) -> Expr.pp ppf e))
        keys
        (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (a : Plan.agg) ->
             Fmt.pf ppf "%s(%a)"
               (Plan.agg_fn_name a.Plan.fn)
               Fmt.(option ~none:(any "*") Expr.pp)
               a.Plan.arg))
        aggs
  | Plan.Distinct _ -> "Distinct"
  | Plan.Union_all inputs ->
      Fmt.str "UnionAll (%d branches)" (List.length inputs)
  | Plan.Limit { n; _ } -> Fmt.str "Limit %d" n
  | Plan.Partition_scan { table; alias; partition; filter } ->
      Fmt.str "PartitionScan %s%s partition %d%a" table
        (if alias = table then "" else " as " ^ alias)
        partition Plan.pp_filter filter
  | Plan.Partition_concat { table; alias; children } ->
      Fmt.str "PartitionConcat %s%s (%d partitions)" table
        (if alias = table then "" else " as " ^ alias)
        (List.length children)

type node_stat = {
  depth : int;
  label : string;
  est_rows : float;
  actual_rows : int;
  node_q_error : float;
  pulls : int; (* 0: opened but never pulled, or never opened *)
  elapsed_s : float; (* monotonic time, children included; informational *)
}

type analysis = {
  a_report : report;
  result : Executor.result;
  nodes : node_stat list; (* preorder *)
  total_q_error : float; (* root estimate vs. root actual *)
}

let analyze (ctx : Rewrite.ctx) (penv : Planner.env) (q : Sqlfe.Ast.query) :
    analysis =
  let report = optimize ctx penv q in
  let db = penv.Planner.db in
  let senv = Planner.sel_env penv in
  let counters = Operators.Counters.create () in
  let rows, node_stats =
    Operators.run_instrumented db ~counters report.plan
  in
  let result =
    { Executor.columns = Executor.column_names db report.plan; rows; counters }
  in
  let stat_of node =
    Option.map snd (List.find_opt (fun (p, _) -> p == node) node_stats)
  in
  let rec walk depth scope plan acc =
    let est = estimate senv scope plan in
    let actual, pulls, elapsed =
      match stat_of plan with
      | Some s ->
          Operators.Node.(s.produced, s.pulls, s.elapsed_s)
      | None -> (0, 0, 0.0) (* node never opened *)
    in
    let node =
      {
        depth;
        label = node_label plan;
        est_rows = est;
        actual_rows = actual;
        node_q_error = Obs.Feedback.q_error ~estimated:est ~actual;
        pulls;
        elapsed_s = elapsed;
      }
    in
    List.fold_left2
      (fun acc scope child -> walk (depth + 1) scope child acc)
      (node :: acc) (child_scopes scope plan) (Plan.children plan)
  in
  let nodes = List.rev (walk 0 (scope_of senv report.rewritten) report.plan []) in
  {
    a_report = report;
    result;
    nodes;
    total_q_error =
      Obs.Feedback.q_error ~estimated:report.estimated_cardinality
        ~actual:(List.length rows);
  }

let rewrite_counts r =
  List.fold_left
    (fun acc (a : Rewrite.applied) ->
      let n = try List.assoc a.Rewrite.rule acc with Not_found -> 0 in
      (a.Rewrite.rule, n + 1) :: List.remove_assoc a.Rewrite.rule acc)
    [] r.applied
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Only nodes that were pulled are scored: one opened but never pulled
   (the probe side of a join under [Limit 0], say) reads actual=0
   whatever its estimate, which says how the executor ran, not how well
   it estimated. *)
let scored a = List.filter (fun n -> n.pulls > 0) a.nodes

let node_q_error_max a =
  List.fold_left (fun m n -> Float.max m n.node_q_error) 1.0 (scored a)

let node_q_error_geomean a =
  match scored a with
  | [] -> 1.0
  | nodes ->
      let log_sum =
        List.fold_left (fun s n -> s +. Float.log (max n.node_q_error 1.0))
          0.0 nodes
      in
      Float.exp (log_sum /. float_of_int (List.length nodes))

let pp_analysis ppf a =
  pp_header ppf a.a_report;
  Fmt.pf ppf "est. rows: %.1f  actual rows: %d  q-error: %.2f@."
    a.a_report.estimated_cardinality
    (List.length a.result.Executor.rows)
    a.total_q_error;
  Fmt.pf ppf "plan:@.";
  List.iter
    (fun n ->
      Fmt.pf ppf "%s%s (est=%.1f actual=%d q=%.2f time=%.3fms)@."
        (String.make (2 + (2 * n.depth)) ' ')
        n.label n.est_rows n.actual_rows n.node_q_error (n.elapsed_s *. 1000.0))
    a.nodes;
  Fmt.pf ppf "exec     : %a@." Operators.Counters.pp
    a.result.Executor.counters

let analysis_to_string a = Fmt.str "%a" pp_analysis a
