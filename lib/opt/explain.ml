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
  estimates : Planner.estimates;
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
  let plan, cost, estimates = Planner.plan_query penv rewritten in
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
      let backup, _, _ = Planner.plan_query bpenv logical in
      Some backup
  in
  {
    original = q;
    logical;
    rewritten;
    applied;
    estimated_cardinality = List.assq plan estimates;
    plan;
    estimates;
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
  let rec walk depth plan acc =
    let est = List.assq plan report.estimates in
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
    List.fold_left
      (fun acc child -> walk (depth + 1) child acc)
      (node :: acc) (Plan.children plan)
  in
  let nodes = List.rev (walk 0 report.plan []) in
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
