(* The independent certificate checker (tentpole pass 1).

   The rewriter emits, for every fired transformation, a certificate
   naming its SC premises and the structural plan delta
   ({!Opt.Rewrite.applied}).  This module re-derives soundness from the
   live catalog without trusting the rewriter:

   - every premise must resolve to a declared IC or a currently-valid
     catalog SC;
   - a result-changing delta may not rest on a statistical SC — only
     twins (estimation-only) may, and their payload must carry a
     confidence in (0, 1];
   - every overturnable (soft absolute) premise of a result-changing
     rewrite must appear in the report's guard set, and such a plan must
     carry a backup plan (§4.1 flag-and-revert);
   - the delta's shape must match the rule that claims it;
   - twin predicates must be marked estimation-only and must not appear
     among the executable predicates of the physical plan (or backup),
     unless a non-twin item of the query puts the same conjunct there. *)

open Rel

let pass = "cert"

(* What a premise name resolves to, from the checker's point of view. *)
type basis =
  | Hard  (* declared (hard or informational) IC: needs no guard *)
  | Soft_absolute  (* overturnable ASC: must be guarded *)
  | Soft_statistical  (* SSC: estimation-only basis *)
  | Invalid of string  (* reason it is no valid basis *)

let basis_of ?(rule = "") sdb name =
  if String.length name > 4 && String.sub name 0 4 = "idx:" then
    (* index-backed rewrite premise: sound while the named index exists
       and is readable — the same condition guard_ok re-checks at open *)
    let index = String.sub name 4 (String.length name - 4) in
    match Database.find_index_by_name (Core.Softdb.db sdb) index with
    | Some idx when Index.is_readable idx -> Soft_absolute
    | Some idx ->
        Invalid
          (Printf.sprintf "names index %s in non-readable state %s" index
             (Index.state_to_string (Index.state idx)))
    | None -> Invalid "names no index in the catalog"
  else
  match Database.find_constraint (Core.Softdb.db sdb) name with
  | Some _ -> Hard
  | None -> (
      match Core.Sc_catalog.find (Core.Softdb.catalog sdb) name with
      | None -> Invalid "names no declared IC or catalog SC"
      | Some sc ->
          (* guard_ok admits usable SCs and exception-backed ASCs whose
             exception table still exists — the same validity the guarded
             executor re-checks at open *)
          if not (Core.Softdb.guard_ok sdb name) then
            Invalid "is not usable (overturned, on probation, or dropped)"
          else if Core.Soft_constraint.is_absolute sc then Soft_absolute
          else if
            (* an SSC whose violators an exception table holds is an
               exact basis for the exception union (paper §4.4); the
               table can be dropped, so it is guarded like an ASC *)
            rule = "exception_union"
            && Core.Sc_catalog.exception_table_for (Core.Softdb.catalog sdb)
                 name
               <> None
          then Soft_absolute
          else Soft_statistical)

(* Which delta shapes a rule may legitimately claim. *)
let shape_ok rule (delta : Opt.Rewrite.delta) =
  match (rule, delta) with
  | "join_elimination", Opt.Rewrite.Source_removed _
  | ( ("predicate_introduction" | "equality_transitivity"),
      Opt.Rewrite.Pred_added _ )
  | "hole_trimming", (Opt.Rewrite.Pred_added _ | Opt.Rewrite.Block_falsified)
  | "exception_union", Opt.Rewrite.Union_split _
  | ( "fd_simplification",
      (Opt.Rewrite.Order_key_dropped _ | Opt.Rewrite.Group_key_dropped _) )
  | "unsatisfiable", Opt.Rewrite.Block_falsified
  | "unionall_pruning", Opt.Rewrite.Branch_pruned
  | "partition_pruning", Opt.Rewrite.Partition_pruned _
  | "index_only", Opt.Rewrite.Index_access _
  | "twinning", Opt.Rewrite.Pred_twinned _ ->
      true
  | _ -> false

(* Rules whose soundness argument always rests on at least one named
   constraint.  (FD simplification can be carried by declared keys alone,
   and an unsatisfiability proof by the query's own predicates, so those
   may legitimately name none.) *)
let premises_required = function
  | "join_elimination" | "predicate_introduction" | "exception_union"
  | "index_only" | "twinning" ->
      true
  | _ -> false

let check_certificate sdb ~guards ~has_backup (c : Opt.Explain.certificate) =
  let subject = c.Opt.Explain.cert_rule in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  if not (shape_ok c.Opt.Explain.cert_rule c.Opt.Explain.cert_delta) then
    add
      (Diag.error ~pass ~subject "delta {%s} does not match the rule"
         (Fmt.str "%a" Opt.Rewrite.pp_delta c.Opt.Explain.cert_delta));
  if
    c.Opt.Explain.cert_result_changing
    <> Opt.Rewrite.delta_changes_results c.Opt.Explain.cert_delta
  then
    add
      (Diag.error ~pass ~subject
         "result-changing flag disagrees with the delta");
  if
    premises_required c.Opt.Explain.cert_rule
    && c.Opt.Explain.cert_premises = []
  then
    add
      (Diag.error ~pass ~subject
         "names no premise but the rule requires a constraint basis");
  List.iter
    (fun name ->
      match basis_of ~rule:c.Opt.Explain.cert_rule sdb name with
      | Invalid reason ->
          add (Diag.error ~pass ~subject "premise %s %s" name reason)
      | Hard -> ()
      | Soft_absolute ->
          if c.Opt.Explain.cert_result_changing then begin
            if not (List.mem name guards) then
              add
                (Diag.error ~pass ~subject
                   "result-changing rewrite premised on overturnable ASC %s \
                    is not in the plan's guard set"
                   name);
            if not has_backup then
              add
                (Diag.error ~pass ~subject
                   "premised on overturnable ASC %s but the plan carries no \
                    backup"
                   name)
          end
      | Soft_statistical ->
          if c.Opt.Explain.cert_result_changing then
            add
              (Diag.error ~pass ~subject
                 "result-changing rewrite rests on statistical SC %s \
                  (estimation-only basis)"
                 name))
    c.Opt.Explain.cert_premises;
  (match c.Opt.Explain.cert_delta with
  | Opt.Rewrite.Pred_twinned { confidence; _ } ->
      if not (confidence > 0.0 && confidence <= 1.0) then
        add
          (Diag.error ~pass ~subject "twin confidence %.3f outside (0, 1]"
             confidence)
  | _ -> ());
  List.rev !diags

(* ---- twin isolation -------------------------------------------------------- *)

let rec twin_items acc (l : Opt.Logical.t) =
  match l with
  | Opt.Logical.Block b ->
      List.fold_left
        (fun acc (p : Opt.Logical.pred_item) ->
          match p.Opt.Logical.origin with
          | Opt.Logical.Twin _ -> p :: acc
          | _ -> acc)
        acc b.Opt.Logical.preds
  | Opt.Logical.Union ts -> List.fold_left twin_items acc ts

(* Every predicate the physical plan will actually evaluate. *)
let rec plan_preds acc (p : Exec.Plan.t) =
  match p with
  | Exec.Plan.Seq_scan { filter; _ } -> filter :: acc
  | Exec.Plan.Index_scan { filter; _ } -> filter :: acc
  | Exec.Plan.Index_only_scan { filter; _ } -> filter :: acc
  | Exec.Plan.Filter { input; pred } -> plan_preds (pred :: acc) input
  | Exec.Plan.Project { input; _ }
  | Exec.Plan.Sort { input; _ }
  | Exec.Plan.Group { input; _ }
  | Exec.Plan.Limit { input; _ } ->
      plan_preds acc input
  | Exec.Plan.Distinct input -> plan_preds acc input
  | Exec.Plan.Nested_loop_join { left; right; pred } ->
      plan_preds (plan_preds (pred :: acc) left) right
  | Exec.Plan.Hash_join { left; right; residual; _ }
  | Exec.Plan.Merge_join { left; right; residual; _ } ->
      plan_preds (plan_preds (residual :: acc) left) right
  | Exec.Plan.Union_all _ | Exec.Plan.Partition_concat _ ->
      List.fold_left plan_preds acc (Exec.Plan.children p)
  | Exec.Plan.Partition_scan { filter; _ } -> filter :: acc

(* The conjuncts the logical plans legitimately execute: every conjunct
   of a non-twin item, in the rewritten query and in the unrewritten one
   the backup is planned from.  An exception-union fold can equal a twin
   in text; its origin, not its text, tells it apart. *)
let rec sanctioned_conjuncts acc (l : Opt.Logical.t) =
  match l with
  | Opt.Logical.Block b ->
      List.fold_left
        (fun acc (p : Opt.Logical.pred_item) ->
          match p.Opt.Logical.origin with
          | Opt.Logical.Twin _ -> acc
          | Opt.Logical.User | Opt.Logical.Introduced _ | Opt.Logical.Folded _
            ->
              Expr.conjuncts p.Opt.Logical.pred @ acc)
        acc b.Opt.Logical.preds
  | Opt.Logical.Union ts -> List.fold_left sanctioned_conjuncts acc ts

let twin_diags (report : Opt.Explain.report) =
  let twins = twin_items [] report.Opt.Explain.rewritten in
  let sanctioned =
    sanctioned_conjuncts
      (sanctioned_conjuncts [] report.Opt.Explain.rewritten)
      report.Opt.Explain.logical
  in
  let flag_diags =
    List.filter_map
      (fun (p : Opt.Logical.pred_item) ->
        if p.Opt.Logical.estimation_only then None
        else
          Some
            (Diag.error ~pass ~subject:"twin"
               "twin predicate %s is not marked estimation-only"
               (Expr.to_string_pred p.Opt.Logical.pred)))
      twins
  in
  let exec_conjuncts =
    let preds =
      plan_preds [] report.Opt.Explain.plan
      @
      match report.Opt.Explain.backup_plan with
      | Some b -> plan_preds [] b
      | None -> []
    in
    List.concat_map Expr.conjuncts preds
  in
  let leak_diags =
    List.filter_map
      (fun (p : Opt.Logical.pred_item) ->
        let leaked =
          List.exists
            (fun c -> List.mem c exec_conjuncts && not (List.mem c sanctioned))
            (Expr.conjuncts p.Opt.Logical.pred)
        in
        if leaked then
          Some
            (Diag.error ~pass ~subject:"twin"
               "twin predicate %s appears among the plan's executable \
                predicates"
               (Expr.to_string_pred p.Opt.Logical.pred))
        else None)
      twins
  in
  flag_diags @ leak_diags

(* ---- partition-prune re-derivation ---------------------------------------- *)

(* Re-derive every [Partition_pruned] certificate without trusting the
   rewriter: the pruned segment's constraint — its routing bounds,
   tightened by whichever premises are partition-domain SCs of that
   segment — must contradict the block's executable predicates, and the
   contradiction must be anchored by a query predicate on the same column
   (a constraint interval alone proves nothing about rows the query has
   not already confined to non-NULL; CHECK semantics pass on UNKNOWN).
   Hash segments carry no interval constraint, so a hash prune is only
   sound when an equality on the partition column routes elsewhere. *)

let norm = String.lowercase_ascii

let rec strip_null_arms = function
  | Expr.Or (p, Expr.Is_null _) -> strip_null_arms p
  | p -> p

let requalify alias p =
  Expr.map_cols_pred
    (fun r ->
      match r.Expr.rel with
      | None -> { r with Expr.rel = Some alias }
      | Some _ -> r)
    p

let partition_diags sdb (report : Opt.Explain.report) =
  let db = Core.Softdb.db sdb in
  let catalog = Core.Softdb.catalog sdb in
  let rec blocks acc = function
    | Opt.Logical.Block b -> b :: acc
    | Opt.Logical.Union ts -> List.fold_left blocks acc ts
  in
  let blks = blocks [] report.Opt.Explain.rewritten in
  let check_prune (c : Opt.Explain.certificate) ~table ~alias ~partition =
    let subject = c.Opt.Explain.cert_rule in
    let fail fmt = Diag.error ~pass ~subject fmt in
    match Database.partitioning db table with
    | None -> [ fail "%s is not partitioned but a prune names it" table ]
    | Some part when partition < 0 || partition >= Partition.count part ->
        [ fail "pruned partition %d out of range for %s" partition table ]
    | Some part -> (
        let block =
          List.find_opt
            (fun (b : Opt.Logical.block) ->
              List.exists
                (fun (s : Opt.Logical.source) ->
                  norm s.Opt.Logical.alias = norm alias
                  && norm s.Opt.Logical.table = norm table)
                b.Opt.Logical.from)
            blks
        in
        match block with
        | None ->
            [ fail "pruned source %s (%s) not found in the rewritten query"
                alias table ]
        | Some block ->
            let key_of (r : Expr.col_ref) =
              match Opt.Logical.sources_of_col db block r with
              | [ s ] ->
                  Some (norm s.Opt.Logical.alias ^ "." ^ norm r.Expr.col)
              | _ -> None
            in
            let query_preds =
              List.map
                (fun (p : Opt.Logical.pred_item) -> p.Opt.Logical.pred)
                (Opt.Logical.executable_preds block)
            in
            (* premises that are partition-domain SCs of this segment
               tighten the constraint (their validity was already checked
               by [check_certificate]) *)
            let sc_preds =
              List.filter_map
                (fun name ->
                  match Core.Sc_catalog.find catalog name with
                  | Some
                      ({
                         Core.Soft_constraint.statement =
                           Core.Soft_constraint.Part_stmt { partition = i; pred };
                         _;
                       } as sc)
                    when i = partition
                         && norm sc.Core.Soft_constraint.table = norm table ->
                      Some pred
                  | _ -> None)
                c.Opt.Explain.cert_premises
            in
            let part_preds =
              List.map (requalify alias)
                (strip_null_arms (Partition.constraint_pred part partition)
                :: sc_preds)
            in
            let interval_contradiction =
              Opt.Interval.contradicts ~key_of query_preds part_preds
            in
            let hash_exclusion =
              match Partition.spec part with
              | Partition.Range _ -> false
              | Partition.Hash _ -> (
                  let col = Partition.column part in
                  match key_of { Expr.rel = Some alias; col } with
                  | None -> false
                  | Some key ->
                      Opt.Interval.const_bindings query_preds
                      |> List.exists (fun (r, v) ->
                             key_of r = Some key
                             && Partition.route_value part v <> partition))
            in
            if interval_contradiction || hash_exclusion then []
            else
              [
                fail
                  "partition %d of %s: constraint does not contradict the \
                   query predicates"
                  partition table;
              ])
  in
  List.concat_map
    (fun (c : Opt.Explain.certificate) ->
      match c.Opt.Explain.cert_delta with
      | Opt.Rewrite.Partition_pruned { table; alias; partition } ->
          check_prune c ~table ~alias ~partition
      | _ -> [])
    (Opt.Explain.certificates report)

let check_report sdb (report : Opt.Explain.report) =
  let certs = Opt.Explain.certificates report in
  let guards = report.Opt.Explain.guards in
  let has_backup = report.Opt.Explain.backup_plan <> None in
  let backup_diag =
    (* §4.1: any plan that rests on overturnable SCs (guards <> []) must
       carry the conservative backup the executor reverts to.  A plan
       rewritten purely from hard ICs legitimately has neither. *)
    if guards <> [] && not has_backup then
      [
        Diag.error ~pass ~subject:"plan"
          "plan is guarded by %s but no backup plan was compiled"
          (String.concat ", " guards);
      ]
    else []
  in
  backup_diag
  @ List.concat_map (check_certificate sdb ~guards ~has_backup) certs
  @ partition_diags sdb report
  @ twin_diags report

let check_query ?flags sdb sql =
  let q = Sqlfe.Parser.parse_query_string sql in
  let report = Core.Softdb.optimize ?flags sdb q in
  (report, check_report sdb report)
