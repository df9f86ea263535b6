(* The discovery stage of the SC process (paper §3.2), workload-directed:
   "input from the optimizer, the database's statistics, and the workload
   can likely be used to direct the search towards those characterizations
   that would be most beneficial."

   The advisor parses the workload, extracts
   - column pairs of one table that co-occur in predicates (targets for
     linear-correlation and difference-band mining, per [10]),
   - join paths with range-constrained columns on both sides (targets
     for join-hole mining, per [8]),
   - tables with GROUP BY / ORDER BY usage (targets for FD mining),
   mines each family, wraps the results as candidate ASCs/SSCs, and hands
   them to {!Selection}. *)

open Rel
open Opt

type targets = {
  pair_targets : (string * (string * string)) list; (* table, (colA, colB) *)
  hole_targets :
    (string * string * string * string * string * string) list;
      (* left table, right table, join_left, join_right, A col, B col *)
  fd_targets : (string * string list) list; (* table, key columns to skip *)
}

let norm = String.lowercase_ascii

let blocks_of_query q =
  let rec go acc = function
    | Logical.Block b -> b :: acc
    | Logical.Union ts -> List.fold_left go acc ts
  in
  go [] (Logical.of_query q)

(* columns of [alias] referenced in single-table predicates *)
let pred_cols db (block : Logical.block) =
  let tbl_cols : (string, string list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (p : Logical.pred_item) ->
      List.iter
        (fun r ->
          match Logical.sources_of_col db block r with
          | [ s ] ->
              let key = norm s.Logical.table in
              let cur = Option.value (Hashtbl.find_opt tbl_cols key) ~default:[] in
              if not (List.mem (norm r.Expr.col) cur) then
                Hashtbl.replace tbl_cols key (norm r.Expr.col :: cur)
          | _ -> ())
        (Expr.cols_of_pred p.Logical.pred))
    block.Logical.preds;
  tbl_cols

let extract_targets db (workload : Sqlfe.Ast.query list) : targets =
  let pairs = ref [] and holes = ref [] and fds = ref [] in
  let add_pair table a b =
    let key = (norm table, if a < b then (a, b) else (b, a)) in
    if not (List.mem key !pairs) then pairs := key :: !pairs
  in
  List.iter
    (fun q ->
      List.iter
        (fun (block : Logical.block) ->
          let tbl_cols = pred_cols db block in
          (* per-table co-occurring predicate columns, plus each predicate
             column paired with the table's indexed columns — the paper's
             [10] payoff case is exactly "predicate on B, index on A" *)
          Hashtbl.iter
            (fun table cols ->
              List.iter
                (fun a ->
                  List.iter (fun b -> if a < b then add_pair table a b) cols)
                cols;
              let indexed =
                List.filter_map
                  (fun idx ->
                    match Rel.Index.columns idx with
                    | [ c ] -> Some (norm c)
                    | _ -> None)
                  (Database.indexes_on db table)
              in
              List.iter
                (fun a ->
                  List.iter
                    (fun b -> if a <> b then add_pair table a b)
                    indexed)
                cols)
            tbl_cols;
          (* join paths with single-table range columns on both sides *)
          List.iter
            (fun (p : Logical.pred_item) ->
              match p.Logical.pred with
              | Expr.Cmp (Expr.Eq, Expr.Col ra, Expr.Col rb) -> (
                  match
                    ( Logical.sources_of_col db block ra,
                      Logical.sources_of_col db block rb )
                  with
                  | [ sa ], [ sb ]
                    when norm sa.Logical.alias <> norm sb.Logical.alias ->
                      let cols_of s =
                        Option.value
                          (Hashtbl.find_opt (pred_cols db block)
                             (norm s.Logical.table))
                          ~default:[]
                      in
                      List.iter
                        (fun ca ->
                          List.iter
                            (fun cb ->
                              if
                                ca <> norm ra.Expr.col
                                && cb <> norm rb.Expr.col
                              then
                                let entry =
                                  ( norm sa.Logical.table,
                                    norm sb.Logical.table,
                                    norm ra.Expr.col,
                                    norm rb.Expr.col,
                                    ca,
                                    cb )
                                in
                                if not (List.mem entry !holes) then
                                  holes := entry :: !holes)
                            (cols_of sb))
                        (cols_of sa)
                  | _ -> ())
              | _ -> ())
            block.Logical.preds;
          (* group/order usage *)
          if block.Logical.group_by <> [] || block.Logical.order_by <> [] then
            List.iter
              (fun (s : Logical.source) ->
                let key = norm s.Logical.table in
                if not (List.mem_assoc key !fds) then begin
                  let keys =
                    List.concat_map
                      (fun ic ->
                        match ic.Icdef.body with
                        | Icdef.Primary_key ks | Icdef.Unique ks -> ks
                        | _ -> [])
                      (Database.constraints_on db s.Logical.table)
                  in
                  fds := (key, keys) :: !fds
                end)
              block.Logical.from)
        (blocks_of_query q))
    workload;
  { pair_targets = !pairs; hole_targets = !holes; fd_targets = !fds }

(* ---- candidate generation -------------------------------------------------- *)

(* The selectivity test of discovery: a band whose 100% width exceeds
   this share of its banded column's range filters too little to pay for
   its upkeep (the paper's "threshold used as a bound for acceptable
   values for ε"). *)
let max_selectivity = 0.25

let mine_candidates ?(confidences = [ 1.0; 0.99; 0.9 ]) ~catalog db targets =
  let fresh_name = Sc_catalog.fresh_name catalog in
  let candidates = ref [] in
  let add sc = candidates := sc :: !candidates in
  let anchored table =
    match Database.find_table db table with
    | Some tbl -> Some (tbl, Table.mutations tbl)
    | None -> None
  in
  (* bands over predicate pairs, a line and a difference each; a band
     passes only when its 100% width is a small share of the banded
     column's range *)
  List.iter
    (fun (table, (a, b)) ->
      match anchored table with
      | None -> ()
      | Some (tbl, muts) ->
          List.iter
            (fun (shape, prefix) ->
              match Mining.Band.mine ~confidences tbl shape ~a ~b with
              | Some m when m.Mining.Band.selectivity <= max_selectivity ->
                  List.iter
                    (fun (confidence, band) ->
                      let kind =
                        if confidence >= 1.0 then Soft_constraint.Absolute
                        else Soft_constraint.Statistical confidence
                      in
                      add
                        (Soft_constraint.make
                           ~name:
                             (fresh_name
                                (Printf.sprintf "%s_%s_%s_%s" prefix table a b))
                           ~table ~kind ~installed_at_mutations:muts
                           (Soft_constraint.Ic_stmt
                              (Icdef.Check (Mining.Band.to_pred band)))))
                    m.Mining.Band.bands
              | _ -> ())
            [ (Mining.Band.Line, "corr"); (Mining.Band.Diff, "diff") ])
    targets.pair_targets;
  (* join holes *)
  List.iter
    (fun (lt, rt, jl, jr, ca, cb) ->
      match (Database.find_table db lt, Database.find_table db rt) with
      | Some left, Some right -> (
          match
            Mining.Join_holes.mine ~left ~right ~join_left:jl ~join_right:jr
              ~left_col:ca ~right_col:cb ()
          with
          | Some h when h.Mining.Join_holes.rects <> [] ->
              add
                (Soft_constraint.make
                   ~name:(fresh_name (Printf.sprintf "holes_%s_%s" lt rt))
                   ~table:lt ~kind:Soft_constraint.Absolute
                   ~installed_at_mutations:(Table.mutations left)
                   (Soft_constraint.Holes_stmt h))
          | _ -> ())
      | _ -> ())
    targets.hole_targets;
  (* functional dependencies *)
  List.iter
    (fun (table, keys) ->
      match anchored table with
      | None -> ()
      | Some (tbl, muts) ->
          List.iter
            (fun fd ->
              add
                (Soft_constraint.make
                   ~name:
                     (fresh_name
                        (Printf.sprintf "fd_%s_%s" table fd.Mining.Fd_mine.rhs))
                   ~table ~kind:Soft_constraint.Absolute
                   ~installed_at_mutations:muts (Soft_constraint.Fd_stmt fd)))
            (Mining.Fd_mine.mine ~max_lhs:2 ~exclude_keys:keys tbl))
    targets.fd_targets;
  List.rev !candidates

(* ---- end-to-end: discover → select → install -------------------------------- *)

type outcome = {
  candidates : int;
  assessed : Selection.assessment list;
  installed : Soft_constraint.t list;
}

let advise ?flags ?mutations_per_workload ?k ?confidences
    ?(probation = false) ~db ~stats ~catalog ~workload () =
  let targets = extract_targets db workload in
  let candidates = mine_candidates ?confidences ~catalog db targets in
  let selected =
    Selection.select ?flags ?mutations_per_workload ?k ~db ~stats ~catalog
      ~workload candidates
  in
  let installed =
    List.map (fun (a : Selection.assessment) -> a.Selection.sc) selected
  in
  List.iter
    (fun (sc : Soft_constraint.t) ->
      (* §3.2: optionally hold the winners back for a probationary period
         before the optimizer may rely on them *)
      if probation then sc.Soft_constraint.state <- Soft_constraint.Probation;
      Sc_catalog.add catalog sc)
    installed;
  { candidates = List.length candidates; assessed = selected; installed }
