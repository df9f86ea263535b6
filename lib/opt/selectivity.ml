(* Cardinality estimation.

   Single-table estimation first *summarizes* the conjuncts into
   per-column intervals (so several range predicates on one column are
   estimated once from the histogram, not multiplied), then applies
   independence across columns and default filter factors for residual
   shapes — the same structure DB2's filter-factor model has (paper §5).

   Twinned predicates (paper §5.1) are folded in by blending: for a twin
   t with confidence c that replaces original predicate p, the twinned
   estimate E1 drops p and adds t, and the final estimate is
   c·E1 + (1−c)·E0 where E0 is the plain independence estimate — the
   "statistical adjustment based on this confidence factor" the paper
   calls for. *)

open Rel
open Stats

type env = { db : Database.t; stats : Runstats.t }

(* default filter factors, in the System-R tradition *)
let default_eq = 0.04
let default_range = 1.0 /. 3.0
let default_other = 1.0 /. 3.0

let col_stats env ~table ~column =
  Runstats.column_stats env.stats ~table ~column

let ndv env ~table ~column =
  match col_stats env ~table ~column with
  | Some cs -> max 1 cs.Col_stats.distinct
  | None -> 25 (* 1/default_eq *)

(* selectivity of an interval on a column, via histogram when available *)
let interval_selectivity env ~table ~column (iv : Interval.t) =
  if Interval.is_empty iv then 0.0
  else if Interval.is_full iv then 1.0
  else
    match col_stats env ~table ~column with
    | None -> (
        match (iv.Interval.lo, iv.Interval.hi) with
        | Some l, Some h when Value.equal_total l.Interval.v h.Interval.v ->
            default_eq
        | Some _, Some _ -> default_range /. 2.0
        | _ -> default_range)
    | Some cs -> (
        match (iv.Interval.lo, iv.Interval.hi) with
        | Some l, Some h
          when l.Interval.incl && h.Interval.incl
               && Value.equal_total l.Interval.v h.Interval.v ->
            Col_stats.sel_eq cs l.Interval.v
        | lo, hi ->
            let conv side (e : Interval.endpoint option) =
              match e with
              | None -> None
              | Some { Interval.v; incl } ->
                  let mode =
                    match (side, incl) with
                    | `Lo, true -> `Incl
                    | `Lo, false -> `Excl
                    | `Hi, true -> `Incl
                    | `Hi, false -> `Excl
                  in
                  Some (v, mode)
            in
            Col_stats.sel_range cs ?lo:(conv `Lo lo) ?hi:(conv `Hi hi) ())

(* selectivity of one residual (non-interval) conjunct over one table *)
let rec residual_selectivity env ~table (p : Expr.pred) =
  match p with
  | Expr.Ptrue -> 1.0
  | Expr.Pfalse -> 0.0
  | Expr.Cmp (Expr.Eq, Expr.Col a, Expr.Col b) ->
      (* column = column within one table *)
      let d =
        max (ndv env ~table ~column:a.Expr.col)
          (ndv env ~table ~column:b.Expr.col)
      in
      1.0 /. float_of_int d
  | Expr.Cmp (Expr.Ne, _, _) -> 1.0 -. default_eq
  | Expr.Cmp ((Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge), _, _) -> default_range
  | Expr.Cmp (Expr.Eq, _, _) -> default_eq
  | Expr.Between (_, _, _) -> default_range /. 2.0
  | Expr.In_list (Expr.Col r, vs) -> (
      match col_stats env ~table ~column:r.Expr.col with
      | Some cs ->
          min 1.0
            (List.fold_left
               (fun acc v -> acc +. Col_stats.sel_eq cs v)
               0.0 vs)
      | None -> min 1.0 (default_eq *. float_of_int (List.length vs)))
  | Expr.In_list (_, vs) ->
      min 1.0 (default_eq *. float_of_int (List.length vs))
  | Expr.Is_null (Expr.Col r) -> (
      match col_stats env ~table ~column:r.Expr.col with
      | Some cs -> Col_stats.sel_is_null cs
      | None -> default_eq)
  | Expr.Is_null _ -> default_eq
  | Expr.Is_not_null (Expr.Col r) -> (
      match col_stats env ~table ~column:r.Expr.col with
      | Some cs -> 1.0 -. Col_stats.sel_is_null cs
      | None -> 1.0 -. default_eq)
  | Expr.Is_not_null _ -> 1.0 -. default_eq
  | Expr.And (a, b) ->
      residual_selectivity env ~table a *. residual_selectivity env ~table b
  | Expr.Or (a, b) ->
      let sa = residual_selectivity env ~table a
      and sb = residual_selectivity env ~table b in
      min 1.0 (sa +. sb -. (sa *. sb))
  | Expr.Not a -> max 0.0 (1.0 -. residual_selectivity env ~table a)

(* Plain independence estimate of a conjunct list against [table].
   Column references are assumed local to the table (callers strip
   qualifiers or pass table-local predicates). *)
let conjunct_selectivity env ~table (preds : Expr.pred list) =
  let key_of (r : Expr.col_ref) = Some (String.lowercase_ascii r.Expr.col) in
  let entries, residual = Interval.summarize ~key_of preds in
  let from_intervals =
    List.fold_left
      (fun acc (_, (r, iv)) ->
        acc *. interval_selectivity env ~table ~column:r.Expr.col iv)
      1.0 entries
  in
  let from_residual =
    List.fold_left
      (fun acc p -> acc *. residual_selectivity env ~table p)
      1.0 residual
  in
  max 0.0 (min 1.0 (from_intervals *. from_residual))

(* --- twin blending ------------------------------------------------------- *)

type twin = { t_pred : Expr.pred; t_confidence : float;
              t_replaces : string option (* column name superseded *) }

(* Selectivity of [regular] conjuncts refined by [twins]:
   E0 = sel(regular);
   E1 = sel(regular − range predicates on superseded columns + twins);
   E  = c·E1 + (1−c)·E0   with c the product of twin confidences. *)
let blended_selectivity env ~table ~regular ~twins =
  let e0 = conjunct_selectivity env ~table regular in
  match twins with
  | [] -> e0
  | _ ->
      let dropped_cols =
        List.filter_map
          (fun t -> Option.map String.lowercase_ascii t.t_replaces)
          twins
      in
      let superseded p =
        match Interval.of_pred p with
        | Some (r, _) ->
            List.mem (String.lowercase_ascii r.Expr.col) dropped_cols
        | None -> false
      in
      let kept = List.filter (fun p -> not (superseded p)) regular in
      let twinned = kept @ List.map (fun t -> t.t_pred) twins in
      let e1 = conjunct_selectivity env ~table twinned in
      let c =
        List.fold_left (fun acc t -> acc *. t.t_confidence) 1.0 twins
      in
      (c *. e1) +. ((1.0 -. c) *. e0)

(* --- per-block estimation ------------------------------------------------ *)

(* Classify a predicate w.r.t. block sources: which aliases does it touch? *)
let aliases_of_pred db (block : Logical.block) (p : Expr.pred) =
  Expr.cols_of_pred p
  |> List.concat_map (fun r -> Logical.sources_of_col db block r)
  |> List.map (fun s -> String.lowercase_ascii s.Logical.alias)
  |> List.sort_uniq String.compare

(* Strip qualifiers so table-local estimation sees bare column names. *)
let localize p =
  Expr.map_cols_pred (fun r -> { r with Expr.rel = None }) p

(* The one selectivity rule for conjuncts the planner applies across
   sources — equi-join keys, a join residual, a leftover filter: column =
   column takes 1/max(ndv), FALSE 0, other shapes a default factor, and
   the conjuncts multiply. *)
let cross_selectivity env (block : Logical.block) (preds : Expr.pred list) =
  let sel (p : Expr.pred) =
    match p with
    | Expr.Ptrue -> 1.0
    | Expr.Pfalse -> 0.0
    | Expr.Cmp (Expr.Eq, Expr.Col a, Expr.Col b) -> (
        let src r = Logical.sources_of_col env.db block r in
        match (src a, src b) with
        | [ sa ], [ sb ] ->
            let da = ndv env ~table:sa.Logical.table ~column:a.Expr.col
            and db_ = ndv env ~table:sb.Logical.table ~column:b.Expr.col in
            1.0 /. float_of_int (max da db_)
        | _ -> default_eq)
    | Expr.Cmp ((Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge), _, _) -> default_range
    | _ -> default_other
  in
  List.fold_left (fun acc p -> acc *. sel p) 1.0 preds

(* Twin-blended selectivity of each source's own conjuncts, by normalized
   alias.  Conjuncts over several sources (or none) are the planner's to
   place and estimate ({!cross_selectivity}). *)
let source_selectivities env (block : Logical.block) =
  let db = env.db in
  (* an exception-union fold is implied by the block under the check it
     folds: multiplying it in would count the block's selectivity twice *)
  let exec_preds =
    List.filter
      (fun p -> not (Logical.is_folded p))
      (Logical.executable_preds block)
  in
  let est_preds = Logical.estimation_preds block in
  let local : (string, Expr.pred list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (p : Logical.pred_item) ->
      match aliases_of_pred db block p.Logical.pred with
      | [ a ] ->
          Hashtbl.replace local a
            (localize p.Logical.pred
            :: Option.value (Hashtbl.find_opt local a) ~default:[])
      | _ -> ())
    exec_preds;
  let twins_for alias =
    List.filter_map
      (fun (p : Logical.pred_item) ->
        match aliases_of_pred db block p.Logical.pred with
        | [ a ] when a = alias ->
            Some
              {
                t_pred = localize p.Logical.pred;
                t_confidence = p.Logical.confidence;
                t_replaces =
                  Option.map (fun r -> r.Expr.col) p.Logical.replaces;
              }
        | _ -> None)
      est_preds
  in
  List.map
    (fun (s : Logical.source) ->
      let alias = String.lowercase_ascii s.Logical.alias in
      let regular = Option.value (Hashtbl.find_opt local alias) ~default:[] in
      ( alias,
        blended_selectivity env ~table:s.Logical.table ~regular
          ~twins:(twins_for alias) ))
    block.Logical.from
