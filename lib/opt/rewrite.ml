(* The semantic rewrite engine: every constraint-exploiting transformation
   the paper describes, each gated by a flag so experiments can ablate.

   Semantics-preserving rules (require enforced / informational ICs or
   *valid absolute* soft constraints):
   - join elimination over referential integrity        (paper §2, [6])
   - predicate introduction from check-shaped statements (paper §2, [10])
   - join-hole range trimming                            (paper §2, [8])
   - union-all branch pruning by branch constraints      (paper §5)
   - group-by / order-by simplification via FDs          (paper §2, [29])
   - exception-table union plans (ASC-as-AST)            (paper §4.4)

   Estimation-only rule (statistical soft constraints):
   - predicate twinning with confidence                  (paper §5.1) *)

open Rel

type flags = {
  join_elimination : bool;
  predicate_introduction : bool;
  hole_trimming : bool;
  unionall_pruning : bool;
  fd_simplification : bool;
  exception_union : bool;
  twinning : bool;
  partition_pruning : bool;
}

let all_on =
  {
    join_elimination = true;
    predicate_introduction = true;
    hole_trimming = true;
    unionall_pruning = true;
    fd_simplification = true;
    exception_union = true;
    twinning = true;
    partition_pruning = true;
  }

let all_off =
  {
    join_elimination = false;
    predicate_introduction = false;
    hole_trimming = false;
    unionall_pruning = false;
    fd_simplification = false;
    exception_union = false;
    twinning = false;
    partition_pruning = false;
  }

(* A statistical soft constraint usable for twinning: a check that holds
   on about [confidence] of [table]'s rows. *)
type ssc = {
  name : string;
  table : string;
  check : Expr.pred;
  confidence : float;
}

(* An ASC maintained as an exception table (AST): [exc_check] holds for
   every base-table row that is NOT recorded in [exc_table]. *)
type exception_info = {
  exc_constraint : string;
  exc_base_table : string;
  exc_table : string;
  exc_check : Expr.pred;
}

(* Mined artifacts keep the name of the catalog constraint they came from
   (None for artifacts fed in directly, e.g. by unit tests), so the
   certificates emitted below can name their premises precisely. *)
type named_fd = { fd_sc : string option; fd : Mining.Fd_mine.fd }
type named_holes = { holes_sc : string option; holes : Mining.Join_holes.t }

(* A valid absolute partition-domain SC: every row of [part_table] that
   routes to segment [part_index] satisfies [part_pred] — usually tighter
   than the routing bounds, which is what makes it worth guarding. *)
type part_sc = {
  part_sc_name : string option;
  part_table : string;
  part_index : int;
  part_pred : Expr.pred;
}

type ctx = {
  db : Database.t;
  flags : flags;
  ascs : Icdef.t list; (* valid absolute soft constraints *)
  sscs : ssc list;
  fds : named_fd list; (* valid (ASC-class) FDs *)
  holes : named_holes list; (* valid hole sets *)
  exceptions : exception_info list;
  parts : part_sc list; (* valid partition-domain SCs *)
}

let make_ctx ?(flags = all_on) ?(ascs = []) ?(sscs = []) ?(fds = [])
    ?(holes = []) ?(exceptions = []) ?(parts = []) db =
  { db; flags; ascs; sscs; fds; holes; exceptions; parts }

(* The structural change a rewrite made to the plan — one constructor per
   way a transformation can alter semantics (or, for twins, estimation).
   Together with [premises] this is the machine-checkable certificate
   that {!Check.Cert} re-derives soundness from, independent of the code
   that fired the rule. *)
type delta =
  | Source_removed of { alias : string; table : string }
  | Pred_added of Expr.pred (* executable conjunct appended to WHERE *)
  | Pred_twinned of { pred : Expr.pred; confidence : float }
      (* estimation-only: must never reach the physical plan *)
  | Order_key_dropped of { alias : string; col : string }
  | Group_key_dropped of string
  | Union_split of { fast_pred : Expr.pred; exc_table : string }
  | Branch_pruned
  | Block_falsified
  | Partition_pruned of { table : string; alias : string; partition : int }
  | Index_access of { index : string; table : string; alias : string }
      (* the planner answered the alias from the index alone (index-only
         scan): sound while the index is readable and its key covers
         every column the block needs — guarded at execution by
         "idx:<name>" *)

(* Twins are the one delta that cannot change results; everything else
   alters the executable plan and therefore needs an absolute basis. *)
let delta_changes_results = function Pred_twinned _ -> false | _ -> true

type applied = {
  rule : string;
  detail : string;
  sc : string option;
      (* the soft constraint (or IC) this rewrite relied on, for
         plan-cache dependency tracking (paper §4.1) *)
  premises : string list;
      (* every constraint name the soundness argument rests on: [sc]
         plus secondary witnesses (the key behind a join elimination,
         the checks behind an unsatisfiability proof, ...) *)
  delta : delta;
}

let log ?sc ?(premises = []) ~delta applied rule fmt =
  let premises =
    List.sort_uniq String.compare (Option.to_list sc @ premises)
  in
  Printf.ksprintf
    (fun detail -> applied := { rule; detail; sc; premises; delta } :: !applied)
    fmt

(* ---- constraint lookup helpers ----------------------------------------- *)

let norm = String.lowercase_ascii

(* ICs the optimizer may rely on: enforced and informational alike, plus
   the valid ASCs (the paper's point: a valid ASC is as good as an IC). *)
let usable_constraints ctx table =
  Database.constraints_on ctx.db table
  @ List.filter (fun ic -> norm ic.Icdef.table = norm table) ctx.ascs

let usable_checks ctx table =
  List.filter_map
    (fun ic ->
      match ic.Icdef.body with
      | Icdef.Check p -> Some (ic.Icdef.name, p)
      | _ -> None)
    (usable_constraints ctx table)

let usable_fks ctx =
  List.filter_map
    (fun ic ->
      match ic.Icdef.body with
      | Icdef.Foreign_key { columns; ref_table; ref_columns } ->
          Some (ic, columns, ref_table, ref_columns)
      | _ -> None)
    (Database.constraints ctx.db @ ctx.ascs)

(* The key (or unique) constraint making [cols] a key of [table], if any —
   returned whole so certificates can name it as a premise. *)
let key_witness ctx table cols =
  let want = List.sort String.compare (List.map norm cols) in
  List.find_opt
    (fun ic ->
      match ic.Icdef.body with
      | Icdef.Primary_key ks | Icdef.Unique ks ->
          List.sort String.compare (List.map norm ks) = want
      | _ -> false)
    (usable_constraints ctx table)

let column_not_nullable ctx table col =
  (match Database.find_table ctx.db table with
  | Some tbl -> (
      match Schema.find_index (Table.schema tbl) col with
      | Some i ->
          not (Schema.column_at (Table.schema tbl) i).Schema.nullable
      | None -> false)
  | None -> false)
  || List.exists
       (fun ic ->
         match ic.Icdef.body with
         | Icdef.Not_null c -> norm c = norm col
         | _ -> false)
       (usable_constraints ctx table)

(* Requalify an unqualified table-local predicate onto a block alias. *)
let requalify alias p =
  Expr.map_cols_pred
    (fun r ->
      match r.Expr.rel with
      | None -> { r with Expr.rel = Some alias }
      | Some _ -> r)
    p

(* Canonical key for a column reference within a block: "alias.col", or
   None when the reference is ambiguous/unresolvable. *)
let key_of ctx block (r : Expr.col_ref) =
  match Logical.sources_of_col ctx.db block r with
  | [ s ] -> Some (norm s.Logical.alias ^ "." ^ norm r.Expr.col)
  | _ -> None

let resolve_source ctx block r =
  match Logical.sources_of_col ctx.db block r with
  | [ s ] -> Some s
  | _ -> None

let exec_pred_list block =
  List.map (fun (p : Logical.pred_item) -> p.Logical.pred)
    (Logical.executable_preds block)

(* interval currently imposed on alias.col by the executable conjuncts *)
let interval_on ctx block ~alias ~col =
  let key = norm alias ^ "." ^ norm col in
  let entries, _ =
    Interval.summarize ~key_of:(key_of ctx block) (exec_pred_list block)
  in
  match List.assoc_opt key entries with
  | Some (_, iv) -> iv
  | None -> Interval.full

(* equality bindings alias.col = const among executable conjuncts *)
let bindings_of ctx block =
  Interval.const_bindings (exec_pred_list block)
  |> List.filter_map (fun (r, v) ->
         match key_of ctx block r with
         | Some key -> Some (key, v)
         | None -> None)

let subst_with_bindings ctx block bindings p =
  Interval.subst_pred
    (fun r ->
      match key_of ctx block r with
      | Some key -> (
          match List.assoc_opt key bindings with
          | Some v -> Some (Expr.Const v)
          | None -> None)
      | None -> None)
    p

(* Every column a predicate references must be declared NOT NULL for the
   predicate to be safely *introduced* into WHERE: a CHECK constraint is
   satisfied when it evaluates to UNKNOWN on a row, but a WHERE conjunct
   would filter that row out. *)
let cols_all_not_nullable ctx block p =
  List.for_all
    (fun (r : Expr.col_ref) ->
      match resolve_source ctx block r with
      | Some s -> column_not_nullable ctx s.Logical.table r.Expr.col
      | None -> false)
    (Expr.cols_of_pred p)

(* ---- rule: unsatisfiability / union-all branch pruning ------------------ *)

(* All check statements that hold for a block's sources, requalified. *)
let implied_checks ctx (block : Logical.block) =
  List.concat_map
    (fun (s : Logical.source) ->
      List.map
        (fun (_, p) -> requalify s.Logical.alias p)
        (usable_checks ctx s.Logical.table))
    block.Logical.from

(* Prune only on contradictions anchored by a *query* predicate: a row can
   satisfy two contradictory CHECKs when their columns are NULL, but it
   cannot satisfy a query range predicate with a NULL column — so a
   query-bounded column whose combined interval is empty proves the block
   returns nothing. *)
let block_unsatisfiable ctx block =
  let kf = key_of ctx block in
  let query_preds = exec_pred_list block in
  if List.exists (fun p -> Interval.simplify_pred p = Expr.Pfalse) query_preds
  then true
  else begin
    let checks = implied_checks ctx block in
    let interval_contradiction =
      Interval.contradicts ~key_of:kf query_preds checks
    in
    (* value-set contradiction: a query equality on a column whose implied
       IN-list check excludes the constant (query equality ⇒ the column is
       non-null on qualifying rows, so the check cannot be UNKNOWN) *)
    let bindings = Interval.const_bindings query_preds in
    let value_set_contradiction =
      List.exists
        (fun check ->
          match check with
          | Expr.In_list (Expr.Col r, vs) -> (
              match kf r with
              | Some key ->
                  List.exists
                    (fun (rb, v) ->
                      kf rb = Some key
                      && not
                           (List.exists (fun v' -> Value.equal_total v v') vs))
                    bindings
              | None -> false)
          | _ -> false)
        checks
    in
    interval_contradiction || value_set_contradiction
  end

(* ---- rule: join elimination --------------------------------------------- *)

(* one pass; caller iterates to fixpoint *)
let join_elimination_step ctx applied (block : Logical.block) :
    Logical.block option =
  let exec = Logical.executable_preds block in
  (* equality predicates between two distinct aliases *)
  let eq_items =
    List.filter_map
      (fun (p : Logical.pred_item) ->
        if p.Logical.estimation_only then None
        else
          match p.Logical.pred with
          | Expr.Cmp (Expr.Eq, Expr.Col a, Expr.Col b) -> (
              match (resolve_source ctx block a, resolve_source ctx block b)
              with
              | Some sa, Some sb when sa.Logical.alias <> sb.Logical.alias ->
                  Some (p, (sa, a.Expr.col), (sb, b.Expr.col))
              | _ -> None)
          | _ -> None)
      exec
  in
  let try_fk (fk_ic, fk_cols, ref_table, ref_cols) =
    (* all (child alias, parent alias) pairs instantiating this FK *)
    let candidates =
      List.filter
        (fun (s : Logical.source) -> norm s.Logical.table = norm fk_ic.Icdef.table)
        block.Logical.from
      |> List.concat_map (fun child ->
             List.filter_map
               (fun (s : Logical.source) ->
                 if
                   norm s.Logical.table = norm ref_table
                   && s.Logical.alias <> child.Logical.alias
                 then Some (child, s)
                 else None)
               block.Logical.from)
    in
    let try_pair (child, parent) =
      (* join predicates between exactly this pair *)
      let pair_items =
        List.filter
          (fun (_, (sa, _), (sb, _)) ->
            (sa.Logical.alias = child.Logical.alias
            && sb.Logical.alias = parent.Logical.alias)
            || (sa.Logical.alias = parent.Logical.alias
               && sb.Logical.alias = child.Logical.alias))
          eq_items
      in
      let col_pairs =
        List.map
          (fun (_, (sa, ca), (_, cb)) ->
            if sa.Logical.alias = child.Logical.alias then (norm ca, norm cb)
            else (norm cb, norm ca))
          pair_items
      in
      let fk_pairs = List.combine (List.map norm fk_cols) (List.map norm ref_cols) in
      let same_pairs =
        List.sort compare col_pairs = List.sort compare fk_pairs
      in
      let witness =
        if
          same_pairs
          && not
               (Logical.alias_used_outside ctx.db block parent.Logical.alias
                  ~except:(List.map (fun (p, _, _) -> p) pair_items))
        then key_witness ctx ref_table ref_cols
        else None
      in
      match witness with
      | Some key_ic ->
        let keep =
          List.filter
            (fun (p : Logical.pred_item) ->
              not (List.exists (fun (q, _, _) -> q == p) pair_items))
            block.Logical.preds
        in
        let not_nulls =
          List.filter_map
            (fun c ->
              if column_not_nullable ctx child.Logical.table c then None
              else
                Some
                  (Logical.introduced_pred ~rule:"join_elimination"
                     (Expr.Is_not_null
                        (Expr.Col
                           { Expr.rel = Some child.Logical.alias; col = c }))))
            fk_cols
        in
        log ~sc:fk_ic.Icdef.name ~premises:[ key_ic.Icdef.name ]
          ~delta:
            (Source_removed
               { alias = parent.Logical.alias; table = parent.Logical.table })
          applied "join_elimination" "eliminated %s (%s) via FK %s"
          parent.Logical.alias parent.Logical.table fk_ic.Icdef.name;
        Some
          {
            block with
            Logical.from =
              List.filter
                (fun (s : Logical.source) ->
                  s.Logical.alias <> parent.Logical.alias)
                block.Logical.from;
            preds = keep @ not_nulls;
          }
      | None -> None
    in
    List.find_map try_pair candidates
  in
  List.find_map try_fk (usable_fks ctx)

let join_elimination ctx applied block =
  let rec fixpoint block =
    match join_elimination_step ctx applied block with
    | Some block' -> fixpoint block'
    | None -> block
  in
  fixpoint block

(* ---- rule: equality transitivity ------------------------------------------ *)

(* Pure-logic constant propagation: [a.x = b.y ∧ b.y = v ⊢ a.x = v].
   Rows surviving the conjunction have both predicates TRUE (so both
   columns non-null), making the derived equality sound unconditionally.
   This feeds the constraint-folding rules across joins — a binding on one
   side of an equi-join becomes visible to the other side's check
   statements. *)
let equality_transitivity ctx applied (block : Logical.block) =
  let result = ref block in
  let changed = ref true in
  while !changed do
    changed := false;
    let block = !result in
    let exec = exec_pred_list block in
    let bindings = bindings_of ctx block in
    let additions = ref [] in
    List.iter
      (fun p ->
        match p with
        | Expr.Cmp (Expr.Eq, Expr.Col a, Expr.Col b) ->
            let try_prop src dst dst_ref =
              match (src, dst) with
              | Some ks, Some kd when not (List.mem_assoc kd bindings) -> (
                  match List.assoc_opt ks bindings with
                  | Some v ->
                      let pred =
                        Expr.Cmp (Expr.Eq, Expr.Col dst_ref, Expr.Const v)
                      in
                      if
                        (not (List.mem pred exec))
                        && not
                             (List.exists
                                (fun (it : Logical.pred_item) ->
                                  it.Logical.pred = pred)
                                !additions)
                      then begin
                        log ~delta:(Pred_added pred) applied
                          "equality_transitivity" "derived %s"
                          (Expr.to_string_pred pred);
                        additions :=
                          Logical.introduced_pred
                            ~rule:"equality_transitivity" pred
                          :: !additions
                      end
                  | None -> ())
              | _ -> ()
            in
            try_prop (key_of ctx block a) (key_of ctx block b) b;
            try_prop (key_of ctx block b) (key_of ctx block a) a
        | _ -> ())
      exec;
    if !additions <> [] then begin
      changed := true;
      result :=
        { block with Logical.preds = block.Logical.preds @ List.rev !additions }
    end
  done;
  !result

(* ---- bands: the range images a check states ---------------------------- *)

let float_of_value = Mining.Band.numeric

let value_of_float ~like x =
  match like with
  | Value.TInt -> Value.Int (int_of_float (Float.round x))
  | Value.TDate -> Value.Date (int_of_float (Float.round x))
  | _ -> Value.Float x

(* position of interval endpoints in float space; None when unbounded or
   non-numeric *)
let endpoint_pos (e : Interval.endpoint option) =
  match e with
  | None -> None
  | Some { Interval.v; _ } -> float_of_value v

let column_dtype ctx table col =
  match Database.find_table ctx.db table with
  | None -> Value.TFloat
  | Some tbl -> (
      let schema = Table.schema tbl in
      match Schema.find_index schema col with
      | Some i -> (Schema.column_at schema i).Schema.dtype
      | None -> Value.TFloat)

(* With [outward] the endpoints round away from the interval (floor the
   lower, ceil the upper) so the image is a superset — mandatory when the
   derived predicate will actually execute; estimation-only twins round to
   nearest. *)
let typed_endpoint ~dtype ~outward side x =
  let x =
    if not outward then x
    else
      match dtype with
      | Value.TInt | Value.TDate -> (
          match side with `Lo -> Float.floor x | `Hi -> Float.ceil x)
      | _ -> x
  in
  Some { Interval.v = value_of_float ~like:dtype x; incl = true }

(* The image of [iv] through the band direction [m]
   ({!Mining.Band.image}), typed as [m.dst]; an endpoint that is
   unbounded or not numeric stays unbounded. *)
let band_image ?(outward = false) (m : Mining.Band.map) iv ~dtype =
  let lo, hi =
    Mining.Band.image m
      (endpoint_pos iv.Interval.lo, endpoint_pos iv.Interval.hi)
  in
  let ep side x = Option.bind x (typed_endpoint ~dtype ~outward side) in
  { Interval.lo = ep `Lo lo; hi = ep `Hi hi }

(* Each range the block's conjuncts imply for source [s] through the bands
   of [check], rounded outward so that it holds on every row satisfying
   the check: for each band direction whose source column the block
   bounds, the band, the target column and its image. *)
let band_images ctx block (s : Logical.source) check =
  let alias = s.Logical.alias in
  List.concat_map
    (fun band ->
      List.filter_map
        (fun (m : Mining.Band.map) ->
          let iv = interval_on ctx block ~alias ~col:m.src.Expr.col in
          if Interval.is_full iv then None
          else
            let img =
              band_image ~outward:true m iv
                ~dtype:(column_dtype ctx s.Logical.table m.dst.Expr.col)
            in
            if Interval.is_full img || Interval.is_empty img then None
            else
              Some (band, { Expr.rel = Some alias; col = m.dst.Expr.col }, img))
        (Mining.Band.maps band))
    (Mining.Band.of_check check)

(* ---- rule: predicate introduction ---------------------------------------- *)

(* A candidate conjunct is worth introducing when it is a sargable range
   on an indexed column not already usefully bounded — the safety
   heuristic of [6]: only rewrites that open an access path. *)
let introduction_gain ctx block (c : Expr.pred) =
  match Interval.of_pred c with
  | None -> None
  | Some (r, iv) -> (
      if Interval.is_full iv then None
      else
        match resolve_source ctx block r with
        | None -> None
        | Some s -> (
            match
              Database.find_index_on_column ctx.db s.Logical.table r.Expr.col
            with
            | None -> None
            | Some _ ->
                let current =
                  interval_on ctx block ~alias:s.Logical.alias ~col:r.Expr.col
                in
                (* new interval must actually tighten the current one *)
                if Interval.contains iv current then None else Some (s, r)))

(* Two passes over every usable check of every source.  First the
   block's equality bindings fold each check into conjuncts on its other
   columns; then the folded block's ranges map through each band of each
   check ({!band_images}).  Each conjunct lands once. *)
let predicate_introduction ctx applied (block : Logical.block) =
  let pass (block : Logical.block) propose =
    let seen = ref (exec_pred_list block) and added = ref [] in
    List.iter
      (fun (s : Logical.source) ->
        List.iter
          (fun (name, check) ->
            List.iter
              (fun (c, rule, detail) ->
                if not (List.mem c !seen) then begin
                  seen := c :: !seen;
                  log ~sc:name ~delta:(Pred_added c) applied
                    "predicate_introduction" "%s" detail;
                  added := Logical.introduced_pred ~rule c :: !added
                end)
              (propose s name check))
          (usable_checks ctx s.Logical.table))
      block.Logical.from;
    { block with Logical.preds = block.Logical.preds @ List.rev !added }
  in
  let bindings = bindings_of ctx block in
  let folded =
    pass block (fun s name check ->
        Interval.simplify_pred
          (subst_with_bindings ctx block bindings
             (requalify s.Logical.alias check))
        |> Expr.conjuncts
        |> List.filter_map (fun c ->
               let c = Interval.normalize c in
               if
                 cols_all_not_nullable ctx block c
                 && introduction_gain ctx block c <> None
               then
                 Some
                   ( c,
                     "check:" ^ name,
                     Printf.sprintf "from %s on %s: %s" name s.Logical.alias
                       (Expr.to_string_pred c) )
               else None))
  in
  pass folded (fun s name check ->
      List.filter_map
        (fun (band, (dst : Expr.col_ref), iv) ->
          let c = Interval.to_pred dst iv in
          let rule = Mining.Band.prefix band ^ ":" ^ name in
          if
            column_not_nullable ctx s.Logical.table dst.Expr.col
            && introduction_gain ctx folded c <> None
          then
            Some
              ( c,
                rule,
                Printf.sprintf "range propagation via %s: %s" rule
                  (Expr.to_string_pred c) )
          else None)
        (band_images ctx folded s check))

(* ---- rule: join-hole range trimming -------------------------------------- *)

(* query interval [iv] lies within the hole's [lo, hi) span *)
let covered_by iv ~lo ~hi =
  match (endpoint_pos iv.Interval.lo, endpoint_pos iv.Interval.hi) with
  | Some l, Some h -> l >= lo && h < hi
  | _ -> false

(* Trim [iv] on the other axis by removing the hole span [lo, hi).
   Returns the tightened interval if it is strictly tighter. *)
let trim_interval ~dtype iv ~lo ~hi =
  let lo_pos = endpoint_pos iv.Interval.lo in
  let hi_pos = endpoint_pos iv.Interval.hi in
  match (lo_pos, hi_pos) with
  | Some l, Some h when l >= lo && h < hi ->
      (* entire interval inside the hole: empty result *)
      Some `Empty
  | _ ->
      let tightened_lo =
        match lo_pos with
        | Some l when l >= lo && l < hi ->
            (* raise the lower bound to the hole's upper edge *)
            let v =
              match dtype with
              | Value.TInt | Value.TDate ->
                  value_of_float ~like:dtype (Float.ceil hi)
              | _ -> value_of_float ~like:dtype hi
            in
            Some { Interval.v; incl = true }
        | _ -> None
      in
      let tightened_hi =
        match hi_pos with
        | Some h when h > lo && h < hi ->
            (* lower the upper bound below the hole's lower edge *)
            let v, incl =
              match dtype with
              | Value.TInt | Value.TDate ->
                  let x =
                    if Float.is_integer lo then lo -. 1.0
                    else Float.of_int (int_of_float (Float.floor lo))
                  in
                  (value_of_float ~like:dtype x, true)
              | _ -> (value_of_float ~like:dtype lo, false)
            in
            Some { Interval.v; incl }
        | _ -> None
      in
      if tightened_lo = None && tightened_hi = None then None
      else
        Some
          (`Tightened
            {
              Interval.lo =
                (match tightened_lo with
                | Some e -> Some e
                | None -> iv.Interval.lo);
              hi =
                (match tightened_hi with
                | Some e -> Some e
                | None -> iv.Interval.hi);
            })

let hole_trimming ctx applied (block : Logical.block) =
  let result = ref block in
  let falsified = ref false in
  List.iter
    (fun (nh : named_holes) ->
      let h = nh.holes in
      let h_premises = Option.to_list nh.holes_sc in
      if not !falsified then begin
        let block = !result in
        let find_src table =
          List.find_opt
            (fun (s : Logical.source) -> norm s.Logical.table = norm table)
            block.Logical.from
        in
        match (find_src h.Mining.Join_holes.left_table,
               find_src h.Mining.Join_holes.right_table) with
        | Some sl, Some sr
          when column_not_nullable ctx sl.Logical.table
                 h.Mining.Join_holes.left_col
               && column_not_nullable ctx sr.Logical.table
                    h.Mining.Join_holes.right_col ->
            (* the hole's join path must be present; NULL-able hole columns
               are unsafe to trim (a joined row with a NULL coordinate is
               not a mined point, yet a range filter would drop it) *)
            let joined =
              List.exists
                (fun (p : Logical.pred_item) ->
                  match p.Logical.pred with
                  | Expr.Cmp (Expr.Eq, Expr.Col a, Expr.Col b) ->
                      let is_pair x y =
                        (match resolve_source ctx block x with
                        | Some s -> s.Logical.alias = sl.Logical.alias
                        | None -> false)
                        && norm x.Expr.col = norm h.Mining.Join_holes.join_left
                        && (match resolve_source ctx block y with
                           | Some s -> s.Logical.alias = sr.Logical.alias
                           | None -> false)
                        && norm y.Expr.col = norm h.Mining.Join_holes.join_right
                      in
                      is_pair a b || is_pair b a
                  | _ -> false)
                (Logical.executable_preds block)
            in
            if joined then begin
              let ia =
                interval_on ctx block ~alias:sl.Logical.alias
                  ~col:h.Mining.Join_holes.left_col
              and ib =
                interval_on ctx block ~alias:sr.Logical.alias
                  ~col:h.Mining.Join_holes.right_col
              in
              List.iter
                (fun (r : Mining.Join_holes.rect) ->
                  if not !falsified then begin
                    (* A-covered: trim B *)
                    (if covered_by ia ~lo:r.Mining.Join_holes.a_lo
                          ~hi:r.Mining.Join_holes.a_hi then
                       let dtype =
                         column_dtype ctx sr.Logical.table
                           h.Mining.Join_holes.right_col
                       in
                       match
                         trim_interval ~dtype ib ~lo:r.Mining.Join_holes.b_lo
                           ~hi:r.Mining.Join_holes.b_hi
                       with
                       | Some `Empty ->
                           log ~premises:h_premises ~delta:Block_falsified
                             applied "hole_trimming"
                             "query range falls entirely in a hole: empty";
                           falsified := true
                       | Some (`Tightened iv') ->
                           let ref_ =
                             {
                               Expr.rel = Some sr.Logical.alias;
                               col = h.Mining.Join_holes.right_col;
                             }
                           in
                           let tp = Interval.to_pred ref_ iv' in
                           log ~premises:h_premises ~delta:(Pred_added tp)
                             applied "hole_trimming" "tightened %s.%s"
                             sr.Logical.alias h.Mining.Join_holes.right_col;
                           result :=
                             {
                               !result with
                               Logical.preds =
                                 !result.Logical.preds
                                 @ [
                                     Logical.introduced_pred
                                       ~rule:"hole_trimming" tp;
                                   ];
                             }
                       | None -> ());
                    (* B-covered: trim A *)
                    if
                      (not !falsified)
                      && covered_by ib ~lo:r.Mining.Join_holes.b_lo
                           ~hi:r.Mining.Join_holes.b_hi
                    then
                      let dtype =
                        column_dtype ctx sl.Logical.table
                          h.Mining.Join_holes.left_col
                      in
                      match
                        trim_interval ~dtype ia ~lo:r.Mining.Join_holes.a_lo
                          ~hi:r.Mining.Join_holes.a_hi
                      with
                      | Some `Empty ->
                          log ~premises:h_premises ~delta:Block_falsified
                            applied "hole_trimming"
                            "query range falls entirely in a hole: empty";
                          falsified := true
                      | Some (`Tightened iv') ->
                          let ref_ =
                            {
                              Expr.rel = Some sl.Logical.alias;
                              col = h.Mining.Join_holes.left_col;
                            }
                          in
                          let tp = Interval.to_pred ref_ iv' in
                          log ~premises:h_premises ~delta:(Pred_added tp)
                            applied "hole_trimming" "tightened %s.%s"
                            sl.Logical.alias h.Mining.Join_holes.left_col;
                          result :=
                            {
                              !result with
                              Logical.preds =
                                !result.Logical.preds
                                @ [
                                    Logical.introduced_pred
                                      ~rule:"hole_trimming" tp;
                                  ];
                            }
                      | None -> ()
                  end)
                h.Mining.Join_holes.rects
            end
        | _ -> ()
      end)
    ctx.holes;
  if !falsified then
    {
      !result with
      Logical.preds =
        !result.Logical.preds @ [ Logical.introduced_pred ~rule:"hole_trimming" Expr.Pfalse ];
    }
  else !result

(* ---- rule: FD-based group-by / order-by simplification ------------------- *)

(* FDs usable for a table: mined FDs plus key constraints (a key determines
   every column). *)
let fds_for ctx table =
  let mined =
    List.filter
      (fun (nf : named_fd) ->
        norm nf.fd.Mining.Fd_mine.table = norm table)
      ctx.fds
    |> List.map (fun nf ->
           ( List.map norm nf.fd.Mining.Fd_mine.lhs,
             norm nf.fd.Mining.Fd_mine.rhs ))
  in
  let from_keys =
    match Database.find_table ctx.db table with
    | None -> []
    | Some tbl ->
        let all = List.map norm (Schema.column_names (Table.schema tbl)) in
        List.concat_map
          (fun ic ->
            match ic.Icdef.body with
            | Icdef.Primary_key ks | Icdef.Unique ks ->
                let ks = List.map norm ks in
                List.filter_map
                  (fun c -> if List.mem c ks then None else Some (ks, c))
                  all
            | _ -> [])
          (usable_constraints ctx table)
  in
  mined @ from_keys

(* Names of the catalog FDs backing a simplification on [table] — a
   table-scoped over-approximation of the exact closure trace (declared
   keys also feed the closure but need no guard, being enforced). *)
let fd_premises ctx table =
  List.filter_map
    (fun (nf : named_fd) ->
      if norm nf.fd.Mining.Fd_mine.table = norm table then nf.fd_sc else None)
    ctx.fds

let fd_closure fds start =
  let closure = ref start in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (lhs, rhs) ->
        if
          (not (List.mem rhs !closure))
          && List.for_all (fun c -> List.mem c !closure) lhs
        then begin
          closure := rhs :: !closure;
          changed := true
        end)
      fds
  done;
  !closure

(* columns of [alias] bound to constants by equality predicates *)
let const_cols ctx block alias =
  Interval.const_bindings (exec_pred_list block)
  |> List.filter_map (fun (r, _) ->
         match resolve_source ctx block r with
         | Some s when norm s.Logical.alias = norm alias ->
             Some (norm r.Expr.col)
         | _ -> None)

let fd_simplification ctx applied (block : Logical.block) =
  (* ORDER BY: drop keys functionally determined by earlier keys (or by
     constants) *)
  let determined : (string, string list) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun (s : Logical.source) ->
      Hashtbl.replace determined (norm s.Logical.alias)
        (const_cols ctx block s.Logical.alias))
    block.Logical.from;
  let keep_order =
    List.filter
      (fun (o : Sqlfe.Ast.order_item) ->
        match o.Sqlfe.Ast.key with
        | Expr.Col r -> (
            match resolve_source ctx block r with
            | Some s ->
                let a = norm s.Logical.alias in
                let known = Option.value (Hashtbl.find_opt determined a) ~default:[] in
                let closure =
                  fd_closure (fds_for ctx s.Logical.table) known
                in
                if List.mem (norm r.Expr.col) closure then begin
                  log
                    ~premises:(fd_premises ctx s.Logical.table)
                    ~delta:
                      (Order_key_dropped
                         { alias = s.Logical.alias; col = r.Expr.col })
                    applied "fd_simplification"
                    "dropped redundant ORDER BY key %s.%s" s.Logical.alias
                    r.Expr.col;
                  false
                end
                else begin
                  Hashtbl.replace determined a (norm r.Expr.col :: known);
                  true
                end
            | None -> true)
        | _ -> true)
      block.Logical.order_by
  in
  (* GROUP BY: drop keys determined by the remaining keys + constants *)
  let group = ref block.Logical.group_by in
  let items = ref block.Logical.items in
  let changed = ref true in
  while !changed do
    changed := false;
    let try_drop k =
      (* never drop the last key: an empty GROUP BY turns a grouped query
         into a global aggregate, which yields a row even on empty input *)
      List.length !group > 1
      &&
      match k with
      | Expr.Col r -> (
          match resolve_source ctx block r with
          | Some s ->
              let others =
                List.filter_map
                  (fun k' ->
                    if k' == k then None
                    else
                      match k' with
                      | Expr.Col r' -> (
                          match resolve_source ctx block r' with
                          | Some s' when s'.Logical.alias = s.Logical.alias ->
                              Some (norm r'.Expr.col)
                          | _ -> None)
                      | _ -> None)
                  !group
              in
              let known = others @ const_cols ctx block s.Logical.alias in
              let closure = fd_closure (fds_for ctx s.Logical.table) known in
              List.mem (norm r.Expr.col) closure
          | None -> false)
      | _ -> false
    in
    match List.find_opt try_drop !group with
    | Some k ->
        changed := true;
        group := List.filter (fun k' -> not (k' == k)) !group;
        let k_premises =
          match k with
          | Expr.Col r -> (
              match resolve_source ctx block r with
              | Some s -> fd_premises ctx s.Logical.table
              | None -> [])
          | _ -> []
        in
        (* a select item equal to the dropped key becomes MIN(key): the FD
           guarantees a single value per group, so MIN is value-preserving *)
        items :=
          List.map
            (fun item ->
              match item with
              | Sqlfe.Ast.Scalar (e, alias) when e = k ->
                  let name =
                    match alias with
                    | Some a -> Some a
                    | None -> (
                        match e with
                        | Expr.Col r -> Some r.Expr.col
                        | _ -> None)
                  in
                  log ~premises:k_premises
                    ~delta:(Group_key_dropped (Fmt.str "%a" Expr.pp e))
                    applied "fd_simplification"
                    "GROUP BY key %s dropped; select item rewritten as MIN"
                    (Fmt.str "%a" Expr.pp e);
                  Sqlfe.Ast.Aggregate (Sqlfe.Ast.Min, Some e, name)
              | item -> item)
            !items
    | None -> ()
  done;
  if
    List.length keep_order <> List.length block.Logical.order_by
    || List.length !group <> List.length block.Logical.group_by
  then
    { block with Logical.order_by = keep_order; group_by = !group;
      items = !items }
  else block

(* ---- rule: twinning from SSCs (estimation only) --------------------------- *)

let twinning ctx applied (block : Logical.block) =
  (* twins serve the estimator, which skips exception-union folds: a
     fold is implied by the block, so it is no predicate of the query *)
  let view =
    {
      block with
      Logical.preds =
        List.filter (fun p -> not (Logical.is_folded p)) block.Logical.preds;
    }
  in
  let twins = ref [] in
  let add_twin ~sc ~confidence ~alias ~target_col ~source_col iv =
    if not (Interval.is_full iv || Interval.is_empty iv) then begin
      let r = { Expr.rel = Some alias; col = target_col } in
      let pred = Interval.to_pred r iv in
      log ~sc
        ~delta:(Pred_twinned { pred; confidence })
        applied "twinning" "%s: twinned %s.%s from %s.%s (conf %.2f)" sc alias
        target_col alias source_col confidence;
      twins :=
        Logical.twin_pred ~sc ~confidence
          ~replaces:{ Expr.rel = Some alias; col = source_col }
          pred
        :: !twins
    end
  in
  List.iter
    (fun (ssc : ssc) ->
      List.iter
        (fun (s : Logical.source) ->
          if norm s.Logical.table = norm ssc.table then
            List.iter
              (fun band ->
                match Mining.Band.maps band with
                | (m : Mining.Band.map) :: _ ->
                    let alias = s.Logical.alias in
                    let isrc = interval_on ctx view ~alias ~col:m.src.Expr.col
                    and idst =
                      interval_on ctx view ~alias ~col:m.dst.Expr.col
                    in
                    (* a twin only helps when predicates exist on BOTH
                       columns (the paper's case: reduce "range predicates
                       on two columns to a pair of range predicates on one
                       column") *)
                    if not (Interval.is_full isrc || Interval.is_full idst) then
                      add_twin ~sc:ssc.name ~confidence:ssc.confidence ~alias
                        ~target_col:m.dst.Expr.col ~source_col:m.src.Expr.col
                        (band_image m isrc
                           ~dtype:
                             (column_dtype ctx s.Logical.table m.dst.Expr.col))
                | [] -> ())
              (Mining.Band.of_check ssc.check))
        block.Logical.from)
    ctx.sscs;
  { block with Logical.preds = block.Logical.preds @ List.rev !twins }

(* ---- rule: exception-table union (ASC-as-AST, paper §4.4) ---------------- *)

(* A column is null-rejected in a block when it is declared NOT NULL or an
   executable range conjunct bounds it: the comparison is UNKNOWN on a
   NULL, so no qualifying row carries one. *)
let null_rejected ctx block (r : Expr.col_ref) =
  match resolve_source ctx block r with
  | None -> false
  | Some s ->
      column_not_nullable ctx s.Logical.table r.Expr.col
      || not
           (Interval.is_full
              (interval_on ctx block ~alias:s.Logical.alias ~col:r.Expr.col))

(* The fast branch's conjuncts for source [s] under [check], or None when
   no fold opens an index path.  Equality bindings fold the check into an
   equivalent statement.  Failing that, the block's ranges map through the
   check's bands ({!band_images}); such a range only bounds the rows
   satisfying the check, so the check itself stays beside it — without it
   a violator inside the derived range would come back from both
   branches. *)
let fold_check ctx block bindings (s : Logical.source) check =
  let folded =
    Interval.simplify_pred (subst_with_bindings ctx block bindings check)
    |> Expr.conjuncts
    |> List.map Interval.normalize
  in
  if List.exists (fun c -> introduction_gain ctx block c <> None) folded then
    Some folded
  else
    let derived =
      List.filter_map
        (fun (_, dst, iv) ->
          let p = Interval.to_pred dst iv in
          if introduction_gain ctx block p <> None then Some p else None)
        (band_images ctx block s check)
    in
    if derived = [] then None else Some (Expr.conjuncts check @ derived)

(* Preconditions: plain SPJ block (no aggregates / grouping / distinct /
   ordering / limit), an exception table for a source's check statement,
   a fold of the check that opens an index path ({!fold_check}), and
   every column of the fold null-rejected by the block.  The rewrite
   produces
       (block ∧ fold)  UNION ALL  (block with source ↦ exceptions)
   which is answer-equal for *any* data: the fold holds on a row exactly
   when the check does, so branch 1 selects the base rows satisfying the
   check and branch 2 exactly the violators (the exception table's
   contents).  Null rejection makes the check TRUE or FALSE on every
   qualifying row — a row where it is UNKNOWN is no violator, so neither
   branch would return it. *)
let exception_union ctx applied (block : Logical.block) : Logical.t option =
  let plain =
    (not block.Logical.distinct)
    && block.Logical.group_by = []
    && block.Logical.having = Expr.Ptrue
    && block.Logical.order_by = []
    && block.Logical.limit = None
    && List.for_all
         (function
           | Sqlfe.Ast.Aggregate _ -> false
           | Sqlfe.Ast.Star | Sqlfe.Ast.Scalar _ -> true)
         block.Logical.items
  in
  if not (plain && ctx.flags.exception_union) then None
  else
    let bindings = bindings_of ctx block in
    let try_source (s : Logical.source) =
      let infos =
        List.filter
          (fun e -> norm e.exc_base_table = norm s.Logical.table)
          ctx.exceptions
      in
      List.find_map
        (fun info ->
          let check = requalify s.Logical.alias info.exc_check in
          match fold_check ctx block bindings s check with
          | Some fold
            when List.for_all (null_rejected ctx block)
                   (List.concat_map Expr.cols_of_pred fold) ->
              log ~sc:info.exc_constraint
                ~delta:
                  (Union_split
                     { fast_pred = Expr.conjoin fold;
                       exc_table = info.exc_table })
                applied "exception_union"
                "split %s via exception table %s (constraint %s)"
                s.Logical.alias info.exc_table info.exc_constraint;
              let branch1 =
                {
                  block with
                  Logical.preds =
                    block.Logical.preds
                    @ List.map (Logical.folded_pred ~sc:info.exc_constraint)
                        fold;
                }
              in
              let branch2 =
                {
                  block with
                  Logical.from =
                    List.map
                      (fun (f : Logical.source) ->
                        if f.Logical.alias = s.Logical.alias then
                          { f with Logical.table = info.exc_table }
                        else f)
                      block.Logical.from;
                }
              in
              Some
                (Logical.Union [ Logical.Block branch1; Logical.Block branch2 ])
          | _ -> None)
        infos
    in
    List.find_map try_source block.Logical.from

(* ---- driver ---------------------------------------------------------------- *)

(* Names of every usable check on a block's sources: the (superset of)
   premises behind an unsatisfiability proof — a premise superset is
   sound for guarding purposes. *)
let check_premises ctx (block : Logical.block) =
  List.concat_map
    (fun (s : Logical.source) ->
      List.map fst (usable_checks ctx s.Logical.table))
    block.Logical.from

let falsify block =
  {
    block with
    Logical.preds =
      block.Logical.preds
      @ [ Logical.introduced_pred ~rule:"unsatisfiable" Expr.Pfalse ];
  }

(* ---- rule: partition pruning -------------------------------------------- *)

(* Eliminate partitions of a partitioned source whose partition
   constraint — the routing bounds, optionally tightened by valid
   partition-domain SCs — contradicts the block's query predicates.  The
   same NULL discipline as [block_unsatisfiable] applies: a contradiction
   only counts when anchored by a query predicate on the same column,
   because a query range or equality predicate excludes NULL rows while a
   partition constraint (CHECK semantics) passes on them.  That anchoring
   is also what makes it sound to strip the IS NULL arm that segment 0 of
   a range partitioning carries (NULLs route there). *)

let rec strip_null_arms = function
  | Expr.Or (p, Expr.Is_null _) -> strip_null_arms p
  | p -> p

let partition_scs_of ctx (s : Logical.source) i =
  List.filter
    (fun p -> norm p.part_table = norm s.Logical.table && p.part_index = i)
    ctx.parts

let partition_contradicts ctx block (s : Logical.source) part_preds =
  Interval.contradicts ~key_of:(key_of ctx block) (exec_pred_list block)
    (List.map (requalify s.Logical.alias) part_preds)

(* A hash partition survives only the bucket an equality on the partition
   column routes to — routing-hard, so such a prune needs no SC premise. *)
let hash_exclusion ctx block (s : Logical.source) part i =
  match Partition.spec part with
  | Partition.Range _ -> false
  | Partition.Hash _ ->
      let col = Partition.column part in
      let want =
        match key_of ctx block { Expr.rel = Some s.Logical.alias; col } with
        | Some key -> Some key
        | None -> None
      in
      (match want with
      | None -> false
      | Some key ->
          Interval.const_bindings (exec_pred_list block)
          |> List.exists (fun (r, v) ->
                 key_of ctx block r = Some key
                 && Partition.route_value part v <> i))

let partition_pruning_step ctx applied (block : Logical.block) =
  let prune_source (s : Logical.source) =
    match Database.partitioning ctx.db s.Logical.table with
    | None -> s
    | Some part ->
        let candidates =
          match s.Logical.partitions with
          | Some ps -> ps
          | None -> List.init (Partition.count part) Fun.id
        in
        let survivors =
          List.filter
            (fun i ->
              let hard = strip_null_arms (Partition.constraint_pred part i) in
              if
                hash_exclusion ctx block s part i
                || partition_contradicts ctx block s [ hard ]
              then begin
                log ~delta:(Partition_pruned
                              { table = s.Logical.table;
                                alias = s.Logical.alias; partition = i })
                  applied "partition_pruning"
                  "partition %d of %s contradicts the query predicates" i
                  s.Logical.table;
                false
              end
              else
                let scs = partition_scs_of ctx s i in
                let sc_preds = List.map (fun p -> p.part_pred) scs in
                if
                  sc_preds <> []
                  && partition_contradicts ctx block s (hard :: sc_preds)
                then begin
                  let names = List.filter_map (fun p -> p.part_sc_name) scs in
                  log
                    ?sc:(match names with n :: _ -> Some n | [] -> None)
                    ~premises:names
                    ~delta:(Partition_pruned
                              { table = s.Logical.table;
                                alias = s.Logical.alias; partition = i })
                    applied "partition_pruning"
                    "partition %d of %s: domain SC contradicts the query \
                     predicates"
                    i s.Logical.table;
                  false
                end
                else true)
            candidates
        in
        if List.length survivors < List.length candidates then
          { s with Logical.partitions = Some survivors }
        else s
  in
  { block with Logical.from = List.map prune_source block.Logical.from }

let rewrite_block_phase1 ctx applied block =
  let block =
    if ctx.flags.unionall_pruning && block_unsatisfiable ctx block then begin
      log
        ~premises:(check_premises ctx block)
        ~delta:Block_falsified applied "unsatisfiable"
        "block contradicts its constraints";
      falsify block
    end
    else block
  in
  let block =
    if ctx.flags.partition_pruning then partition_pruning_step ctx applied block
    else block
  in
  let block =
    if ctx.flags.join_elimination then join_elimination ctx applied block
    else block
  in
  let block =
    if ctx.flags.predicate_introduction then
      block
      |> equality_transitivity ctx applied
      |> predicate_introduction ctx applied
    else block
  in
  block

let rewrite_block_phase3 ctx applied block =
  let block =
    if ctx.flags.hole_trimming then hole_trimming ctx applied block else block
  in
  let block =
    if ctx.flags.fd_simplification then fd_simplification ctx applied block
    else block
  in
  let block = if ctx.flags.twinning then twinning ctx applied block else block in
  block

let rec rewrite_query ctx applied (q : Logical.t) : Logical.t =
  match q with
  | Logical.Union branches ->
      let kept =
        List.filter
          (fun b ->
            match b with
            | Logical.Block blk ->
                if ctx.flags.unionall_pruning && block_unsatisfiable ctx blk
                then begin
                  log
                    ~premises:(check_premises ctx blk)
                    ~delta:Branch_pruned applied "unionall_pruning"
                    "pruned a branch";
                  false
                end
                else true
            | Logical.Union _ -> true)
          branches
      in
      let kept = match kept with [] -> [ List.hd branches ] | l -> l in
      Logical.Union (List.map (rewrite_query ctx applied) kept)
  | Logical.Block block -> (
      let block = rewrite_block_phase1 ctx applied block in
      match exception_union ctx applied block with
      | Some (Logical.Union branches) ->
          Logical.Union
            (List.map
               (function
                 | Logical.Block b ->
                     Logical.Block (rewrite_block_phase3 ctx applied b)
                 | q -> q)
               branches)
      | Some q -> q
      | None -> Logical.Block (rewrite_block_phase3 ctx applied block))

let rewrite ctx (q : Logical.t) : Logical.t * applied list =
  let applied = ref [] in
  let q' = rewrite_query ctx applied q in
  (q', List.rev !applied)

let pp_applied ppf a = Fmt.pf ppf "%s: %s" a.rule a.detail

let pp_delta ppf = function
  | Source_removed { alias; table } ->
      Fmt.pf ppf "source %s (%s) removed" alias table
  | Pred_added p -> Fmt.pf ppf "added %s" (Expr.to_string_pred p)
  | Pred_twinned { pred; confidence } ->
      Fmt.pf ppf "twin %s (conf %.2f)" (Expr.to_string_pred pred) confidence
  | Order_key_dropped { alias; col } ->
      Fmt.pf ppf "ORDER BY key %s.%s dropped" alias col
  | Group_key_dropped k -> Fmt.pf ppf "GROUP BY key %s dropped" k
  | Union_split { fast_pred; exc_table } ->
      Fmt.pf ppf "split into (fast: %s) UNION ALL (exceptions: %s)"
        (Expr.to_string_pred fast_pred) exc_table
  | Branch_pruned -> Fmt.pf ppf "UNION ALL branch pruned"
  | Block_falsified -> Fmt.pf ppf "block proven empty"
  | Partition_pruned { table; alias; partition } ->
      Fmt.pf ppf "partition %d of %s (%s) pruned" partition table alias
  | Index_access { index; table; alias } ->
      Fmt.pf ppf "%s (%s) answered from index %s alone" alias table index
