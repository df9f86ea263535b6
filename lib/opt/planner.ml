(* Lowering logical queries to physical plans: access-path selection
   (sequential vs. index range scan), greedy join ordering on estimated
   cardinalities (twin-blended, so SSCs influence join order exactly as
   the paper intends), join method choice, then grouping, projection,
   ordering and limits. *)

open Rel
open Stats
open Exec

type env = {
  db : Database.t;
  stats : Runstats.t;
  params : Cost.params;
  use_indexes : bool;
      (* false builds the index-free backup plan ({!Explain}) *)
}

let make_env ?(params = Cost.default_params) ?(use_indexes = true) db stats =
  { db; stats; params; use_indexes }

let sel_env env = { Selectivity.db = env.db; stats = env.stats }

type estimates = (Plan.t * float) list


exception Unplannable of string

let unplannable fmt = Printf.ksprintf (fun s -> raise (Unplannable s)) fmt

let norm = String.lowercase_ascii

(* ---- predicate classification ------------------------------------------- *)

type classified = {
  local : (string * Expr.pred list) list; (* by alias (normalized) *)
  equi : (string * Expr.t * string * Expr.t * Expr.pred) list;
      (* alias1, key1, alias2, key2, original predicate *)
  cross : Expr.pred list;
}

let classify env (block : Logical.block) : classified =
  let local : (string, Expr.pred list) Hashtbl.t = Hashtbl.create 8 in
  let equi = ref [] and cross = ref [] in
  let resolve r =
    match Logical.sources_of_col env.db block r with
    | [ s ] -> Some s
    | _ -> None
  in
  List.iter
    (fun (p : Logical.pred_item) ->
      let pred = p.Logical.pred in
      let aliases = Selectivity.aliases_of_pred env.db block pred in
      match aliases with
      | [] | [ _ ] ->
          let a =
            match aliases with
            | [ a ] -> a
            | _ -> (
                (* constant predicate: attach to the first source *)
                match block.Logical.from with
                | s :: _ -> norm s.Logical.alias
                | [] -> unplannable "block without sources")
          in
          Hashtbl.replace local a
            (pred :: Option.value (Hashtbl.find_opt local a) ~default:[])
      | _ -> (
          match pred with
          | Expr.Cmp (Expr.Eq, (Expr.Col ra as ka), (Expr.Col rb as kb)) -> (
              match (resolve ra, resolve rb) with
              | Some sa, Some sb when sa.Logical.alias <> sb.Logical.alias ->
                  equi :=
                    (norm sa.Logical.alias, ka, norm sb.Logical.alias, kb, pred)
                    :: !equi
              | _ -> cross := pred :: !cross)
          | _ -> cross := pred :: !cross))
    (Logical.executable_preds block);
  {
    local =
      Hashtbl.fold (fun a ps acc -> (a, List.rev ps) :: acc) local [];
    equi = List.rev !equi;
    cross = List.rev !cross;
  }

(* ---- access-path selection ------------------------------------------------ *)

let bound_of_endpoint (e : Interval.endpoint option) =
  match e with
  | None -> Index.Unbounded
  | Some { Interval.v; incl = true } -> Index.Incl v
  | Some { Interval.v; incl = false } -> Index.Excl v

(* Every column the block needs from one source — predicates, select
   items, grouping, ordering, join keys.  [None] means "all of them",
   i.e. a SELECT-star block.  Ambiguous references are attributed conservatively to
   every source they could belong to.  This is the coverage test for
   index-only access: a readable index whose key ⊇ the needed set can
   answer the alias without touching the heap. *)
let needed_cols env (block : Logical.block) (s : Logical.source) =
  match Logical.cols_outside_preds block with
  | `Star -> None
  | `Cols outside ->
      let a = norm s.Logical.alias in
      let pred_cols =
        List.concat_map
          (fun (p : Logical.pred_item) -> Expr.cols_of_pred p.Logical.pred)
          (Logical.executable_preds block)
      in
      let mine =
        List.filter_map
          (fun (r : Expr.col_ref) ->
            let srcs = Logical.sources_of_col env.db block r in
            if
              List.exists
                (fun (src : Logical.source) -> norm src.Logical.alias = a)
                srcs
            then Some (norm r.Expr.col)
            else None)
          (outside @ pred_cols)
      in
      Some (List.sort_uniq String.compare mine)

(* pick the cheapest access path for one source given its local preds;
   returns plan, estimated scan cost, and estimated output rows.  [note]
   records the estimate of each partition segment's scan. *)
let access_path env (block : Logical.block) (s : Logical.source) local_preds
    ~blended_sel ~note =
  let table =
    match Database.find_table env.db s.Logical.table with
    | Some t -> t
    | None -> unplannable "no such table: %s" s.Logical.table
  in
  let rows = float_of_int (Table.cardinality table) in
  let pages = float_of_int (Table.pages table) in
  let filter = Expr.conjoin local_preds in
  let out_rows = rows *. blended_sel in
  match Database.partitioning env.db s.Logical.table with
  | Some part ->
      (* partitioned source: concatenate the surviving segments (all of
         them unless {!Rewrite} pruned) in segment order.  Access
         within a segment is sequential — the heap indexes span the
         whole table, so a segment-local probe would not be honest about
         I/O. *)
      let surviving =
        match s.Logical.partitions with
        | Some ps ->
            List.filter (fun i -> i >= 0 && i < Partition.count part) ps
        | None -> List.init (Partition.count part) Fun.id
      in
      let rpp = Table.rows_per_page table in
      let seg_pages =
        List.fold_left
          (fun acc i -> acc + Partition.pages part i ~rows_per_page:rpp)
          0 surviving
      in
      let seg_rows =
        List.fold_left (fun acc i -> acc + Partition.rows part i) 0 surviving
      in
      (* the filter's selectivity is over the whole table, so it already
         leaves out the rows pruning dropped; scaling it again by the
         surviving share would count the prune twice.  The surviving
         segments cannot yield more than they hold, and each takes its
         share of the estimate by rows. *)
      let out_rows = Float.min out_rows (float_of_int seg_rows) in
      let children =
        List.map
          (fun i ->
            let share =
              if seg_rows = 0 then 0.0
              else
                float_of_int (Partition.rows part i) /. float_of_int seg_rows
            in
            ( i,
              note
                (Plan.Partition_scan
                   {
                     table = s.Logical.table;
                     alias = s.Logical.alias;
                     partition = i;
                     filter;
                   })
                (out_rows *. share) ))
          surviving
      in
      let plan =
        Plan.Partition_concat
          { table = s.Logical.table; alias = s.Logical.alias; children }
      in
      let cost =
        Cost.seq_scan env.params
          ~pages:(float_of_int seg_pages)
          ~rows:(float_of_int seg_rows)
      in
      (plan, cost, out_rows)
  | None ->
  let seq_plan =
    Plan.Seq_scan { table = s.Logical.table; alias = s.Logical.alias; filter }
  in
  let seq_cost = Cost.seq_scan env.params ~pages ~rows in
  (* index alternatives: single-column indexes with a bounded interval *)
  let key_of (r : Expr.col_ref) =
    match Logical.sources_of_col env.db block r with
    | [ src ] when norm src.Logical.alias = norm s.Logical.alias ->
        Some (norm r.Expr.col)
    | [] when r.Expr.rel = None -> Some (norm r.Expr.col)
    | _ -> None
  in
  let entries, _ = Interval.summarize ~key_of local_preds in
  (* only a Readable index may serve probes; Write_only / Backfilling /
     Demoted indexes are maintenance-only (lib/idx lifecycle) *)
  let candidates =
    if not env.use_indexes then []
    else
      List.filter_map
        (fun (col_key, (r, iv)) ->
          if Interval.is_full iv then None
          else
            match
              Database.find_index_on_column env.db s.Logical.table r.Expr.col
            with
            | None -> None
            | Some idx when not (Index.is_readable idx) -> None
            | Some idx ->
                let match_sel =
                  Selectivity.interval_selectivity (sel_env env)
                    ~table:s.Logical.table ~column:r.Expr.col iv
                in
                let match_rows = rows *. match_sel in
                let cost =
                  Cost.index_scan env.params ~pages ~rows ~match_rows
                in
                ignore col_key;
                Some
                  ( Plan.Index_scan
                      {
                        table = s.Logical.table;
                        alias = s.Logical.alias;
                        index = Index.name idx;
                        lo = bound_of_endpoint iv.Interval.lo;
                        hi = bound_of_endpoint iv.Interval.hi;
                        filter;
                      },
                    cost ))
        entries
  in
  (* index-only alternatives: a readable index whose key covers every
     column the block needs from this source answers it without heap
     I/O.  Single-column keys take the summarized interval as probe
     bounds; composite keys scan all entries and filter. *)
  let candidates =
    if not env.use_indexes then candidates
    else
      match needed_cols env block s with
      | None -> candidates (* SELECT *: the heap is needed *)
      | Some needed ->
          let covering =
            List.filter_map
              (fun idx ->
                if not (Index.is_readable idx) then None
                else
                  let key_cols = List.map norm (Index.columns idx) in
                  if
                    not
                      (List.for_all (fun c -> List.mem c key_cols) needed)
                  then None
                  else
                    (* the leading key column's summarized interval
                       narrows the probe whatever the key arity:
                       {!Index.fold_entries} applies leading-column
                       bounds to composite keys too *)
                    let lo, hi, match_sel =
                      match key_cols with
                      | [] -> (Index.Unbounded, Index.Unbounded, 1.0)
                      | kc :: _ -> (
                          match
                            List.find_opt
                              (fun (_, ((r : Expr.col_ref), iv)) ->
                                norm r.Expr.col = kc
                                && not (Interval.is_full iv))
                              entries
                          with
                          | Some (_, (r, iv)) ->
                              ( bound_of_endpoint iv.Interval.lo,
                                bound_of_endpoint iv.Interval.hi,
                                Selectivity.interval_selectivity
                                  (sel_env env) ~table:s.Logical.table
                                  ~column:r.Expr.col iv )
                          | None ->
                              (Index.Unbounded, Index.Unbounded, 1.0))
                    in
                    let entry_width =
                      Table.bytes_per_value * List.length key_cols
                    in
                    let entries_per_page =
                      float_of_int
                        (max 1 (Table.page_size / max 1 entry_width))
                    in
                    let cost =
                      Cost.index_only_scan env.params ~entries_per_page
                        ~match_rows:(rows *. match_sel)
                    in
                    Some
                      ( Plan.Index_only_scan
                          {
                            table = s.Logical.table;
                            alias = s.Logical.alias;
                            index = Index.name idx;
                            columns = Index.columns idx;
                            lo;
                            hi;
                            filter;
                          },
                        cost ))
              (List.sort
                 (fun a b -> String.compare (Index.name a) (Index.name b))
                 (Database.indexes_on env.db s.Logical.table))
          in
          candidates @ covering
  in
  let best_plan, best_cost =
    List.fold_left
      (fun (bp, bc) (p, c) -> if c < bc then (p, c) else (bp, bc))
      (seq_plan, seq_cost) candidates
  in
  (best_plan, best_cost, out_rows)

(* ---- join ordering --------------------------------------------------------- *)

type rel_state = {
  aliases : string list; (* normalized *)
  plan : Plan.t;
  card : float; (* [est] floored at one row, what costing reads *)
  est : float;
  acc_cost : float;
}

(* Partition-constraint join bound (paper §2: constraints as
   characterizations feeding the estimator).  When both sides are base
   sources of tables partitioned the same way and the equi-join keys are
   their partition columns, matches are confined to same-numbered
   segments, so [Σᵢ lᵢ·rᵢ] caps the join output. *)
let aligned_cap env (block : Logical.block) left right eqs =
  match (left.aliases, right.aliases) with
  | [ la ], [ ra ] -> (
      let source a =
        List.find_opt
          (fun (s : Logical.source) -> norm s.Logical.alias = a)
          block.Logical.from
      in
      match (source la, source ra) with
      | Some ls, Some rs -> (
          match
            ( Database.partitioning env.db ls.Logical.table,
              Database.partitioning env.db rs.Logical.table )
          with
          | Some lp, Some rp when Partition.aligned lp rp ->
              let is_part_col part k =
                match k with
                | Expr.Col r -> norm r.Expr.col = norm (Partition.column part)
                | _ -> false
              in
              let keyed =
                List.exists
                  (fun (a1, k1, a2, k2, _) ->
                    (a1 = la && a2 = ra && is_part_col lp k1
                   && is_part_col rp k2)
                    || (a1 = ra && a2 = la && is_part_col rp k1
                      && is_part_col lp k2))
                  eqs
              in
              if keyed then
                let seg_rows p =
                  Array.init (Partition.count p) (Partition.rows p)
                in
                Some
                  (Part_stats.aligned_join_cap ~left:(seg_rows lp)
                     ~right:(seg_rows rp))
              else None
          | _ -> None)
      | _ -> None)
  | _ -> None

let order_joins env (block : Logical.block) (cls : classified) ~note
    base_rels =
  match base_rels with
  | [] -> unplannable "no relations"
  | [ r ] ->
      (* attach any stray cross predicates (shouldn't exist) *)
      (r, cls.cross)
  | _ ->
      let remaining = ref base_rels in
      let pending_equi = ref cls.equi in
      let pending_cross = ref cls.cross in
      (* start from the smallest relation *)
      let start =
        List.fold_left
          (fun best r -> if r.card < best.card then r else best)
          (List.hd base_rels) (List.tl base_rels)
      in
      remaining :=
        List.filter (fun r -> r.aliases <> start.aliases) !remaining;
      let current = ref start in
      while !remaining <> [] do
        let connects cand =
          List.filter
            (fun (a1, _, a2, _, _) ->
              (List.mem a1 !current.aliases && List.mem a2 cand.aliases)
              || (List.mem a2 !current.aliases && List.mem a1 cand.aliases))
            !pending_equi
        in
        (* prefer connected candidates; among them minimize resulting card *)
        let scored =
          List.map
            (fun cand ->
              let eqs = connects cand in
              let sel =
                Selectivity.cross_selectivity (sel_env env) block
                  (List.map (fun (_, _, _, _, p) -> p) eqs)
              in
              let cap =
                Option.value ~default:Float.infinity
                  (aligned_cap env block !current cand eqs)
              in
              let out = Float.min (!current.card *. cand.card *. sel) cap in
              let est = Float.min (!current.est *. cand.est *. sel) cap in
              (cand, eqs, (out, est)))
            !remaining
        in
        let connected = List.filter (fun (_, eqs, _) -> eqs <> []) scored in
        let pool = if connected <> [] then connected else scored in
        let cand, eqs, (out_card, out_est) =
          List.fold_left
            (fun ((_, _, (bo, _)) as best) ((_, _, (o, _)) as c) ->
              if o < bo then c else best)
            (List.hd pool) (List.tl pool)
        in
        let new_aliases = !current.aliases @ cand.aliases in
        (* cross predicates now fully contained *)
        let applicable, rest =
          List.partition
            (fun p ->
              let als = Selectivity.aliases_of_pred env.db block p in
              als <> [] && List.for_all (fun a -> List.mem a new_aliases) als)
            !pending_cross
        in
        pending_cross := rest;
        let residual = Expr.conjoin applicable in
        let plan, step_cost =
          if eqs <> [] then begin
            (* orient keys: left = current side *)
            let lkeys, rkeys =
              List.split
                (List.map
                   (fun (a1, k1, _, k2, _) ->
                     if List.mem a1 !current.aliases then (k1, k2) else (k2, k1))
                   eqs)
            in
            (* build on the cheaper side; the output stays current ++
               candidate either way, so bindings above do not move *)
            let cost ~build ~probe =
              Cost.hash_join env.params ~build_rows:build.card
                ~probe_rows:probe.card ~out_rows:out_card
            in
            let right_cost = cost ~build:cand ~probe:!current
            and left_cost = cost ~build:!current ~probe:cand in
            ( Plan.Hash_join
                {
                  left = !current.plan;
                  right = cand.plan;
                  left_keys = lkeys;
                  right_keys = rkeys;
                  residual;
                  build =
                    (if left_cost < right_cost then Plan.Left else Plan.Right);
                },
              Float.min left_cost right_cost )
          end
          else
            ( Plan.Nested_loop_join
                { left = !current.plan; right = cand.plan; pred = residual },
              Cost.nested_loop_join env.params ~left_rows:!current.card
                ~right_rows:cand.card ~out_rows:out_card )
        in
        pending_equi :=
          List.filter
            (fun e -> not (List.exists (fun e' -> e' == e) eqs))
            !pending_equi;
        let est =
          out_est
          *. Selectivity.cross_selectivity (sel_env env) block applicable
        in
        current :=
          {
            aliases = new_aliases;
            plan = note plan est;
            card = max 1.0 out_card;
            est;
            acc_cost = !current.acc_cost +. cand.acc_cost +. step_cost;
          };
        remaining :=
          List.filter (fun r -> r.aliases <> cand.aliases) !remaining
      done;
      (* any equi predicates left (same pair twice etc.) become filters *)
      let leftovers =
        List.map (fun (_, _, _, _, p) -> p) !pending_equi @ !pending_cross
      in
      (!current, leftovers)

(* ---- select items / grouping / ordering ------------------------------------ *)

let item_output_name i (item : Sqlfe.Ast.select_item) =
  match item with
  | Sqlfe.Ast.Star -> "*"
  | Sqlfe.Ast.Scalar (_, Some a) -> a
  | Sqlfe.Ast.Scalar (Expr.Col r, None) -> r.Expr.col
  | Sqlfe.Ast.Scalar (_, None) -> Printf.sprintf "expr%d" (i + 1)
  | Sqlfe.Ast.Aggregate (fn, _, None) ->
      Printf.sprintf "%s%d" (String.lowercase_ascii (Sqlfe.Ast.agg_name fn))
        (i + 1)
  | Sqlfe.Ast.Aggregate (_, _, Some a) -> a

(* The estimated rows of a group's output: one for a global aggregate,
   else the distinct combinations of its keys, capped by its input. *)
let group_rows env (block : Logical.block) ~input keys =
  let key_ndv k =
    match k with
    | Expr.Col r -> (
        match Logical.sources_of_col env.db block r with
        | [ s ] ->
            float_of_int
              (Selectivity.ndv (sel_env env) ~table:s.Logical.table
                 ~column:r.Expr.col)
        | _ -> 25.0)
    | _ -> 25.0
  in
  if keys = [] then 1.0
  else
    Float.min input
      (List.fold_left (fun acc (k, _) -> acc *. key_ndv k) 1.0 keys)

let plan_block env (block : Logical.block) : Plan.t * float * estimates =
  let ests = ref [] in
  let note plan est =
    ests := (plan, est) :: !ests;
    plan
  in
  let senv = sel_env env in
  let sels = Selectivity.source_selectivities senv block in
  let cls = classify env block in
  let base_rels =
    List.map
      (fun (s : Logical.source) ->
        let a = norm s.Logical.alias in
        let local = Option.value (List.assoc_opt a cls.local) ~default:[] in
        let sel = Option.value (List.assoc_opt a sels) ~default:1.0 in
        let plan, cost, est =
          access_path env block s local ~blended_sel:sel ~note
        in
        {
          aliases = [ a ];
          plan = note plan est;
          card = max 1.0 est;
          est;
          acc_cost = cost;
        })
      block.Logical.from
  in
  let joined, leftovers = order_joins env block cls ~note base_rels in
  let plan, cost, rows =
    match leftovers with
    | [] -> (joined.plan, joined.acc_cost, joined.est)
    | ps ->
        let rows = joined.est *. Selectivity.cross_selectivity senv block ps in
        let pred = Expr.conjoin ps in
        ( note (Plan.Filter { input = joined.plan; pred }) rows,
          joined.acc_cost +. (env.params.Cost.cpu_tuple *. joined.card),
          rows )
  in
  (* a block proven contradictory feeds zero rows into whatever follows —
     the LIMIT 0 must sit *below* any aggregation, which still owes one
     output row for a global aggregate over empty input *)
  let falsified =
    List.exists
      (fun (p : Logical.pred_item) ->
        (not p.Logical.estimation_only) && p.Logical.pred = Expr.Pfalse)
      block.Logical.preds
  in
  let plan, rows =
    if falsified then (note (Plan.Limit { input = plan; n = 0 }) 0.0, 0.0)
    else (plan, rows)
  in
  let items = block.Logical.items in
  let has_group =
    block.Logical.group_by <> []
    || List.exists
         (function Sqlfe.Ast.Aggregate _ -> true | _ -> false)
         items
  in
  let plan, cost, rows, output_names =
    if has_group then begin
      (* group keys named _g0.., aggregates named by their output name *)
      let keys =
        List.mapi
          (fun i e -> (e, Printf.sprintf "_g%d" i))
          block.Logical.group_by
      in
      let aggs =
        List.filteri (fun _ item ->
            match item with Sqlfe.Ast.Aggregate _ -> true | _ -> false)
          items
        |> List.mapi (fun i item ->
               match item with
               | Sqlfe.Ast.Aggregate (fn, arg, _) ->
                   let out_name =
                     (* recover positional name from the items list *)
                     let idx = ref (-1) in
                     let count = ref (-1) in
                     List.iteri
                       (fun j it ->
                         match it with
                         | Sqlfe.Ast.Aggregate _ ->
                             incr count;
                             if !count = i then idx := j
                         | _ -> ())
                       items;
                     item_output_name !idx item
                   in
                   {
                     Plan.fn =
                       (match fn with
                       | Sqlfe.Ast.Count -> Plan.Count
                       | Sqlfe.Ast.Sum -> Plan.Sum
                       | Sqlfe.Ast.Avg -> Plan.Avg
                       | Sqlfe.Ast.Min -> Plan.Min
                       | Sqlfe.Ast.Max -> Plan.Max);
                     arg;
                     out_name;
                   }
               | _ -> assert false)
      in
      let rows = group_rows env block ~input:rows keys in
      let group_plan = note (Plan.Group { input = plan; keys; aggs }) rows in
      (* project to the select-item order *)
      let exprs =
        List.mapi
          (fun i item ->
            let name = item_output_name i item in
            match item with
            | Sqlfe.Ast.Star ->
                unplannable "SELECT * cannot be combined with GROUP BY"
            | Sqlfe.Ast.Aggregate _ ->
                (Expr.Col { Expr.rel = None; col = name }, name)
            | Sqlfe.Ast.Scalar (e, _) -> (
                match
                  List.find_opt (fun (k, _) -> k = e) keys
                with
                | Some (_, kname) ->
                    (Expr.Col { Expr.rel = None; col = kname }, name)
                | None ->
                    unplannable
                      "select item %s is neither grouped nor aggregated"
                      (Fmt.str "%a" Expr.pp e)))
          items
      in
      ( note (Plan.Project { input = group_plan; exprs }) rows,
        cost +. Cost.group env.params ~rows:joined.card,
        rows,
        List.map snd exprs )
    end
    else if
      List.for_all (function Sqlfe.Ast.Star -> true | _ -> false) items
    then (plan, cost, rows, [])
    else
      let exprs =
        List.mapi
          (fun i item ->
            match item with
            | Sqlfe.Ast.Scalar (e, _) -> (e, item_output_name i item)
            | Sqlfe.Ast.Star ->
                unplannable "mixing * with explicit select items"
            | Sqlfe.Ast.Aggregate _ -> assert false)
          items
      in
      ( note (Plan.Project { input = plan; exprs }) rows,
        cost,
        rows,
        List.map snd exprs )
  in
  (* HAVING: a filter over the projected output, referencing output
     column names *)
  let plan, rows =
    match block.Logical.having with
    | Expr.Ptrue -> (plan, rows)
    | p ->
        if output_names = [] then
          unplannable "HAVING requires explicit select items"
        else
          let rows =
            rows *. Selectivity.cross_selectivity senv block (Expr.conjuncts p)
          in
          (note (Plan.Filter { input = plan; pred = p }) rows, rows)
  in
  let plan =
    if block.Logical.distinct then note (Plan.Distinct plan) rows else plan
  in
  (* ordering *)
  let plan, cost =
    match block.Logical.order_by with
    | [] -> (plan, cost)
    | order ->
        let keys =
          List.map
            (fun (o : Sqlfe.Ast.order_item) ->
              let key =
                if output_names = [] then o.Sqlfe.Ast.key (* SELECT * *)
                else
                  (* the key must name or equal a select item *)
                  let matched =
                    List.exists
                      (fun n ->
                        match o.Sqlfe.Ast.key with
                        | Expr.Col r ->
                            r.Expr.rel = None && norm r.Expr.col = norm n
                        | _ -> false)
                      output_names
                  in
                  if matched then o.Sqlfe.Ast.key
                  else
                    (* try structural match against the item exprs *)
                    let rec find i items =
                      match items with
                      | [] ->
                          unplannable
                            "ORDER BY key %s not available in select list"
                            (Fmt.str "%a" Expr.pp o.Sqlfe.Ast.key)
                      | Sqlfe.Ast.Scalar (e, _) :: _ when e = o.Sqlfe.Ast.key
                        ->
                          Expr.Col
                            { Expr.rel = None; col = List.nth output_names i }
                      | _ :: tl -> find (i + 1) tl
                    in
                    find 0 block.Logical.items
              in
              { Plan.key; asc = o.Sqlfe.Ast.asc })
            order
        in
        ( note (Plan.Sort { input = plan; keys }) rows,
          cost +. Cost.sort env.params ~rows:joined.card )
  in
  let plan =
    match block.Logical.limit with
    | Some n ->
        note (Plan.Limit { input = plan; n }) (Float.min rows (float_of_int n))
    | None -> plan
  in
  (plan, cost, !ests)

let rec plan_query env (q : Logical.t) : Plan.t * float * estimates =
  match q with
  | Logical.Block b -> plan_block env b
  | Logical.Union branches ->
      let planned = List.map (plan_query env) branches in
      let union = Plan.Union_all (List.map (fun (p, _, _) -> p) planned) in
      let rows =
        List.fold_left
          (fun acc (p, _, ests) -> acc +. List.assq p ests)
          0.0 planned
      in
      ( union,
        List.fold_left (fun acc (_, c, _) -> acc +. c) 0.0 planned,
        (union, rows) :: List.concat_map (fun (_, _, ests) -> ests) planned )
