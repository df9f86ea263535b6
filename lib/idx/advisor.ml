(* The index advisor: mine the query log for predicate shapes, combine
   them with what the soft-constraint catalog already knows about the
   data, and rank candidate indexes.

   Two inputs, both plain data so this library stays below core:

   - [queries]: the raw SQL texts of the logged workload (sys.query_log).
     Each is re-parsed here; per SELECT block and per referenced table we
     collect the equality columns, range columns, and every column the
     block needs from that table (the covering target).
   - [hints]: distilled soft-constraint facts.  A [Band] hint says an
     ASC, or an SSC for most rows, bounds the column within a tight band
     — range predicates on it select contiguous key runs, exactly where a
     B+-tree shines.  An [Fd] hint says determinant → dependents holds
     (perhaps softly): appending the dependents to an index keyed on the
     determinant adds no distinct keys, so a covering index is nearly
     free.

   A candidate's key is equality columns first (most selective prefix),
   then range columns; its score is workload frequency × a table-size
   benefit proxy × band/covering multipliers.  Candidates whose key is
   a prefix of an existing readable index are suppressed — the advisor
   recommends work, not inventory. *)

open Rel

type sc_hint =
  | Band of { table : string; column : string; width : float; ssc : bool }
  | Fd of { table : string; determinant : string list;
            dependents : string list }

type candidate = {
  cand_table : string;
  cand_columns : string list; (* equality columns first, then range *)
  cand_covering : bool;
  cand_score : float;
  cand_queries : int; (* workload statements this candidate serves *)
  cand_reason : string;
}

let norm = String.lowercase_ascii

(* Only base tables can carry indexes — and looking a table up through
   {!Database.find_table} materializes virtual ones, which must never
   happen here: the sys.index_advisor generator itself calls the
   advisor, so touching a sys.* view from this module would recurse. *)
let base_table db name =
  if List.exists (fun n -> norm n = name) (Database.table_names db) then
    Database.find_table db name
  else None

(* --- workload mining ---------------------------------------------------- *)

(* What one SELECT block wants from one base table. *)
(* @guarded-by none: per-call mining accumulator, confined to the
   advising thread *)
type table_use = {
  use_table : string; (* normalized base-table name *)
  mutable eq_cols : string list;
  mutable range_cols : string list;
  mutable needed : string list; (* every column the block touches *)
}

let add_uniq xs x = if List.mem x xs then xs else xs @ [ x ]

(* Resolve a column reference to (table, column) given the block's
   alias map; unqualified references resolve to the unique table whose
   schema has the column. *)
let resolve db aliases (c : Expr.col_ref) =
  let col = norm c.Expr.col in
  match c.Expr.rel with
  | Some r -> (
      match List.assoc_opt (norm r) aliases with
      | Some table -> Some (table, col)
      | None -> None)
  | None -> (
      let owners =
        List.filter
          (fun (_, table) ->
            match base_table db table with
            | Some t -> Schema.find_index (Table.schema t) col <> None
            | None -> false)
          aliases
      in
      match owners with [ (_, table) ] -> Some (table, col) | _ -> None)

let is_const = function Expr.Const _ -> true | _ -> false

(* Walk one SELECT block, recording uses per table. *)
let mine_select db (s : Sqlfe.Ast.select) =
  let aliases =
    List.map
      (fun (r : Sqlfe.Ast.table_ref) ->
        (norm (Option.value r.alias ~default:r.table), norm r.table))
      s.from
  in
  let uses = Hashtbl.create 4 in
  let use_of table =
    match Hashtbl.find_opt uses table with
    | Some u -> u
    | None ->
        let u =
          { use_table = table; eq_cols = []; range_cols = []; needed = [] }
        in
        Hashtbl.replace uses table u;
        u
  in
  let note_needed (c : Expr.col_ref) =
    match resolve db aliases c with
    | Some (table, col) ->
        let u = use_of table in
        u.needed <- add_uniq u.needed col
    | None -> ()
  in
  let note_expr e = List.iter note_needed (Expr.cols_of_expr e) in
  let note_eq c =
    match resolve db aliases c with
    | Some (table, col) ->
        let u = use_of table in
        u.eq_cols <- add_uniq u.eq_cols col
    | None -> ()
  in
  let note_range c =
    match resolve db aliases c with
    | Some (table, col) ->
        let u = use_of table in
        u.range_cols <- add_uniq u.range_cols col
    | None -> ()
  in
  (* predicates: single-column comparisons against constants are the
     sargable shapes an index can serve; join equalities count for both
     sides (index nested-loop probes). *)
  let rec walk_pred p =
    (match p with
    | Expr.Cmp (Eq, Col a, Col b) ->
        note_eq a;
        note_eq b
    | Expr.Cmp (Eq, Col a, e) when is_const e -> note_eq a
    | Expr.Cmp (Eq, e, Col a) when is_const e -> note_eq a
    | Expr.Cmp ((Lt | Le | Gt | Ge), Col a, e) when is_const e ->
        note_range a
    | Expr.Cmp ((Lt | Le | Gt | Ge), e, Col a) when is_const e ->
        note_range a
    | Expr.Between (Col a, lo, hi) when is_const lo && is_const hi ->
        note_range a
    | Expr.In_list (Col a, _) -> note_eq a
    | _ -> ());
    (* every referenced column counts toward the covering target *)
    (match p with
    | Expr.And (a, b) | Expr.Or (a, b) ->
        walk_pred a;
        walk_pred b
    | Expr.Not a -> walk_pred a
    | Expr.Cmp (_, a, b) ->
        note_expr a;
        note_expr b
    | Expr.Between (a, b, c) ->
        note_expr a;
        note_expr b;
        note_expr c
    | Expr.In_list (a, _) | Expr.Is_null a | Expr.Is_not_null a ->
        note_expr a
    | Expr.Ptrue | Expr.Pfalse -> ())
  in
  walk_pred s.where;
  walk_pred s.having;
  List.iter
    (function
      | Sqlfe.Ast.Star ->
          (* SELECT * needs every column: no index covers it usefully *)
          List.iter
            (fun (_, table) ->
              match base_table db table with
              | Some t ->
                  let u = use_of table in
                  List.iter
                    (fun c -> u.needed <- add_uniq u.needed (norm c))
                    (Schema.column_names (Table.schema t))
              | None -> ())
            aliases
      | Sqlfe.Ast.Scalar (e, _) -> note_expr e
      | Sqlfe.Ast.Aggregate (_, e, _) -> Option.iter note_expr e)
    s.items;
  List.iter note_expr s.group_by;
  List.iter (fun (o : Sqlfe.Ast.order_item) -> note_expr o.key) s.order_by;
  Hashtbl.fold (fun _ u acc -> u :: acc) uses []

let rec mine_query db = function
  | Sqlfe.Ast.Select s -> mine_select db s
  | Sqlfe.Ast.Union_all qs -> List.concat_map (mine_query db) qs

let mine_statement db = function
  | Sqlfe.Ast.Query q | Sqlfe.Ast.Explain q | Sqlfe.Ast.Explain_analyze q ->
      mine_query db q
  | _ -> []

(* --- candidate construction -------------------------------------------- *)

(* @guarded-by none: per-call candidate accumulator, like table_use *)
type accum = {
  mutable freq : int;
  mutable needed_union : string list;
}

let band_hints hints table =
  List.filter_map
    (function
      | Band { table = t; column; ssc; _ } when norm t = table ->
          Some (norm column, ssc)
      | _ -> None)
    hints

let fd_hints hints table =
  List.filter_map
    (function
      | Fd { table = t; determinant; dependents } when norm t = table ->
          Some (List.map norm determinant, List.map norm dependents)
      | _ -> None)
    hints

let subset xs ys = List.for_all (fun x -> List.mem x ys) xs

(* An existing readable index already serving this key prefix? *)
let already_indexed db table key =
  List.exists
    (fun idx ->
      Index.is_readable idx
      && norm (Index.table_name idx) = table
      &&
      let have = List.map norm (Index.columns idx) in
      let rec prefix = function
        | [], _ -> true
        | _, [] -> false
        | k :: ks, h :: hs -> k = h && prefix (ks, hs)
      in
      prefix (key, have))
    (Database.all_indexes db)

let advise db ~queries ~hints =
  let acc : (string * string list, accum) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun sql ->
      match Sqlfe.Parser.parse_statement sql with
      | exception _ -> () (* non-SELECT noise in the log *)
      | stmt ->
          List.iter
            (fun u ->
              let key = u.eq_cols @ u.range_cols in
              if key <> [] then begin
                let slot =
                  match Hashtbl.find_opt acc (u.use_table, key) with
                  | Some a -> a
                  | None ->
                      let a = { freq = 0; needed_union = [] } in
                      Hashtbl.replace acc (u.use_table, key) a;
                      a
                in
                slot.freq <- slot.freq + 1;
                slot.needed_union <-
                  List.fold_left add_uniq slot.needed_union u.needed
              end)
            (mine_statement db stmt))
    queries;
  let candidates =
    Hashtbl.fold
      (fun (table, key) a out ->
        if already_indexed db table key then out
        else begin
          let bands = band_hints hints table in
          let fds = fd_hints hints table in
          let reasons = ref [] in
          let note r = reasons := r :: !reasons in
          (* covering extension: first via FD (free), then directly when
             only a couple of columns are missing *)
          let missing =
            List.filter (fun c -> not (List.mem c key)) a.needed_union
          in
          let fd_cover =
            List.filter
              (fun (det, deps) -> subset det key && deps <> [])
              fds
          in
          let via_fd =
            List.concat_map
              (fun (_, deps) -> List.filter (fun d -> List.mem d missing) deps)
              fd_cover
            |> List.fold_left add_uniq []
          in
          let still_missing =
            List.filter (fun c -> not (List.mem c via_fd)) missing
          in
          let columns, covering =
            if missing = [] then (key, true)
            else if still_missing = [] then begin
              note
                (Printf.sprintf "covering via FD (%s)"
                   (String.concat "," via_fd));
              (key @ via_fd, true)
            end
            else if List.length still_missing <= 2 then begin
              if via_fd <> [] then
                note
                  (Printf.sprintf "covering via FD (%s)"
                     (String.concat "," via_fd));
              note
                (Printf.sprintf "widened by (%s) to cover"
                   (String.concat "," still_missing));
              (key @ via_fd @ still_missing, true)
            end
            else (key, false)
          in
          let banded =
            List.filter (fun c -> List.mem_assoc c bands) key
          in
          (* an ASC's band holds for every row, an SSC's for most: a
             column banded by both reads as the ASC's *)
          let asc, ssc =
            List.partition (fun c -> List.mem (c, false) bands) banded
          in
          List.iter
            (fun (kind, cols) ->
              if cols <> [] then
                note
                  (Printf.sprintf "tight %s band on %s" kind
                     (String.concat "," cols)))
            [ ("ASC", asc); ("SSC", ssc) ];
          let pages =
            match base_table db table with
            | Some t -> Table.pages t
            | None -> 1
          in
          let benefit = log (float_of_int (pages + 1)) /. log 2.0 +. 1.0 in
          let score =
            float_of_int a.freq *. benefit
            *. (if banded <> [] then 1.5 else 1.0)
            *. if covering then 1.25 else 1.0
          in
          let reason =
            Printf.sprintf "%d stmts; key (%s)%s" a.freq
              (String.concat "," key)
              (match List.rev !reasons with
              | [] -> ""
              | rs -> "; " ^ String.concat "; " rs)
          in
          {
            cand_table = table;
            cand_columns = columns;
            cand_covering = covering;
            cand_score = score;
            cand_queries = a.freq;
            cand_reason = reason;
          }
          :: out
        end)
      acc []
  in
  List.sort
    (fun a b ->
      match compare b.cand_score a.cand_score with
      | 0 -> compare (a.cand_table, a.cand_columns)
                     (b.cand_table, b.cand_columns)
      | c -> c)
    candidates
