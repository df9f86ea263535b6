(* Logical query representation: select-project-join blocks with decorated
   predicates, possibly unioned.

   Every conjunct carries its provenance.  [estimation_only] predicates —
   the paper's *twinned* predicates (§5.1) — are visible to the
   cardinality model but are never compiled into the physical plan, and
   carry the SSC's confidence.  [Introduced] predicates come from
   semantics-preserving rewrites (valid ASCs / ICs) and *are* executed.
   [Folded] predicates are the exception-union's fast-branch conjuncts:
   executed, but implied by the block under the check they fold, so the
   cardinality model skips them. *)

open Rel

type origin =
  | User
  | Introduced of string (* rule or soft-constraint name *)
  | Folded of string (* exception-union fold of this SC's check *)
  | Twin of string (* SSC name; estimation-only *)

type pred_item = {
  pred : Expr.pred;
  origin : origin;
  estimation_only : bool;
  confidence : float; (* < 1.0 only for twins *)
  replaces : Expr.col_ref option;
    (* for a twin: the column whose user predicates it twins with; the
       blended estimate drops that column's range predicates when the
       twin is taken (paper: "use either the original predicate or the
       new predicate") *)
}

let user_pred pred =
  { pred; origin = User; estimation_only = false; confidence = 1.0;
    replaces = None }

let introduced_pred ~rule pred =
  { pred; origin = Introduced rule; estimation_only = false;
    confidence = 1.0; replaces = None }

let folded_pred ~sc pred =
  { pred; origin = Folded sc; estimation_only = false; confidence = 1.0;
    replaces = None }

let twin_pred ~sc ~confidence ?replaces pred =
  { pred; origin = Twin sc; estimation_only = true; confidence; replaces }

type source = {
  table : string;
  alias : string;
  partitions : int list option;
      (* surviving partitions of a partitioned table; [None] = all *)
}

type block = {
  distinct : bool;
  items : Sqlfe.Ast.select_item list;
  from : source list;
  preds : pred_item list;
  group_by : Expr.t list;
  having : Expr.pred; (* over the grouped output, by output names *)
  order_by : Sqlfe.Ast.order_item list;
  limit : int option;
}

type t = Block of block | Union of t list

exception Unsupported of string

let unsupported fmt =
  Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

(* ---- construction from the AST ---------------------------------------- *)

let of_select (s : Sqlfe.Ast.select) : block =
  let from =
    List.map
      (fun (r : Sqlfe.Ast.table_ref) ->
        { table = r.table;
          alias = Option.value r.alias ~default:r.table;
          partitions = None })
      s.from
  in
  (if from = [] then unsupported "query with empty FROM");
  let seen = Hashtbl.create 8 in
  List.iter
    (fun src ->
      let a = String.lowercase_ascii src.alias in
      if Hashtbl.mem seen a then
        unsupported "duplicate table alias %s" src.alias;
      Hashtbl.add seen a ())
    from;
  {
    distinct = s.distinct;
    items = s.items;
    from;
    preds = List.map user_pred (Expr.conjuncts s.where);
    group_by = s.group_by;
    having = s.having;
    order_by = s.order_by;
    limit = s.limit;
  }

let rec of_query (q : Sqlfe.Ast.query) : t =
  match q with
  | Sqlfe.Ast.Select s -> Block (of_select s)
  | Sqlfe.Ast.Union_all qs -> Union (List.map of_query qs)

(* ---- conversion back to the AST (for display; twins are kept out of
       the executable predicate) ------------------------------------------ *)

let executable_preds block =
  List.filter (fun p -> not p.estimation_only) block.preds

let estimation_preds block =
  List.filter (fun p -> p.estimation_only) block.preds

let is_folded p = match p.origin with Folded _ -> true | _ -> false

let block_to_select (b : block) : Sqlfe.Ast.select =
  {
    Sqlfe.Ast.distinct = b.distinct;
    items = b.items;
    from =
      List.map
        (fun s ->
          {
            Sqlfe.Ast.table = s.table;
            alias = (if s.alias = s.table then None else Some s.alias);
          })
        b.from;
    where = Expr.conjoin (List.map (fun p -> p.pred) (executable_preds b));
    group_by = b.group_by;
    having = b.having;
    order_by = b.order_by;
    limit = b.limit;
  }

let rec to_query = function
  | Block b -> Sqlfe.Ast.Select (block_to_select b)
  | Union ts -> Sqlfe.Ast.Union_all (List.map to_query ts)

(* ---- analysis helpers -------------------------------------------------- *)


let norm = String.lowercase_ascii

let find_source block alias =
  List.find_opt (fun s -> norm s.alias = norm alias) block.from

(* Which sources can a column reference belong to?  Unqualified references
   are matched against the table schemas. *)
let sources_of_col db block (r : Expr.col_ref) : source list =
  match r.Expr.rel with
  | Some q -> (
      match find_source block q with Some s -> [ s ] | None -> [])
  | None ->
      List.filter
        (fun s ->
          match Database.find_table db s.table with
          | None -> false
          | Some tbl -> Schema.find_index (Table.schema tbl) r.Expr.col <> None)
        block.from

(* All column references used by the block outside of [preds] —
   select items (Star expands to "every column of every source"),
   group by, order by. *)
let cols_outside_preds block : [ `Star | `Cols of Expr.col_ref list ] =
  let has_star =
    List.exists (fun i -> i = Sqlfe.Ast.Star) block.items
  in
  if has_star then `Star
  else
    let of_item = function
      | Sqlfe.Ast.Star -> []
      | Sqlfe.Ast.Scalar (e, _) -> Expr.cols_of_expr e
      | Sqlfe.Ast.Aggregate (_, arg, _) ->
          Option.value (Option.map Expr.cols_of_expr arg) ~default:[]
    in
    `Cols
      (List.concat_map of_item block.items
      @ List.concat_map Expr.cols_of_expr block.group_by
      @ List.concat_map
          (fun (o : Sqlfe.Ast.order_item) -> Expr.cols_of_expr o.key)
          block.order_by)

(* Does the block reference [alias] anywhere besides the predicates in
   [except]?  Used by join elimination. *)
let alias_used_outside db block alias ~except =
  let touches_alias cols =
    List.exists
      (fun r ->
        List.exists
          (fun s -> norm s.alias = norm alias)
          (sources_of_col db block r))
      cols
  in
  (match cols_outside_preds block with
  | `Star -> List.length block.from > 1 (* Star uses every source *)
  | `Cols cols -> touches_alias cols)
  ||
  List.exists
    (fun p ->
      (not (List.memq p except)) && touches_alias (Expr.cols_of_pred p.pred))
    block.preds

let pp_pred_item ppf p =
  let tag =
    match p.origin with
    | User -> ""
    | Introduced rule -> Fmt.str " [introduced:%s]" rule
    | Folded sc -> Fmt.str " [folded:%s]" sc
    | Twin sc -> Fmt.str " [twin:%s conf=%.2f]" sc p.confidence
  in
  Fmt.pf ppf "%a%s" Expr.pp_pred p.pred tag

let rec pp ppf = function
  | Block b ->
      Fmt.pf ppf "Block from=%a preds=[%a]"
        (Fmt.list ~sep:(Fmt.any ", ") (fun ppf s ->
             if s.alias = s.table then Fmt.string ppf s.table
             else Fmt.pf ppf "%s %s" s.table s.alias))
        b.from
        (Fmt.list ~sep:(Fmt.any "; ") pp_pred_item)
        b.preds
  | Union ts ->
      Fmt.pf ppf "Union(@[%a@])" (Fmt.list ~sep:(Fmt.any ",@ ") pp) ts
