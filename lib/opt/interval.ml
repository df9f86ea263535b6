(* Interval reasoning over predicates: constant folding, substitution of
   equality-bound columns, extraction of per-column ranges from conjuncts,
   and satisfiability tests.  This is the machinery behind predicate
   introduction (folding a check constraint against query constants),
   union-all branch pruning, and join-hole range trimming. *)

open Rel

(* ---- constant folding & substitution ----------------------------------- *)

let apply_binop op a b =
  match op with
  | Expr.Add -> Value.add a b
  | Expr.Sub -> Value.sub a b
  | Expr.Mul -> Value.mul a b
  | Expr.Div -> Value.div a b

let rec fold_expr (e : Expr.t) : Expr.t =
  match e with
  | Expr.Const _ | Expr.Col _ -> e
  | Expr.Binop (op, a, b) -> (
      match (fold_expr a, fold_expr b) with
      | Expr.Const x, Expr.Const y -> (
          try Expr.Const (apply_binop op x y)
          with Value.Type_error _ -> Expr.Binop (op, Expr.Const x, Expr.Const y))
      | a', b' -> Expr.Binop (op, a', b'))
  | Expr.Neg a -> (
      match fold_expr a with
      | Expr.Const x -> (
          try Expr.Const (Value.neg x)
          with Value.Type_error _ -> Expr.Neg (Expr.Const x))
      | a' -> Expr.Neg a')

(* Substitute column references by expressions ([None] = leave). *)
let rec subst_expr (f : Expr.col_ref -> Expr.t option) (e : Expr.t) : Expr.t =
  match e with
  | Expr.Const _ -> e
  | Expr.Col r -> ( match f r with Some e' -> e' | None -> e)
  | Expr.Binop (op, a, b) -> Expr.Binop (op, subst_expr f a, subst_expr f b)
  | Expr.Neg a -> Expr.Neg (subst_expr f a)

let rec subst_pred f (p : Expr.pred) : Expr.pred =
  match p with
  | Expr.Cmp (c, a, b) -> Expr.Cmp (c, subst_expr f a, subst_expr f b)
  | Expr.Between (a, lo, hi) ->
      Expr.Between (subst_expr f a, subst_expr f lo, subst_expr f hi)
  | Expr.In_list (a, vs) -> Expr.In_list (subst_expr f a, vs)
  | Expr.Is_null a -> Expr.Is_null (subst_expr f a)
  | Expr.Is_not_null a -> Expr.Is_not_null (subst_expr f a)
  | Expr.And (p, q) -> Expr.And (subst_pred f p, subst_pred f q)
  | Expr.Or (p, q) -> Expr.Or (subst_pred f p, subst_pred f q)
  | Expr.Not p -> Expr.Not (subst_pred f p)
  | Expr.Ptrue | Expr.Pfalse -> p

(* Fold a predicate: fold sub-expressions, decide constant comparisons,
   and simplify boolean structure.  Comparisons over NULL fold to false
   (for WHERE purposes, Unknown filters like False). *)
let rec simplify_pred (p : Expr.pred) : Expr.pred =
  match p with
  | Expr.Cmp (c, a, b) -> (
      match (fold_expr a, fold_expr b) with
      | Expr.Const x, Expr.Const y -> (
          match Value.compare_sql x y with
          | None -> Expr.Pfalse
          | Some n ->
              let holds =
                match c with
                | Expr.Eq -> n = 0
                | Expr.Ne -> n <> 0
                | Expr.Lt -> n < 0
                | Expr.Le -> n <= 0
                | Expr.Gt -> n > 0
                | Expr.Ge -> n >= 0
              in
              if holds then Expr.Ptrue else Expr.Pfalse)
      | a', b' -> Expr.Cmp (c, a', b'))
  | Expr.Between (a, lo, hi) -> (
      let a' = fold_expr a and lo' = fold_expr lo and hi' = fold_expr hi in
      match (a', lo', hi') with
      | Expr.Const _, Expr.Const _, Expr.Const _ ->
          simplify_pred
            (Expr.And (Expr.Cmp (Expr.Ge, a', lo'), Expr.Cmp (Expr.Le, a', hi')))
      | _ -> Expr.Between (a', lo', hi'))
  | Expr.In_list (a, vs) -> Expr.In_list (fold_expr a, vs)
  | Expr.Is_null a -> Expr.Is_null (fold_expr a)
  | Expr.Is_not_null a -> Expr.Is_not_null (fold_expr a)
  | Expr.And (p, q) -> (
      match (simplify_pred p, simplify_pred q) with
      | Expr.Pfalse, _ | _, Expr.Pfalse -> Expr.Pfalse
      | Expr.Ptrue, q' -> q'
      | p', Expr.Ptrue -> p'
      | p', q' -> Expr.And (p', q'))
  | Expr.Or (p, q) -> (
      match (simplify_pred p, simplify_pred q) with
      | Expr.Ptrue, _ | _, Expr.Ptrue -> Expr.Ptrue
      | Expr.Pfalse, q' -> q'
      | p', Expr.Pfalse -> p'
      | p', q' -> Expr.Or (p', q'))
  | Expr.Not p -> (
      match simplify_pred p with
      | Expr.Ptrue -> Expr.Pfalse
      | Expr.Pfalse -> Expr.Ptrue
      | p' -> Expr.Not p')
  | Expr.Ptrue | Expr.Pfalse -> p

(* ---- intervals ---------------------------------------------------------- *)

type endpoint = { v : Value.t; incl : bool }

type t = { lo : endpoint option; hi : endpoint option }
(* [None] endpoint = unbounded on that side *)

let full = { lo = None; hi = None }

let point v = { lo = Some { v; incl = true }; hi = Some { v; incl = true } }

let is_full t = t.lo = None && t.hi = None

let tighter_lo a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some x, Some y ->
      let c = Value.compare_total x.v y.v in
      if c > 0 then Some x
      else if c < 0 then Some y
      else Some { v = x.v; incl = x.incl && y.incl }

let tighter_hi a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some x, Some y ->
      let c = Value.compare_total x.v y.v in
      if c < 0 then Some x
      else if c > 0 then Some y
      else Some { v = x.v; incl = x.incl && y.incl }

let intersect a b = { lo = tighter_lo a.lo b.lo; hi = tighter_hi a.hi b.hi }

let is_empty t =
  match (t.lo, t.hi) with
  | Some lo, Some hi -> (
      match Value.compare_total lo.v hi.v with
      | c when c > 0 -> true
      | 0 -> not (lo.incl && hi.incl)
      | _ -> false)
  | _ -> false

(* a ⊇ b *)
let contains a b =
  let lo_ok =
    match (a.lo, b.lo) with
    | None, _ -> true
    | Some _, None -> false
    | Some x, Some y -> (
        match Value.compare_total x.v y.v with
        | c when c < 0 -> true
        | 0 -> x.incl || not y.incl
        | _ -> false)
  in
  let hi_ok =
    match (a.hi, b.hi) with
    | None, _ -> true
    | Some _, None -> false
    | Some x, Some y -> (
        match Value.compare_total x.v y.v with
        | c when c > 0 -> true
        | 0 -> x.incl || not y.incl
        | _ -> false)
  in
  lo_ok && hi_ok

(* ---- extraction from conjuncts ------------------------------------------ *)

(* Isolate the single column of a linear comparison: rewrite shapes like
   [const − col ≤ v], [col + const > v], [col − const BETWEEN a AND b]
   into [col cmp const'] using value arithmetic (which understands date ±
   days).  Returns the predicate unchanged when no isolation applies. *)
let rec isolate_cmp c lhs (v : Value.t) : (Expr.cmp * Expr.col_ref * Value.t) option =
  match lhs with
  | Expr.Col r -> Some (c, r, v)
  | Expr.Binop (Expr.Sub, e, Expr.Const k) -> (
      (* e − k cmp v  ⟺  e cmp v + k *)
      try isolate_cmp c e (Value.add v k) with Value.Type_error _ -> None)
  | Expr.Binop (Expr.Sub, Expr.Const k, e) -> (
      (* k − e cmp v  ⟺  e cmp' k − v *)
      try isolate_cmp (Expr.cmp_flip c) e (Value.sub k v)
      with Value.Type_error _ -> None)
  | Expr.Binop (Expr.Add, e, Expr.Const k)
  | Expr.Binop (Expr.Add, Expr.Const k, e) -> (
      try isolate_cmp c e (Value.sub v k) with Value.Type_error _ -> None)
  | Expr.Neg e -> (
      try isolate_cmp (Expr.cmp_flip c) e (Value.neg v)
      with Value.Type_error _ -> None)
  | Expr.Binop (Expr.Mul, Expr.Const k, e)
  | Expr.Binop (Expr.Mul, e, Expr.Const k) -> (
      (* k·e cmp v ⟺ e cmp v/k (k > 0) or flipped (k < 0); integer division
         would lose precision, so only fold when both are floats *)
      match (k, v) with
      | Value.Float kf, (Value.Float _ | Value.Int _) when kf <> 0.0 ->
          let v' = Value.Float (Value.float_exn v /. kf) in
          isolate_cmp (if kf > 0.0 then c else Expr.cmp_flip c) e v'
      | _ -> None)
  | _ -> None

(* Recognize a single-column range conjunct (after isolation).  Returns
   the column and the interval it imposes; conjuncts of any other shape
   are not range-recognizable. *)
let rec of_pred (p : Expr.pred) : (Expr.col_ref * t) option =
  let mk_cmp c r v =
    match c with
    | Expr.Eq -> Some (r, point v)
    | Expr.Lt -> Some (r, { lo = None; hi = Some { v; incl = false } })
    | Expr.Le -> Some (r, { lo = None; hi = Some { v; incl = true } })
    | Expr.Gt -> Some (r, { lo = Some { v; incl = false }; hi = None })
    | Expr.Ge -> Some (r, { lo = Some { v; incl = true }; hi = None })
    | Expr.Ne -> None
  in
  match simplify_pred p with
  | Expr.Cmp (c, lhs, Expr.Const v) -> (
      match isolate_cmp c lhs v with
      | Some (c', r, v') -> mk_cmp c' r v'
      | None -> None)
  | Expr.Cmp (c, Expr.Const v, rhs) -> (
      match isolate_cmp (Expr.cmp_flip c) rhs v with
      | Some (c', r, v') -> mk_cmp c' r v'
      | None -> None)
  | Expr.Between (Expr.Col r, Expr.Const lo, Expr.Const hi) ->
      Some
        (r, { lo = Some { v = lo; incl = true }; hi = Some { v = hi; incl = true } })
  | Expr.Between (e, Expr.Const lo, Expr.Const hi) -> (
      (* decompose, isolate each side, and re-merge when both land on the
         same column *)
      match
        ( of_pred (Expr.Cmp (Expr.Ge, e, Expr.Const lo)),
          of_pred (Expr.Cmp (Expr.Le, e, Expr.Const hi)) )
      with
      | Some (r1, iv1), Some (r2, iv2) when Expr.col_ref_equal r1 r2 ->
          Some (r1, intersect iv1 iv2)
      | _ -> None)
  | Expr.And (p, q) -> (
      (* a conjunction of two ranges on the same column is a range *)
      match (of_pred p, of_pred q) with
      | Some (r1, iv1), Some (r2, iv2) when Expr.col_ref_equal r1 r2 ->
          Some (r1, intersect iv1 iv2)
      | _ -> None)
  | _ -> None


(* Rebuild the predicate a (column, interval) pair denotes. *)
let to_pred (r : Expr.col_ref) (t : t) : Expr.pred =
  let col = Expr.Col r in
  match (t.lo, t.hi) with
  | None, None -> Expr.Ptrue
  | Some lo, Some hi
    when lo.incl && hi.incl && Value.equal_total lo.v hi.v ->
      Expr.Cmp (Expr.Eq, col, Expr.Const lo.v)
  | Some lo, Some hi when lo.incl && hi.incl ->
      Expr.Between (col, Expr.Const lo.v, Expr.Const hi.v)
  | lo, hi ->
      let lo_pred =
        match lo with
        | None -> Expr.Ptrue
        | Some { v; incl = true } -> Expr.Cmp (Expr.Ge, col, Expr.Const v)
        | Some { v; incl = false } -> Expr.Cmp (Expr.Gt, col, Expr.Const v)
      in
      let hi_pred =
        match hi with
        | None -> Expr.Ptrue
        | Some { v; incl = true } -> Expr.Cmp (Expr.Le, col, Expr.Const v)
        | Some { v; incl = false } -> Expr.Cmp (Expr.Lt, col, Expr.Const v)
      in
      Expr.conjoin (Expr.conjuncts lo_pred @ Expr.conjuncts hi_pred)

(* Isolated single-column form of a conjunct, for display and so that
   introduced predicates are visibly sargable: [col BETWEEN a AND b] etc.
   when recognizable, the input otherwise. *)
let normalize (p : Expr.pred) : Expr.pred =
  match of_pred p with Some (r, iv) -> to_pred r iv | None -> p

(* Per-column interval summary of a conjunct list.  [key_of] canonicalizes
   column references (e.g. resolves aliases); conjuncts that are not
   single-column ranges are returned as residuals. *)
let summarize ~key_of (preds : Expr.pred list) :
    (string * (Expr.col_ref * t)) list * Expr.pred list =
  let table : (string, Expr.col_ref * t) Hashtbl.t = Hashtbl.create 8 in
  let residual = ref [] in
  List.iter
    (fun p ->
      match of_pred p with
      | Some (r, iv) -> (
          match key_of r with
          | Some key -> (
              match Hashtbl.find_opt table key with
              | Some (r0, iv0) ->
                  Hashtbl.replace table key (r0, intersect iv0 iv)
              | None -> Hashtbl.replace table key (r, iv))
          | None -> residual := p :: !residual)
      | None -> residual := p :: !residual)
    preds;
  let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [] in
  (List.sort (fun (a, _) (b, _) -> String.compare a b) entries,
   List.rev !residual)

(* Is the conjunction of [preds] unsatisfiable by interval reasoning
   alone?  (Sound: [true] really means no row can satisfy them.) *)
let unsatisfiable ~key_of preds =
  let entries, _ = summarize ~key_of preds in
  List.exists (fun (_, (_, iv)) -> is_empty iv) entries
  || List.exists (fun p -> simplify_pred p = Expr.Pfalse) preds

(* Do the [extra] conjuncts (a constraint's) contradict the [query]
   conjuncts?  Only on a key the query itself bounds: a query range
   rejects NULL there, while a constraint passes on it.  An OR conjunct
   splits into cases and is refuted only when every case is, each on a
   key that case bounds; a row the query admits satisfies one case.
   Splitting stops at 64 cases: the ORs left stay residual, which is
   sound (fewer conjuncts prove less) and keeps a query of many ORs from
   costing exponential time. *)
let contradicts ~key_of query extra =
  let rec disjuncts = function
    | Expr.Or (p, q) -> disjuncts p @ disjuncts q
    | p -> [ p ]
  in
  let rec go budget query =
    let ors, rest =
      List.partition (function Expr.Or _ -> true | _ -> false) query
    in
    match ors with
    | p :: ors when List.length (disjuncts p) <= budget ->
        let cases = disjuncts p in
        List.for_all
          (fun d ->
            go (budget / List.length cases) (rest @ ors @ Expr.conjuncts d))
          cases
    | _ ->
        let bounded, _ = summarize ~key_of query in
        let all, _ = summarize ~key_of (query @ extra) in
        List.exists
          (fun (key, (_, iv)) -> is_empty iv && List.mem_assoc key bounded)
          all
  in
  go 64 query

(* The equality bindings among conjuncts: column = constant. *)
let const_bindings (preds : Expr.pred list) : (Expr.col_ref * Value.t) list =
  List.filter_map
    (fun p ->
      match simplify_pred p with
      | Expr.Cmp (Expr.Eq, Expr.Col r, Expr.Const v)
      | Expr.Cmp (Expr.Eq, Expr.Const v, Expr.Col r) ->
          Some (r, v)
      | _ -> None)
    preds

let pp_endpoint ppf = function
  | None -> Fmt.string ppf "inf"
  | Some { v; incl } -> Fmt.pf ppf "%a%s" Value.pp v (if incl then "" else "!")

let pp ppf t = Fmt.pf ppf "[%a, %a]" pp_endpoint t.lo pp_endpoint t.hi
