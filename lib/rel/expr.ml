(* Scalar expressions and predicates over named column references.

   This is the lingua franca of the whole system: SQL parses into it, check
   and soft constraints are stated in it, the optimizer rewrites it, and
   the executor compiles it against a concrete tuple layout ({!Binding}).

   Predicates evaluate under SQL three-valued logic ({!Value.truth}). *)

type col_ref = { rel : string option; col : string }

let col ?rel name = { rel; col = name }

let col_ref_equal a b =
  String.lowercase_ascii a.col = String.lowercase_ascii b.col
  &&
  match (a.rel, b.rel) with
  | None, _ | _, None -> true (* unqualified matches any qualifier *)
  | Some x, Some y -> String.lowercase_ascii x = String.lowercase_ascii y

let pp_col_ref ppf r =
  match r.rel with
  | None -> Fmt.string ppf r.col
  | Some q -> Fmt.pf ppf "%s.%s" q r.col

type binop = Add | Sub | Mul | Div

type t =
  | Const of Value.t
  | Col of col_ref
  | Binop of binop * t * t
  | Neg of t

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type pred =
  | Cmp of cmp * t * t
  | Between of t * t * t (* expr BETWEEN lo AND hi *)
  | In_list of t * Value.t list
  | Is_null of t
  | Is_not_null of t
  | And of pred * pred
  | Or of pred * pred
  | Not of pred
  | Ptrue
  | Pfalse

(* -------------------------------------------------------------------- *)
(* Constructors & structural helpers *)

let const v = Const v
let int i = Const (Value.Int i)
let str s = Const (Value.String s)
let date d = Const (Value.Date d)
let column ?rel name = Col (col ?rel name)

let cmp_flip = function
  | Eq -> Eq
  | Ne -> Ne
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le

let rec conjuncts = function
  | And (a, b) -> conjuncts a @ conjuncts b
  | Ptrue -> []
  | p -> [ p ]

let conjoin = function
  | [] -> Ptrue
  | p :: ps -> List.fold_left (fun acc q -> And (acc, q)) p ps

let rec cols_of_expr = function
  | Const _ -> []
  | Col r -> [ r ]
  | Binop (_, a, b) -> cols_of_expr a @ cols_of_expr b
  | Neg a -> cols_of_expr a

let rec cols_of_pred = function
  | Cmp (_, a, b) -> cols_of_expr a @ cols_of_expr b
  | Between (a, lo, hi) -> cols_of_expr a @ cols_of_expr lo @ cols_of_expr hi
  | In_list (a, _) -> cols_of_expr a
  | Is_null a | Is_not_null a -> cols_of_expr a
  | And (p, q) | Or (p, q) -> cols_of_pred p @ cols_of_pred q
  | Not p -> cols_of_pred p
  | Ptrue | Pfalse -> []

(* Substitute column references (used by rewrites to requalify). *)
let rec map_cols_expr f = function
  | Const v -> Const v
  | Col r -> Col (f r)
  | Binop (op, a, b) -> Binop (op, map_cols_expr f a, map_cols_expr f b)
  | Neg a -> Neg (map_cols_expr f a)

let rec map_cols_pred f = function
  | Cmp (c, a, b) -> Cmp (c, map_cols_expr f a, map_cols_expr f b)
  | Between (a, lo, hi) ->
      Between (map_cols_expr f a, map_cols_expr f lo, map_cols_expr f hi)
  | In_list (a, vs) -> In_list (map_cols_expr f a, vs)
  | Is_null a -> Is_null (map_cols_expr f a)
  | Is_not_null a -> Is_not_null (map_cols_expr f a)
  | And (p, q) -> And (map_cols_pred f p, map_cols_pred f q)
  | Or (p, q) -> Or (map_cols_pred f p, map_cols_pred f q)
  | Not p -> Not (map_cols_pred f p)
  | (Ptrue | Pfalse) as p -> p

(* -------------------------------------------------------------------- *)
(* Pretty-printing (SQL-ish) *)

let string_of_binop = function Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"

let string_of_cmp = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let rec pp ppf = function
  | Const v -> Value.pp ppf v
  | Col r -> pp_col_ref ppf r
  | Binop (op, a, b) ->
      Fmt.pf ppf "(%a %s %a)" pp a (string_of_binop op) pp b
  | Neg a -> Fmt.pf ppf "(-%a)" pp a

let rec pp_pred ppf = function
  | Cmp (c, a, b) -> Fmt.pf ppf "%a %s %a" pp a (string_of_cmp c) pp b
  | Between (a, lo, hi) ->
      Fmt.pf ppf "%a BETWEEN %a AND %a" pp a pp lo pp hi
  | In_list (a, vs) ->
      Fmt.pf ppf "%a IN (%a)" pp a
        (Fmt.list ~sep:(Fmt.any ", ") Value.pp)
        vs
  | Is_null a -> Fmt.pf ppf "%a IS NULL" pp a
  | Is_not_null a -> Fmt.pf ppf "%a IS NOT NULL" pp a
  | And (p, q) -> Fmt.pf ppf "(%a AND %a)" pp_pred p pp_pred q
  | Or (p, q) -> Fmt.pf ppf "(%a OR %a)" pp_pred p pp_pred q
  | Not p -> Fmt.pf ppf "NOT (%a)" pp_pred p
  | Ptrue -> Fmt.string ppf "TRUE"
  | Pfalse -> Fmt.string ppf "FALSE"

let to_string_pred p = Fmt.str "%a" pp_pred p

(* -------------------------------------------------------------------- *)
(* Compilation against a tuple layout *)

module Binding = struct
  (* The layout of a tuple flowing through an operator: for each position,
     the qualifier (table name or alias) and column name that produced it,
     plus its declared type when known. *)
  type slot = {
    qualifier : string option;
    name : string;
    dtype : Value.dtype option;
  }

  type t = slot array

  let of_schema ?alias (schema : Schema.t) : t =
    let qualifier = Some (Option.value alias ~default:schema.Schema.table) in
    Array.map
      (fun c ->
        { qualifier; name = c.Schema.name; dtype = Some c.Schema.dtype })
      schema.Schema.columns

  let concat (a : t) (b : t) : t = Array.append a b

  let arity (t : t) = Array.length t

  let slot_matches r (s : slot) =
    String.lowercase_ascii s.name = String.lowercase_ascii r.col
    &&
    match r.rel with
    | None -> true
    | Some q -> (
        match s.qualifier with
        | None -> false
        | Some sq -> String.lowercase_ascii sq = String.lowercase_ascii q)

  exception Unresolved of col_ref
  exception Ambiguous of col_ref

  let resolve (t : t) r =
    let hits = ref [] in
    Array.iteri (fun i s -> if slot_matches r s then hits := i :: !hits) t;
    match !hits with
    | [ i ] -> i
    | [] -> raise (Unresolved r)
    | _ :: _ :: _ ->
        (* allow the same physical column exposed twice only if identical
           name+qualifier would be a layout bug; report ambiguity *)
        raise (Ambiguous r)

  let resolve_opt t r = try Some (resolve t r) with Unresolved _ -> None

  let pp ppf (t : t) =
    Fmt.pf ppf "[%a]"
      (Fmt.array ~sep:(Fmt.any "; ") (fun ppf s ->
           match s.qualifier with
           | None -> Fmt.string ppf s.name
           | Some q -> Fmt.pf ppf "%s.%s" q s.name))
      t
end

let rec eval (binding : Binding.t) e (row : Tuple.t) : Value.t =
  match e with
  | Const v -> v
  | Col r -> Tuple.get row (Binding.resolve binding r)
  | Binop (op, a, b) -> (
      let va = eval binding a row and vb = eval binding b row in
      match op with
      | Add -> Value.add va vb
      | Sub -> Value.sub va vb
      | Mul -> Value.mul va vb
      | Div -> Value.div va vb)
  | Neg a -> Value.neg (eval binding a row)

let rec eval_pred (binding : Binding.t) p (row : Tuple.t) : Value.truth =
  match p with
  | Ptrue -> Value.True
  | Pfalse -> Value.False
  | Cmp (c, a, b) -> (
      let va = eval binding a row and vb = eval binding b row in
      match Value.compare_sql va vb with
      | None -> Value.Unknown
      | Some n ->
          Value.truth_of_bool
            (match c with
            | Eq -> n = 0
            | Ne -> n <> 0
            | Lt -> n < 0
            | Le -> n <= 0
            | Gt -> n > 0
            | Ge -> n >= 0))
  | Between (a, lo, hi) ->
      eval_pred binding (And (Cmp (Ge, a, lo), Cmp (Le, a, hi))) row
  | In_list (a, vs) ->
      let va = eval binding a row in
      if Value.is_null va then Value.Unknown
      else if List.exists (fun v -> Value.equal_total va v) vs then Value.True
      else if List.exists Value.is_null vs then Value.Unknown
      else Value.False
  | Is_null a -> Value.truth_of_bool (Value.is_null (eval binding a row))
  | Is_not_null a ->
      Value.truth_of_bool (not (Value.is_null (eval binding a row)))
  | And (p, q) ->
      Value.truth_and (eval_pred binding p row) (eval_pred binding q row)
  | Or (p, q) ->
      Value.truth_or (eval_pred binding p row) (eval_pred binding q row)
  | Not p -> Value.truth_not (eval_pred binding p row)

(* Compiled forms: column references are resolved to positions once, so the
   per-row cost is a closure call rather than a binding search.  The
   executor uses these on every operator. *)

let rec compile (binding : Binding.t) e : Tuple.t -> Value.t =
  match e with
  | Const v -> fun _ -> v
  | Col r ->
      let i = Binding.resolve binding r in
      fun row -> Tuple.get row i
  | Binop (op, a, b) ->
      let fa = compile binding a and fb = compile binding b in
      let g =
        match op with
        | Add -> Value.add
        | Sub -> Value.sub
        | Mul -> Value.mul
        | Div -> Value.div
      in
      fun row -> g (fa row) (fb row)
  | Neg a ->
      let fa = compile binding a in
      fun row -> Value.neg (fa row)

(* Compiled predicates are the executor's per-row path, so they allocate
   nothing per row and stop early:

   - a comparison yields its truth value straight from
     [Value.compare_total] after the NULL test (no [compare_sql] option);
   - a column against a constant, and BETWEEN, are one closure each;
   - arithmetic over INT and DATE operands ([ship_date - order_date])
     runs on unboxed ints ({!int_path}), falling back to the boxed path on
     a row where an operand is NULL or not of its column's type;
   - AND stops at the first FALSE and OR at the first TRUE, left to right.

   Three-valued logic is unchanged.  Short-circuiting does change one
   thing: a [Value.Type_error] raised by the operand after a FALSE
   conjunct (TRUE disjunct) is never evaluated, so it does not surface,
   where {!eval_pred} evaluates both sides and raises. *)

let cmp_holds c n =
  match c with
  | Eq -> n = 0
  | Ne -> n <> 0
  | Lt -> n < 0
  | Le -> n <= 0
  | Gt -> n > 0
  | Ge -> n >= 0

let int_holds c (x : int) (y : int) =
  match c with
  | Eq -> x = y
  | Ne -> x <> y
  | Lt -> x < y
  | Le -> x <= y
  | Gt -> x > y
  | Ge -> x >= y

let cmp_truth c a b =
  match (a, b) with
  | Value.Null, _ | _, Value.Null -> Value.Unknown
  | _ -> Value.truth_of_bool (cmp_holds c (Value.compare_total a b))

(* [lo <= a <= hi] under three-valued logic: AND of the two comparisons *)
let between_truth a lo hi =
  match a with
  | Value.Null -> Value.Unknown
  | _ -> (
      match (cmp_truth Ge a lo, cmp_truth Le a hi) with
      | Value.False, _ | _, Value.False -> Value.False
      | Value.True, Value.True -> Value.True
      | _ -> Value.Unknown)

exception Not_int

(* The unboxed path of an expression built from INT and DATE columns and
   constants under [+], [-], [*] and unary minus: its kind (an INT, or a
   DATE as an epoch day) and a closure computing its value as an [int].
   The closure raises [Not_int] on a row where a column holds anything
   but its declared kind (NULL, say); the caller then evaluates the boxed
   path, so a wrong declared type costs speed, never an answer.  The
   kinds follow {!Value.add}/{!Value.sub}: DATE +/- INT is a DATE, DATE -
   DATE is an INT; other mixes have no unboxed path. *)
type int_kind = K_int | K_date

let rec int_path (binding : Binding.t) e : (int_kind * (Tuple.t -> int)) option
    =
  match e with
  | Const (Value.Int k) -> Some (K_int, fun _ -> k)
  | Const (Value.Date d) -> Some (K_date, fun _ -> d)
  | Const _ -> None
  | Col r -> (
      let i = Binding.resolve binding r in
      match binding.(i).Binding.dtype with
      | Some Value.TInt ->
          Some
            ( K_int,
              fun row ->
                match Tuple.get row i with
                | Value.Int x -> x
                | _ -> raise_notrace Not_int )
      | Some Value.TDate ->
          Some
            ( K_date,
              fun row ->
                match Tuple.get row i with
                | Value.Date x -> x
                | _ -> raise_notrace Not_int )
      | _ -> None)
  | Binop (op, a, b) -> (
      match (int_path binding a, int_path binding b) with
      | Some (ka, fa), Some (kb, fb) -> (
          let kind =
            match (op, ka, kb) with
            | (Add | Sub | Mul), K_int, K_int -> Some K_int
            | Add, K_date, K_int | Add, K_int, K_date | Sub, K_date, K_int ->
                Some K_date
            | Sub, K_date, K_date -> Some K_int
            | _ -> None
          in
          match (kind, op) with
          | Some k, Add -> Some (k, fun row -> fa row + fb row)
          | Some k, Sub -> Some (k, fun row -> fa row - fb row)
          | Some k, Mul -> Some (k, fun row -> fa row * fb row)
          | _ -> None)
      | _ -> None)
  | Neg a -> (
      match int_path binding a with
      | Some (K_int, fa) -> Some (K_int, fun row -> -fa row)
      | _ -> None)

(* [Some n] when [e] is an INT or DATE constant of kind [k] *)
let int_const k e =
  match (k, e) with
  | K_int, Const (Value.Int n) | K_date, Const (Value.Date n) -> Some n
  | _ -> None

let compile_cmp (binding : Binding.t) c a b : Tuple.t -> Value.truth =
  let boxed =
    match (a, b) with
    | Col r, Const v ->
        let i = Binding.resolve binding r in
        fun row -> cmp_truth c (Tuple.get row i) v
    | Const v, Col r ->
        let i = Binding.resolve binding r in
        fun row -> cmp_truth c v (Tuple.get row i)
    | _ ->
        let fa = compile binding a and fb = compile binding b in
        fun row -> cmp_truth c (fa row) (fb row)
  in
  match (int_path binding a, int_path binding b) with
  | Some (ka, fa), Some (kb, fb) when ka = kb -> (
      match int_const kb b with
      | Some y -> (
          fun row ->
            match fa row with
            | x -> Value.truth_of_bool (int_holds c x y)
            | exception Not_int -> boxed row)
      | None -> (
          fun row ->
            match int_holds c (fa row) (fb row) with
            | holds -> Value.truth_of_bool holds
            | exception Not_int -> boxed row))
  | _ -> boxed

let compile_between (binding : Binding.t) a lo hi : Tuple.t -> Value.truth =
  let fa = compile binding a
  and flo = compile binding lo
  and fhi = compile binding hi in
  let boxed row = between_truth (fa row) (flo row) (fhi row) in
  match (int_path binding a, int_path binding lo, int_path binding hi) with
  | Some (k, ia), Some (klo, ilo), Some (khi, ihi) when k = klo && k = khi
    -> (
      match (int_const k lo, int_const k hi) with
      | Some l, Some h -> (
          fun row ->
            match ia row with
            | x -> Value.truth_of_bool (l <= x && x <= h)
            | exception Not_int -> boxed row)
      | _ -> (
          fun row ->
            match
              let x = ia row in
              ilo row <= x && x <= ihi row
            with
            | holds -> Value.truth_of_bool holds
            | exception Not_int -> boxed row))
  | _ -> boxed

let rec mem_total v = function
  | [] -> false
  | w :: rest -> Value.equal_total v w || mem_total v rest

let rec compile_pred (binding : Binding.t) p : Tuple.t -> Value.truth =
  match p with
  | Ptrue -> fun _ -> Value.True
  | Pfalse -> fun _ -> Value.False
  | Cmp (c, a, b) -> compile_cmp binding c a b
  | Between (a, lo, hi) -> compile_between binding a lo hi
  | In_list (a, vs) ->
      let fa = compile binding a in
      let has_null = List.exists Value.is_null vs in
      fun row ->
        let va = fa row in
        if Value.is_null va then Value.Unknown
        else if mem_total va vs then Value.True
        else if has_null then Value.Unknown
        else Value.False
  | Is_null a ->
      let fa = compile binding a in
      fun row -> Value.truth_of_bool (Value.is_null (fa row))
  | Is_not_null a ->
      let fa = compile binding a in
      fun row -> Value.truth_of_bool (not (Value.is_null (fa row)))
  | And (p, q) -> (
      let fp = compile_pred binding p and fq = compile_pred binding q in
      fun row ->
        match fp row with
        | Value.False -> Value.False
        | tp -> ( match fq row with Value.True -> tp | tq -> tq))
  | Or (p, q) -> (
      let fp = compile_pred binding p and fq = compile_pred binding q in
      fun row ->
        match fp row with
        | Value.True -> Value.True
        | tp -> ( match fq row with Value.False -> tp | tq -> tq))
  | Not p ->
      let fp = compile_pred binding p in
      fun row -> Value.truth_not (fp row)

let compile_filter binding p =
  let fp = compile_pred binding p in
  fun row -> match fp row with Value.True -> true | _ -> false

(* A predicate *satisfies* a row when it evaluates to [True]; SQL WHERE
   discards both [False] and [Unknown]. *)
let satisfies binding p row = Value.truth_to_bool (eval_pred binding p row)

(* Check-constraint semantics differ: a row *violates* a check only when
   the predicate is [False]; [Unknown] passes (SQL standard). *)
let check_violated binding p row =
  match eval_pred binding p row with
  | Value.False -> true
  | Value.True | Value.Unknown -> false
