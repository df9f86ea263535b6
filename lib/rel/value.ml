(* SQL values and their dynamic types.

   [Null] participates in SQL three-valued logic: comparisons against it are
   [Unknown].  For ordering inside indexes and sorts we use a *total* order
   [compare_total] in which [Null] sorts first; predicate evaluation instead
   goes through [compare_sql] which surfaces unknowns. *)

type dtype = TInt | TFloat | TString | TBool | TDate

type t =
  | Null
  | Int of int
  | Float of float
  | String of string
  | Bool of bool
  | Date of Date.t

type truth = True | False | Unknown

let dtype_name = function
  | TInt -> "INT"
  | TFloat -> "FLOAT"
  | TString -> "VARCHAR"
  | TBool -> "BOOLEAN"
  | TDate -> "DATE"

let dtype_of_string s =
  match String.uppercase_ascii s with
  | "INT" | "INTEGER" | "BIGINT" | "SMALLINT" -> Some TInt
  | "FLOAT" | "DOUBLE" | "REAL" | "DECIMAL" | "NUMERIC" -> Some TFloat
  | "VARCHAR" | "CHAR" | "TEXT" | "STRING" -> Some TString
  | "BOOLEAN" | "BOOL" -> Some TBool
  | "DATE" -> Some TDate
  | _ -> None

let is_null = function Null -> true | _ -> false

(* A value [v] is acceptable for a column of type [ty] if it is null or of
   exactly that type (ints are accepted for float columns and widened). *)
let conforms ty v =
  match (ty, v) with
  | _, Null -> true
  | TInt, Int _ -> true
  | TFloat, (Float _ | Int _) -> true
  | TString, String _ -> true
  | TBool, Bool _ -> true
  | TDate, Date _ -> true
  | (TInt | TFloat | TString | TBool | TDate), _ -> false

let coerce ty v =
  match (ty, v) with
  | TFloat, Int i -> Float (float_of_int i)
  | _, v -> v

(* Rank used by the total order when values of different runtime types meet
   (possible only in heterogeneous contexts such as sort keys over
   mis-typed data; we keep it deterministic rather than raising). *)
let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 2 (* numerics compare together *)
  | Date _ -> 3
  | String _ -> 4

let as_float = function
  | Int i -> float_of_int i
  | Float f -> f
  | _ -> invalid_arg "Value.as_float"

let compare_total a b =
  match (a, b) with
  | Null, Null -> 0
  | Int x, Int y -> Stdlib.compare x y
  | (Int _ | Float _), (Int _ | Float _) ->
      Stdlib.compare (as_float a) (as_float b)
  | String x, String y -> Stdlib.compare x y
  | Bool x, Bool y -> Stdlib.compare x y
  | Date x, Date y -> Date.compare x y
  | _ -> Stdlib.compare (rank a) (rank b)

let equal_total a b = compare_total a b = 0

(* SQL comparison: [None] when either side is null, otherwise the ordering. *)
let compare_sql a b =
  match (a, b) with Null, _ | _, Null -> None | _ -> Some (compare_total a b)

let truth_of_bool b = if b then True else False

let truth_not = function True -> False | False -> True | Unknown -> Unknown

let truth_and a b =
  match (a, b) with
  | False, _ | _, False -> False
  | True, True -> True
  | _ -> Unknown

let truth_or a b =
  match (a, b) with
  | True, _ | _, True -> True
  | False, False -> False
  | _ -> Unknown

let truth_to_bool = function True -> true | False | Unknown -> false

(* Arithmetic.  Integer ops stay integral; any float operand promotes.
   Date ± int shifts by days; date − date yields an int day count. *)

exception Type_error of string

let type_error fmt = Printf.ksprintf (fun s -> raise (Type_error s)) fmt

(* SQL-literal syntax: single quotes in strings are doubled *)
let escape_sql_string s =
  if String.contains s '\'' then
    String.concat "''" (String.split_on_char '\'' s)
  else s

let to_debug = function
  | Null -> "NULL"
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | String s -> Printf.sprintf "'%s'" (escape_sql_string s)
  | Bool b -> if b then "TRUE" else "FALSE"
  | Date d -> Printf.sprintf "DATE '%s'" (Date.to_string d)

let add a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> Int (x + y)
  | (Int _ | Float _), (Int _ | Float _) -> Float (as_float a +. as_float b)
  | Date d, Int n | Int n, Date d -> Date (Date.add_days d n)
  | _ -> type_error "cannot add %s and %s" (to_debug a) (to_debug b)

and sub a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> Int (x - y)
  | (Int _ | Float _), (Int _ | Float _) -> Float (as_float a -. as_float b)
  | Date d, Int n -> Date (Date.add_days d (-n))
  | Date d1, Date d2 -> Int (Date.diff_days d1 d2)
  | _ -> type_error "cannot subtract %s from %s" (to_debug b) (to_debug a)

and mul a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> Int (x * y)
  | (Int _ | Float _), (Int _ | Float _) -> Float (as_float a *. as_float b)
  | _ -> type_error "cannot multiply %s and %s" (to_debug a) (to_debug b)

and div a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | Int _, Int 0 -> Null
  | Int x, Int y -> Int (x / y)
  | (Int _ | Float _), (Int _ | Float _) ->
      let d = as_float b in
      if d = 0.0 then Null else Float (as_float a /. d)
  | _ -> type_error "cannot divide %s by %s" (to_debug a) (to_debug b)

and neg = function
  | Null -> Null
  | Int x -> Int (-x)
  | Float x -> Float (-.x)
  | v -> type_error "cannot negate %s" (to_debug v)

let to_string = to_debug
let pp ppf v = Fmt.string ppf (to_debug v)

(* Hashing, consistent with [equal_total]: equal values hash alike.
   [compare_total] meets an INT and a FLOAT through [float_of_int], which
   is exact below 2^53 in magnitude and rounds above it, where many INTs
   equal one FLOAT.  So an INT below 2^53, and an integral FLOAT below
   it, hash by the integer; every other INT hashes as [float_of_int i]
   and every other FLOAT by its bits, one hash for every NaN (they
   compare equal).  Numbers, dates and booleans hash inline without
   allocating; [mix] spreads the entropy into the low bits, which
   [Hashtbl.Make] picks its buckets by. *)
let exact_int_limit = 1 lsl 53

let mix x =
  let x = (x lxor (x lsr 32)) * 0x3c79ac492ba7b653 in
  let x = (x lxor (x lsr 29)) * 0x1c69b3f74ac4ae35 in
  (x lxor (x lsr 32)) land max_int

let hash_float f =
  if Float.is_nan f then 0x7ff8
  else
    let bits = Int64.bits_of_float f in
    mix (Int64.to_int (Int64.logxor bits (Int64.shift_right_logical bits 32)))

(* Past 2^53 the INT-FLOAT equality stops being transitive: 2^53 + 1 and
   2^53 both equal 2^53.0, yet not each other. *)
let beyond_exact = function
  | Int i -> i <= -exact_int_limit || i >= exact_int_limit
  | Float f -> Float.abs f >= 0x1p53
  | Null | String _ | Bool _ | Date _ -> false

let hash v =
  match v with
  | Null -> 0
  | Int i when not (beyond_exact v) -> mix i
  | Int i -> hash_float (float_of_int i)
  | Float f when Float.is_integer f && not (beyond_exact v) ->
      mix (int_of_float f)
  | Float f -> hash_float f
  | String s -> Hashtbl.hash s
  | Bool b -> if b then 0x2b1 else 0x2b0
  | Date d -> mix (d lxor 0x5bd1e995)

let int_exn = function
  | Int i -> i
  | v -> type_error "expected INT, got %s" (to_debug v)

let float_exn = function
  | Int i -> float_of_int i
  | Float f -> f
  | v -> type_error "expected FLOAT, got %s" (to_debug v)
