(* Unit and property tests for the storage substrate: dates, values,
   three-valued logic, schemas, tuples, the B+-tree, heap tables,
   indexes, the constraint checker, the catalog, and CSV round trips. *)

open Rel

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let check_raises_any msg f =
  match f () with
  | _ -> Alcotest.failf "%s: expected an exception" msg
  | exception _ -> ()
let tstring = Alcotest.string

(* ---- dates ---------------------------------------------------------------- *)

let test_date_roundtrip () =
  List.iter
    (fun (y, m, d) ->
      let t = Date.of_ymd y m d in
      check (Alcotest.triple tint tint tint) "ymd" (y, m, d) (Date.to_ymd t))
    [
      (1970, 1, 1); (2000, 2, 29); (1999, 12, 31); (2001, 1, 1);
      (1900, 3, 1); (2024, 2, 29); (1, 1, 1); (9999, 12, 31);
    ]

let test_date_epoch () =
  check tint "epoch day" 0 (Date.of_ymd 1970 1 1);
  check tint "day after epoch" 1 (Date.of_ymd 1970 1 2);
  check tint "day before epoch" (-1) (Date.of_ymd 1969 12 31)

let test_date_arithmetic () =
  let d = Date.of_ymd 1999 12 15 in
  check tstring "21 days later" "2000-01-05"
    (Date.to_string (Date.add_days d 21));
  check tint "diff" 21 (Date.diff_days (Date.add_days d 21) d)

let test_date_parse () =
  check tstring "roundtrip" "1999-11-15"
    (Date.to_string (Date.of_string "1999-11-15"));
  check (Alcotest.option tint) "bad month" None
    (Option.map (fun x -> x) (Date.of_string_opt "1999-13-01"));
  check (Alcotest.option tint) "bad day" None
    (Option.map (fun x -> x) (Date.of_string_opt "1999-02-30"))

let test_date_leap () =
  check tbool "2000 leap" true (Date.is_leap_year 2000);
  check tbool "1900 not leap" false (Date.is_leap_year 1900);
  check tbool "2024 leap" true (Date.is_leap_year 2024);
  check tint "feb 2024" 29 (Date.days_in_month ~year:2024 ~month:2)

let date_qcheck =
  QCheck.Test.make ~name:"date civil<->days roundtrip" ~count:1000
    (QCheck.int_range (-700_000) 2_900_000)
    (fun days ->
      let y, m, d = Date.to_ymd days in
      Date.of_ymd y m d = days)

let date_shift_prop =
  QCheck.Test.make ~name:"add_days/diff_days inverse" ~count:500
    QCheck.(pair (int_range (-500000) 2000000) (int_range (-10000) 10000))
    (fun (d, n) ->
      Date.diff_days (Date.add_days d n) d = n
      && Date.add_days (Date.add_days d n) (-n) = d)

(* ---- values --------------------------------------------------------------- *)

let test_value_compare_total () =
  check tbool "int < int" true (Value.compare_total (Value.Int 1) (Value.Int 2) < 0);
  check tbool "int vs float equal" true
    (Value.compare_total (Value.Int 3) (Value.Float 3.0) = 0);
  check tbool "null first" true
    (Value.compare_total Value.Null (Value.Int min_int) < 0);
  check tbool "strings" true
    (Value.compare_total (Value.String "a") (Value.String "b") < 0)

let test_value_sql_compare () =
  check tbool "null incomparable" true
    (Value.compare_sql Value.Null (Value.Int 1) = None);
  check tbool "comparable" true
    (Value.compare_sql (Value.Int 1) (Value.Int 1) = Some 0)

let test_three_valued_logic () =
  let open Value in
  check tbool "T and U = U" true (truth_and True Unknown = Unknown);
  check tbool "F and U = F" true (truth_and False Unknown = False);
  check tbool "T or U = T" true (truth_or True Unknown = True);
  check tbool "F or U = U" true (truth_or False Unknown = Unknown);
  check tbool "not U = U" true (truth_not Unknown = Unknown)

let truth_gen = QCheck.oneofl [ Value.True; Value.False; Value.Unknown ]

let tvl_de_morgan =
  QCheck.Test.make ~name:"3VL De Morgan" ~count:200
    (QCheck.pair truth_gen truth_gen)
    (fun (a, b) ->
      Value.truth_not (Value.truth_and a b)
      = Value.truth_or (Value.truth_not a) (Value.truth_not b))

(* Equal values hash alike.  Each case is a small pool of values drawn
   around the places where INT and FLOAT meet: ±2^53, where
   [float_of_int] starts to round, ±1e18, where hashing once switched
   rules, and [max_int]/[min_int]; each integer comes with its FLOAT
   twin, so equal pairs are common.  NULL, ±0.0, NaN, DATE, VARCHAR and
   BOOL ride along. *)
let hash_pool_gen st =
  let near base = base + Random.State.int st 7 - 3 in
  let int () =
    match Random.State.int st 6 with
    | 0 -> near (1 lsl 53)
    | 1 -> - near (1 lsl 53)
    | 2 -> near 1_000_000_000_000_000_000
    | 3 -> - near 1_000_000_000_000_000_000
    | 4 -> if Random.State.bool st then max_int - Random.State.int st 3
           else min_int + Random.State.int st 3
    | _ -> Random.State.int st 9 - 4
  in
  let value () =
    match Random.State.int st 12 with
    | 0 -> Value.Null
    | 1 -> Value.Float (if Random.State.bool st then 0.0 else -0.0)
    | 2 -> Value.Float Float.nan
    | 3 -> Value.Date (Random.State.int st 3)
    | 4 -> Value.String [| "a"; "b" |].(Random.State.int st 2)
    | 5 -> Value.Bool (Random.State.bool st)
    | 6 -> Value.Float (float_of_int (int ()) +. 0.5)
    | 7 | 8 -> Value.Float (float_of_int (int ()))
    | _ -> Value.Int (int ())
  in
  List.init (2 + Random.State.int st 14) (fun _ -> value ())

let hash_agrees_with_equality =
  QCheck.Test.make ~name:"equal values hash alike" ~count:500
    (QCheck.make
       ~print:(fun vs -> String.concat "; " (List.map Value.to_debug vs))
       hash_pool_gen)
    (fun pool ->
      List.for_all
        (fun a ->
          List.for_all
            (fun b -> (not (Value.equal_total a b)) || Value.hash a = Value.hash b)
            pool)
        pool
      && List.for_all
           (fun a ->
             List.for_all
               (fun b ->
                 let t = [| a; b |] and u = [| b; a |] in
                 (not (Tuple.equal t u)) || Tuple.hash t = Tuple.hash u)
               pool)
           pool)

(* the cases the rule is about, spelled out *)
let test_value_hash_large_numbers () =
  let agree what a b =
    check tbool (what ^ ": equal") true (Value.equal_total a b);
    check tbool (what ^ ": same hash") true (Value.hash a = Value.hash b)
  in
  agree "2^60" (Value.Int (1 lsl 60)) (Value.Float 0x1p60);
  agree "2^53 + 1 rounds to 2^53" (Value.Int ((1 lsl 53) + 1)) (Value.Float 0x1p53);
  agree "-(2^53 + 1)" (Value.Int (-((1 lsl 53) + 1))) (Value.Float (-0x1p53));
  agree "max_int" (Value.Int max_int) (Value.Float (float_of_int max_int));
  agree "min_int" (Value.Int min_int) (Value.Float (float_of_int min_int));
  agree "1e18" (Value.Int 1_000_000_000_000_000_000) (Value.Float 1e18);
  agree "2^53 - 1" (Value.Int ((1 lsl 53) - 1)) (Value.Float (0x1p53 -. 1.0));
  agree "zeros" (Value.Float 0.0) (Value.Float (-0.0));
  agree "NaNs" (Value.Float Float.nan) (Value.Float (-.Float.nan))

let test_value_arithmetic () =
  check tbool "date minus date" true
    (Value.sub (Value.Date 10) (Value.Date 3) = Value.Int 7);
  check tbool "date plus int" true
    (Value.add (Value.Date 10) (Value.Int 5) = Value.Date 15);
  check tbool "null propagates" true (Value.add Value.Null (Value.Int 1) = Value.Null);
  check tbool "div by zero is null" true
    (Value.div (Value.Int 10) (Value.Int 0) = Value.Null);
  check tbool "int widen" true (Value.mul (Value.Int 2) (Value.Float 1.5) = Value.Float 3.0)

let test_value_conforms () =
  check tbool "null ok anywhere" true (Value.conforms Value.TInt Value.Null);
  check tbool "int for float" true (Value.conforms Value.TFloat (Value.Int 3));
  check tbool "string not int" false
    (Value.conforms Value.TInt (Value.String "x"))

(* ---- expressions ----------------------------------------------------------- *)

let row_binding =
  Expr.Binding.of_schema
    (Schema.make "t"
       [
         Schema.column "a" Value.TInt;
         Schema.column "b" Value.TInt;
         Schema.column "c" Value.TString;
       ])

let row a b c = Tuple.make [ a; b; c ]

let test_expr_eval () =
  let e =
    Expr.Binop (Expr.Add, Expr.column "a", Expr.Binop (Expr.Mul, Expr.int 2, Expr.column "b"))
  in
  check tbool "a + 2b" true
    (Expr.eval row_binding e (row (Value.Int 1) (Value.Int 3) Value.Null)
    = Value.Int 7)

let test_pred_eval () =
  let p = Expr.Cmp (Expr.Gt, Expr.column "a", Expr.column "b") in
  let sat a b =
    Expr.satisfies row_binding p (row a b Value.Null)
  in
  check tbool "3 > 2" true (sat (Value.Int 3) (Value.Int 2));
  check tbool "2 > 3 false" false (sat (Value.Int 2) (Value.Int 3));
  check tbool "null unknown filters" false (sat Value.Null (Value.Int 3))

let test_check_semantics () =
  (* CHECK passes on UNKNOWN *)
  let p = Expr.Cmp (Expr.Gt, Expr.column "a", Expr.int 0) in
  check tbool "null passes check" false
    (Expr.check_violated row_binding p (row Value.Null (Value.Int 1) Value.Null));
  check tbool "violating row" true
    (Expr.check_violated row_binding p (row (Value.Int (-1)) (Value.Int 1) Value.Null))

let test_compile_agrees_with_eval () =
  let preds =
    [
      Expr.Cmp (Expr.Le, Expr.column "a", Expr.column "b");
      Expr.Between (Expr.column "a", Expr.int 0, Expr.int 10);
      Expr.In_list (Expr.column "c", [ Value.String "x"; Value.Null ]);
      Expr.Or
        ( Expr.Is_null (Expr.column "a"),
          Expr.Not (Expr.Cmp (Expr.Eq, Expr.column "b", Expr.int 5)) );
    ]
  in
  let rows =
    [
      row (Value.Int 1) (Value.Int 5) (Value.String "x");
      row Value.Null (Value.Int 5) (Value.String "y");
      row (Value.Int 11) Value.Null Value.Null;
    ]
  in
  List.iter
    (fun p ->
      let compiled = Expr.compile_pred row_binding p in
      List.iter
        (fun r ->
          check tbool "compiled = eval" true
            (compiled r = Expr.eval_pred row_binding p r))
        rows)
    preds

(* Differential test of the predicate compiler against the interpreter.
   Seeded predicates over every constructor, on rows with NULLs, INT and
   FLOAT side by side, dates, and arithmetic.  Column [m] is declared INT
   but holds any type, so the compiler's unboxed paths meet values their
   declared type does not promise.  Where the interpreter answers, the
   compiled predicate gives the same truth value.  Where the interpreter
   raises [Type_error], the compiled one agrees with a left-to-right
   short-circuit reading of AND/OR: a conjunct after a FALSE one (a
   disjunct after a TRUE one) is not evaluated, so its type error does
   not surface. *)

let gen_schema =
  Schema.make "g"
    [
      Schema.column "i" Value.TInt;
      Schema.column "j" Value.TInt;
      Schema.column "f" Value.TFloat;
      Schema.column "d" Value.TDate;
      Schema.column "e" Value.TDate;
      Schema.column "s" Value.TString;
      Schema.column "m" Value.TInt;
    ]

let gen_binding = Expr.Binding.of_schema gen_schema

let gen_value st ty =
  let small () = Random.State.int st 41 - 20 in
  match Random.State.int st 8 with
  | 0 -> Value.Null
  | _ -> (
      match ty with
      | Value.TInt -> Value.Int (small ())
      | Value.TFloat ->
          Value.Float (float_of_int (small ()) /. [| 1.; 2.; 4. |].(Random.State.int st 3))
      | Value.TDate -> Value.Date (10_950 + small ())
      | Value.TString -> Value.String [| "a"; "b"; "ab" |].(Random.State.int st 3)
      | Value.TBool -> Value.Bool (Random.State.bool st))

let any_type st =
  [| Value.TInt; Value.TFloat; Value.TDate; Value.TString; Value.TBool |].(Random.State.int st 5)

let gen_row st =
  Array.map
    (fun (c : Schema.column) ->
      if c.Schema.name = "m" then gen_value st (any_type st)
      else gen_value st c.Schema.dtype)
    gen_schema.Schema.columns

let rec gen_expr st depth =
  let leaf () =
    if Random.State.int st 3 = 0 then
      Expr.Const
        (gen_value st
           (if Random.State.int st 4 = 0 then any_type st
            else [| Value.TInt; Value.TDate |].(Random.State.int st 2)))
    else
      Expr.column [| "i"; "j"; "f"; "d"; "e"; "s"; "m" |].(Random.State.int st 7)
  in
  if depth = 0 then leaf ()
  else
    match Random.State.int st 6 with
    | 0 | 1 ->
        let op = [| Expr.Add; Expr.Sub; Expr.Mul; Expr.Div |].(Random.State.int st 4) in
        Expr.Binop (op, gen_expr st (depth - 1), gen_expr st (depth - 1))
    | 2 -> Expr.Neg (gen_expr st (depth - 1))
    | _ -> leaf ()

let rec gen_pred st depth =
  let cmp () =
    [| Expr.Eq; Expr.Ne; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge |].(Random.State.int st 6)
  in
  let e () = gen_expr st 2 in
  match Random.State.int st (if depth = 0 then 7 else 10) with
  | 0 | 1 -> Expr.Cmp (cmp (), e (), e ())
  | 2 -> Expr.Between (e (), e (), e ())
  | 3 ->
      Expr.In_list
        (e (), List.init (Random.State.int st 4) (fun _ -> gen_value st (any_type st)))
  | 4 -> Expr.Is_null (e ())
  | 5 -> Expr.Is_not_null (e ())
  | 6 -> if Random.State.bool st then Expr.Ptrue else Expr.Pfalse
  | 7 -> Expr.And (gen_pred st (depth - 1), gen_pred st (depth - 1))
  | 8 -> Expr.Or (gen_pred st (depth - 1), gen_pred st (depth - 1))
  | _ -> Expr.Not (gen_pred st (depth - 1))

let rec short_circuit b p r =
  match p with
  | Expr.And (p, q) -> (
      match short_circuit b p r with
      | Value.False -> Value.False
      | tp -> Value.truth_and tp (short_circuit b q r))
  | Expr.Or (p, q) -> (
      match short_circuit b p r with
      | Value.True -> Value.True
      | tp -> Value.truth_or tp (short_circuit b q r))
  | Expr.Not p -> Value.truth_not (short_circuit b p r)
  | leaf -> Expr.eval_pred b leaf r

let outcome f = try Ok (f ()) with Value.Type_error _ -> Error ()

let test_compile_differential () =
  let st = Random.State.make [| 25 |] in
  let rows = List.init 60 (fun _ -> gen_row st) in
  let agreed = ref 0 and hidden = ref 0 in
  for _ = 1 to 2000 do
    let p = gen_pred st 3 in
    let compiled = Expr.compile_pred gen_binding p in
    let filter = Expr.compile_filter gen_binding p in
    List.iter
      (fun r ->
        let name () =
          Fmt.str "%s on [%a]" (Expr.to_string_pred p)
            (Fmt.array ~sep:(Fmt.any "; ") Value.pp)
            r
        in
        let got = outcome (fun () -> compiled r) in
        if got <> outcome (fun () -> short_circuit gen_binding p r) then
          Alcotest.failf "compiled <> short-circuit reading: %s" (name ());
        match outcome (fun () -> Expr.eval_pred gen_binding p r) with
        | Ok t ->
            incr agreed;
            if got <> Ok t then Alcotest.failf "compiled <> eval_pred: %s" (name ());
            if filter r <> Expr.satisfies gen_binding p r then
              Alcotest.failf "compile_filter <> satisfies: %s" (name ())
        | Error () -> if Result.is_ok got then incr hidden)
      rows
  done;
  (* both regimes are exercised: most cases answer, and some type errors
     are hidden by a short circuit *)
  check tbool "most cases answer" true (!agreed > 60_000);
  check tbool "some type errors are short-circuited" true (!hidden > 0)

let test_short_circuit_hides_type_error () =
  (* i = 1 is FALSE on this row, so the string arithmetic after it is
     never evaluated by the compiled AND; the interpreter raises *)
  let p =
    Expr.And
      ( Expr.Cmp (Expr.Eq, Expr.column "i", Expr.int 1),
        Expr.Cmp (Expr.Eq, Expr.Binop (Expr.Add, Expr.column "s", Expr.int 1), Expr.int 2) )
  in
  let r =
    [| Value.Int 0; Value.Int 0; Value.Float 0.; Value.Date 0; Value.Date 0;
       Value.String "a"; Value.Int 0 |]
  in
  check tbool "compiled AND stops at FALSE" true
    (Expr.compile_pred gen_binding p r = Value.False);
  check_raises_any "the interpreter evaluates both sides" (fun () ->
      Expr.eval_pred gen_binding p r);
  let q = Expr.Or (Expr.Not p, Expr.Cmp (Expr.Eq, Expr.Neg (Expr.column "s"), Expr.int 0)) in
  check tbool "compiled OR stops at TRUE" true
    (Expr.compile_pred gen_binding q r = Value.True)

(* ---- B+-tree ---------------------------------------------------------------- *)

module Itree = Bptree.Make (Int)

let test_bptree_basic () =
  let t = Itree.create ~b:2 () in
  for i = 1 to 100 do
    ignore (Itree.insert t i (i * 10))
  done;
  Itree.validate t;
  check tint "length" 100 (Itree.length t);
  check (Alcotest.option tint) "find 42" (Some 420) (Itree.find t 42);
  check (Alcotest.option tint) "find 0" None (Itree.find t 0);
  check tbool "replace" true (Itree.insert t 42 0);
  check (Alcotest.option tint) "replaced" (Some 0) (Itree.find t 42);
  check tint "same length" 100 (Itree.length t)

let test_bptree_delete () =
  let t = Itree.create ~b:2 () in
  for i = 1 to 50 do
    ignore (Itree.insert t i i)
  done;
  for i = 1 to 50 do
    if i mod 2 = 0 then check tbool "removed" true (Itree.remove t i)
  done;
  Itree.validate t;
  check tint "half left" 25 (Itree.length t);
  check tbool "remove missing" false (Itree.remove t 2);
  for i = 1 to 50 do
    check tbool "parity" (i mod 2 = 1) (Itree.find t i <> None)
  done

let test_bptree_range () =
  let t = Itree.create ~b:3 () in
  List.iter (fun i -> ignore (Itree.insert t i i)) [ 5; 1; 9; 3; 7; 2; 8 ];
  let keys lo hi =
    List.map fst (Itree.range t ~lo ~hi)
  in
  check (Alcotest.list tint) "incl range" [ 3; 5; 7 ]
    (keys (Itree.Incl 3) (Itree.Incl 7));
  check (Alcotest.list tint) "excl range" [ 5 ]
    (keys (Itree.Excl 3) (Itree.Excl 7));
  check (Alcotest.list tint) "unbounded" [ 1; 2; 3; 5; 7; 8; 9 ]
    (keys Itree.Unbounded Itree.Unbounded);
  check (Alcotest.option (Alcotest.pair tint tint)) "min" (Some (1, 1))
    (Itree.min_binding t);
  check (Alcotest.option (Alcotest.pair tint tint)) "max" (Some (9, 9))
    (Itree.max_binding t)

module IntMap = Map.Make (Int)

(* the central property: against a reference map, under random
   insert/remove/replace traffic, with invariants checked throughout *)
let bptree_vs_map =
  QCheck.Test.make ~name:"bptree agrees with Map under random ops" ~count:100
    QCheck.(list (pair (int_range 0 2) (int_range 0 200)))
    (fun ops ->
      let t = Itree.create ~b:2 () in
      let m = ref IntMap.empty in
      List.iter
        (fun (op, k) ->
          match op with
          | 0 | 1 ->
              ignore (Itree.insert t k (k * 7));
              m := IntMap.add k (k * 7) !m
          | _ ->
              ignore (Itree.remove t k);
              m := IntMap.remove k !m)
        ops;
      Itree.validate t;
      let from_tree = Itree.to_list t in
      let from_map = IntMap.bindings !m in
      from_tree = from_map)

let bptree_range_vs_map =
  QCheck.Test.make ~name:"bptree range agrees with Map filter" ~count:100
    QCheck.(triple (list (int_range 0 300)) (int_range 0 300) (int_range 0 300))
    (fun (keys, a, b) ->
      let lo = min a b and hi = max a b in
      let t = Itree.create ~b:4 () in
      let m = ref IntMap.empty in
      List.iter
        (fun k ->
          ignore (Itree.insert t k k);
          m := IntMap.add k k !m)
        keys;
      let got = Itree.range t ~lo:(Itree.Incl lo) ~hi:(Itree.Excl hi) in
      let expected =
        IntMap.bindings !m |> List.filter (fun (k, _) -> k >= lo && k < hi)
      in
      got = expected)

(* empty ranges: every way a scan can legitimately yield nothing *)
let test_bptree_empty_ranges () =
  let empty = Itree.create ~b:2 () in
  check (Alcotest.list (Alcotest.pair tint tint)) "empty tree, unbounded" []
    (Itree.range empty ~lo:Itree.Unbounded ~hi:Itree.Unbounded);
  check tint "fold_range over empty tree" 0
    (Itree.fold_range empty ~lo:(Itree.Incl 0) ~hi:(Itree.Incl 100) ~init:0
       ~f:(fun n _ _ -> n + 1));
  let t = Itree.create ~b:2 () in
  List.iter (fun i -> ignore (Itree.insert t i i)) [ 10; 20; 30; 40; 50 ];
  let keys lo hi = List.map fst (Itree.range t ~lo ~hi) in
  check (Alcotest.list tint) "lo > hi" [] (keys (Itree.Incl 40) (Itree.Incl 20));
  check (Alcotest.list tint) "entirely below min" []
    (keys (Itree.Incl 1) (Itree.Incl 9));
  check (Alcotest.list tint) "entirely above max" []
    (keys (Itree.Incl 51) (Itree.Unbounded));
  check (Alcotest.list tint) "excl/excl adjacent keys" []
    (keys (Itree.Excl 20) (Itree.Excl 30));
  check (Alcotest.list tint) "excl/excl same key" []
    (keys (Itree.Excl 30) (Itree.Excl 30));
  check (Alcotest.list tint) "incl/excl same key" [ 30 ]
    (keys (Itree.Incl 30) (Itree.Excl 31))

(* re-inserting (replacing) keys right at node-split boundaries: with
   b:2 splits happen every few inserts, so the separator keys pushed up
   into inner nodes are exactly the keys being replaced — a replace must
   update the leaf binding without duplicating or re-splitting *)
let test_bptree_duplicates_at_split_boundaries () =
  let t = Itree.create ~b:2 () in
  for i = 1 to 64 do
    check tbool "fresh insert" false (Itree.insert t i i)
  done;
  Itree.validate t;
  (* every key gets replaced, in an order that hammers the separators *)
  for i = 64 downto 1 do
    check tbool "replace reported" true (Itree.insert t i (i * 100))
  done;
  Itree.validate t;
  check tint "length stable under replaces" 64 (Itree.length t);
  for i = 1 to 64 do
    check (Alcotest.option tint)
      (Printf.sprintf "replaced %d" i)
      (Some (i * 100)) (Itree.find t i)
  done;
  (* replace again while interleaving fresh inserts beyond the boundary *)
  for i = 1 to 64 do
    ignore (Itree.insert t i (i * 7));
    ignore (Itree.insert t (i + 1000) i)
  done;
  Itree.validate t;
  check tint "only the fresh keys grew the tree" 128 (Itree.length t)

let test_bptree_reverse_iteration () =
  let t = Itree.create ~b:3 () in
  List.iter (fun i -> ignore (Itree.insert t i (i * 2)))
    [ 5; 1; 9; 3; 7; 2; 8; 4; 6 ];
  let fwd lo hi =
    Itree.fold_range t ~lo ~hi ~init:[] ~f:(fun acc k v -> (k, v) :: acc)
    |> List.rev
  in
  let rev lo hi =
    Itree.fold_range_rev t ~lo ~hi ~init:[] ~f:(fun acc k v -> (k, v) :: acc)
    |> List.rev
  in
  let bounds =
    [
      (Itree.Unbounded, Itree.Unbounded);
      (Itree.Incl 3, Itree.Incl 7);
      (Itree.Excl 3, Itree.Excl 7);
      (Itree.Incl 8, Itree.Unbounded);
      (Itree.Unbounded, Itree.Excl 2);
      (Itree.Incl 7, Itree.Incl 3) (* empty *);
    ]
  in
  List.iter
    (fun (lo, hi) ->
      check
        (Alcotest.list (Alcotest.pair tint tint))
        "reverse = List.rev forward" (List.rev (fwd lo hi)) (rev lo hi))
    bounds;
  (* and on a deep tree, where descending traversal crosses many leaves *)
  let big = Itree.create ~b:2 () in
  for i = 1 to 200 do
    ignore (Itree.insert big i i)
  done;
  let desc =
    Itree.fold_range_rev big ~lo:(Itree.Incl 50) ~hi:(Itree.Excl 150) ~init:[]
      ~f:(fun acc k _ -> k :: acc)
  in
  check (Alcotest.list tint) "descending window"
    (List.init 100 (fun i -> i + 50))
    desc

(* ---- tables / indexes -------------------------------------------------------- *)

let people_schema =
  Schema.make "people"
    [
      Schema.column ~nullable:false "id" Value.TInt;
      Schema.column "name" Value.TString;
      Schema.column "age" Value.TInt;
    ]

let test_table_crud () =
  let t = Table.create people_schema in
  let r1 = Table.insert t (Tuple.make [ Value.Int 1; Value.String "ann"; Value.Int 31 ]) in
  let r2 = Table.insert t (Tuple.make [ Value.Int 2; Value.String "bob"; Value.Int 25 ]) in
  check tint "cardinality" 2 (Table.cardinality t);
  check tbool "get" true
    (Tuple.get (Table.get_exn t r1) 1 = Value.String "ann");
  Table.update t r2 (Tuple.make [ Value.Int 2; Value.String "rob"; Value.Int 26 ]);
  check tbool "updated" true
    (Tuple.get (Table.get_exn t r2) 1 = Value.String "rob");
  check tbool "delete" true (Table.delete t r1);
  check tbool "gone" true (Table.get t r1 = None);
  check tint "one left" 1 (Table.cardinality t);
  check tint "mutations counted" 4 (Table.mutations t)

let test_table_schema_enforcement () =
  let t = Table.create people_schema in
  Alcotest.check_raises "null pk" (Table.Row_error
    "null value for NOT NULL column people.id")
    (fun () ->
      ignore (Table.insert t (Tuple.make [ Value.Null; Value.Null; Value.Null ])));
  Alcotest.check_raises "arity"
    (Table.Row_error "arity mismatch: 2 values for 3 columns (table people)")
    (fun () -> ignore (Table.insert t (Tuple.make [ Value.Int 1; Value.Null ])))

let test_index_maintenance () =
  let t = Table.create people_schema in
  let rids =
    List.map
      (fun (i, n, a) ->
        Table.insert t
          (Tuple.make [ Value.Int i; Value.String n; Value.Int a ]))
      [ (1, "ann", 30); (2, "bob", 30); (3, "cid", 40) ]
  in
  let idx = Index.create ~name:"people_age" ~table:t ~columns:[ "age" ] () in
  check tint "two distinct ages" 2 (Index.distinct_keys idx);
  check tint "age 30 rids" 2
    (Index.lookup_value idx (Value.Int 30)).(0);
  (* delete and re-check *)
  let r1 = List.hd rids in
  let row = Table.get_exn t r1 in
  ignore (Table.delete t r1);
  Index.on_delete idx r1 row;
  check tint "age 30 now 1" 1
    (Index.lookup_value idx (Value.Int 30)).(0);
  (* range *)
  check tint "range 30..40" 2
    (Index.fold_range idx ~lo:(Index.Incl (Value.Int 30))
       ~hi:(Index.Incl (Value.Int 40)) ~init:0 ~f:(fun n _ p ->
         n + p.(0)))

(* Postings against a reference multimap (key -> ascending rids) under
   random maintenance.  Rids arrive out of order, as rollback's restore
   and recovery's place present them; the backfill repeats live rows and
   must answer [false]; updates move rows between keys; a unique index
   refuses a second rid under a key and is left as it was. *)
let index_vs_multimap =
  QCheck.Test.make ~name:"index postings agree with a multimap" ~count:300
    QCheck.(
      pair bool
        (list_of_size Gen.(int_range 0 150)
           (triple (int_range 0 3) (int_range 0 47) (int_range 0 5))))
    (fun (unique, ops) ->
      let t = Table.create people_schema in
      let idx =
        Index.create_shell ~name:"age_idx" ~table:t ~columns:[ "age" ] ~unique
          ()
      in
      let row rid key = Tuple.make [ Value.Int rid; Value.Null; Value.Int key ] in
      (* the model: each live rid's key *)
      let live = Hashtbl.create 64 in
      let held key = Hashtbl.fold (fun _ k n -> if k = key then n + 1 else n) live 0 in
      let vetoed f =
        match f () with
        | () -> false
        | exception Index.Unique_violation _ -> true
      in
      let expected () =
        Hashtbl.fold (fun rid key m ->
            IntMap.update key
              (fun rids -> Some (rid :: Option.value rids ~default:[]))
              m)
          live IntMap.empty
        |> IntMap.map (List.sort Int.compare)
        |> IntMap.bindings
      in
      let actual () =
        Index.fold_range idx ~lo:Index.Unbounded ~hi:Index.Unbounded ~init:[]
          ~f:(fun acc key p ->
            let key = match key with Value.Int k -> k | _ -> -1 in
            (key, Array.to_list (Array.sub p 1 p.(0))) :: acc)
        |> List.rev
      in
      List.for_all
        (fun (op, rid, key) ->
          (match (op, Hashtbl.find_opt live rid) with
          | 0, None ->
              (* a new row, at whatever rid *)
              let clash = unique && held key > 0 in
              if vetoed (fun () -> Index.on_insert idx rid (row rid key)) <> clash
              then failwith "unique veto";
              if not clash then Hashtbl.replace live rid key
          | 0, Some old ->
              (* a writer presenting a row the backfill already indexed:
                 a no-op, never a unique veto *)
              Index.on_insert idx rid (row rid old)
          | 1, Some old ->
              Index.on_delete idx rid (row rid old);
              Hashtbl.remove live rid
          | 2, Some old when not (unique && old <> key && held key > 0) ->
              Index.on_update idx rid ~before:(row rid old) ~after:(row rid key);
              Hashtbl.replace live rid key
          | 3, Some old ->
              if Index.backfill_insert idx rid (row rid old) then
                failwith "a repeated backfill reported new"
          | 3, None ->
              let clash = unique && held key > 0 in
              let fresh = ref false in
              if
                vetoed (fun () ->
                    fresh := Index.backfill_insert idx rid (row rid key))
                <> clash
              then failwith "unique veto";
              if not clash then begin
                if not !fresh then failwith "a new backfill reported repeated";
                Hashtbl.replace live rid key
              end
          | _ -> ());
          let exp = expected () in
          actual () = exp
          && Index.entries idx = Hashtbl.length live
          && Index.distinct_keys idx = List.length exp
          && List.for_all
               (fun (key, rids) ->
                 let p = Index.lookup_value idx (Value.Int key) in
                 Array.to_list (Array.sub p 1 p.(0)) = rids)
               exp)
        ops)

(* An insert a unique index vetoes leaves no trace in the table's other
   indexes: no stale entry, and no phantom veto of a later row. *)
let test_vetoed_insert_leaves_no_entry () =
  let db = Database.create () in
  ignore
    (Database.create_table db
       (Schema.make "t"
          [ Schema.column "a" Value.TInt; Schema.column "b" Value.TInt ]));
  let index name col =
    Database.create_index db ~name ~table:"t" ~columns:[ col ] ~unique:true ()
  in
  let ua = index "ua" "a" and ub = index "ub" "b" in
  let insert a b =
    ignore (Database.insert db ~table:"t" (Tuple.make [ Value.Int a; Value.Int b ]))
  in
  insert 1 1;
  check tbool "a duplicate a is vetoed" true
    (try
       insert 1 2;
       false
     with Index.Unique_violation _ -> true);
  check tint "ua holds one entry" 1 (Index.entries ua);
  check tint "ub holds one entry" 1 (Index.entries ub);
  insert 5 2;
  check tint "b = 2 goes in afterwards" 2
    (Table.cardinality (Database.table_exn db "t"))

let test_unique_index () =
  let t = Table.create people_schema in
  ignore (Table.insert t (Tuple.make [ Value.Int 1; Value.Null; Value.Null ]));
  ignore (Table.insert t (Tuple.make [ Value.Int 1; Value.Null; Value.Null ]));
  check tbool "duplicate detected" true
    (try
       ignore (Index.create ~name:"u" ~table:t ~columns:[ "id" ] ~unique:true ());
       false
     with Index.Unique_violation _ -> true)

(* ---- database + constraints --------------------------------------------------- *)

let setup_db () =
  let db = Database.create () in
  ignore
    (Database.create_table db
       (Schema.make "dept"
          [
            Schema.column ~nullable:false "dept_id" Value.TInt;
            Schema.column "dname" Value.TString;
          ]));
  ignore
    (Database.create_table db
       (Schema.make "emp"
          [
            Schema.column ~nullable:false "emp_id" Value.TInt;
            Schema.column "dept_id" Value.TInt;
            Schema.column "salary" Value.TInt;
          ]));
  Database.add_constraint db
    (Icdef.make ~name:"dept_pk" ~table:"dept" (Icdef.Primary_key [ "dept_id" ]));
  Database.add_constraint db
    (Icdef.make ~name:"emp_pk" ~table:"emp" (Icdef.Primary_key [ "emp_id" ]));
  Database.add_constraint db
    (Icdef.make ~name:"emp_dept_fk" ~table:"emp"
       (Icdef.Foreign_key
          { columns = [ "dept_id" ]; ref_table = "dept";
            ref_columns = [ "dept_id" ] }));
  Database.add_constraint db
    (Icdef.make ~name:"salary_pos" ~table:"emp"
       (Icdef.Check (Expr.Cmp (Expr.Gt, Expr.column "salary", Expr.int 0))));
  ignore
    (Database.insert db ~table:"dept"
       (Tuple.make [ Value.Int 1; Value.String "eng" ]));
  db

let expect_violation name f =
  match f () with
  | exception Checker.Constraint_violation v ->
      check tstring "violated constraint" name v.Checker.constraint_name
  | _ -> Alcotest.fail "expected a constraint violation"

let test_pk_enforced () =
  let db = setup_db () in
  ignore
    (Database.insert db ~table:"emp"
       (Tuple.make [ Value.Int 1; Value.Int 1; Value.Int 100 ]));
  expect_violation "emp_pk" (fun () ->
      Database.insert db ~table:"emp"
        (Tuple.make [ Value.Int 1; Value.Int 1; Value.Int 200 ]))

let test_fk_enforced () =
  let db = setup_db () in
  expect_violation "emp_dept_fk" (fun () ->
      Database.insert db ~table:"emp"
        (Tuple.make [ Value.Int 1; Value.Int 99; Value.Int 100 ]));
  (* null FK passes *)
  ignore
    (Database.insert db ~table:"emp"
       (Tuple.make [ Value.Int 2; Value.Null; Value.Int 100 ]))

let test_fk_restricts_parent_delete () =
  let db = setup_db () in
  ignore
    (Database.insert db ~table:"emp"
       (Tuple.make [ Value.Int 1; Value.Int 1; Value.Int 100 ]));
  expect_violation "emp_dept_fk" (fun () ->
      ignore (Database.delete db ~table:"dept" 0);
      ())

let test_check_enforced () =
  let db = setup_db () in
  expect_violation "salary_pos" (fun () ->
      Database.insert db ~table:"emp"
        (Tuple.make [ Value.Int 1; Value.Int 1; Value.Int (-5) ]))

let test_informational_not_checked () =
  let db = Database.create () in
  ignore
    (Database.create_table db
       (Schema.make "t" [ Schema.column "a" Value.TInt ]));
  Database.add_constraint db
    (Icdef.make ~enforcement:Icdef.Informational ~name:"a_pos" ~table:"t"
       (Icdef.Check (Expr.Cmp (Expr.Gt, Expr.column "a", Expr.int 0))));
  (* a violating insert is accepted *)
  ignore (Database.insert db ~table:"t" (Tuple.make [ Value.Int (-1) ]));
  check tint "row in" 1 (Table.cardinality (Database.table_exn db "t"));
  (* but verify sees the violation *)
  let ic = Option.get (Database.find_constraint db "a_pos") in
  check tint "one violation" 1
    (Checker.violation_count (Database.checker_env db) ic)

let test_add_enforced_constraint_validates () =
  let db = Database.create () in
  ignore
    (Database.create_table db
       (Schema.make "t" [ Schema.column "a" Value.TInt ]));
  ignore (Database.insert db ~table:"t" (Tuple.make [ Value.Int (-1) ]));
  check tbool "rejected" true
    (try
       Database.add_constraint db
         (Icdef.make ~name:"a_pos" ~table:"t"
            (Icdef.Check (Expr.Cmp (Expr.Gt, Expr.column "a", Expr.int 0))));
       false
     with Database.Catalog_error _ -> true)

let test_mutation_listener () =
  let db = setup_db () in
  let seen = ref [] in
  Database.on_mutation db (fun m ->
      let tag =
        match m with
        | Database.Inserted _ -> "ins"
        | Database.Deleted _ -> "del"
        | Database.Updated _ -> "upd"
      in
      seen := tag :: !seen);
  let rid =
    Database.insert db ~table:"emp"
      (Tuple.make [ Value.Int 1; Value.Int 1; Value.Int 10 ])
  in
  Database.update db ~table:"emp" rid
    (Tuple.make [ Value.Int 1; Value.Int 1; Value.Int 20 ]);
  ignore (Database.delete db ~table:"emp" rid);
  check (Alcotest.list tstring) "events" [ "ins"; "upd"; "del" ]
    (List.rev !seen)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "rel"
    [
      ( "date",
        [
          Alcotest.test_case "roundtrip" `Quick test_date_roundtrip;
          Alcotest.test_case "epoch" `Quick test_date_epoch;
          Alcotest.test_case "arithmetic" `Quick test_date_arithmetic;
          Alcotest.test_case "parse" `Quick test_date_parse;
          Alcotest.test_case "leap" `Quick test_date_leap;
        ]
        @ qsuite [ date_qcheck; date_shift_prop ] );
      ( "value",
        [
          Alcotest.test_case "compare_total" `Quick test_value_compare_total;
          Alcotest.test_case "compare_sql" `Quick test_value_sql_compare;
          Alcotest.test_case "three-valued logic" `Quick test_three_valued_logic;
          Alcotest.test_case "arithmetic" `Quick test_value_arithmetic;
          Alcotest.test_case "conforms" `Quick test_value_conforms;
          Alcotest.test_case "hash beyond 2^53" `Quick
            test_value_hash_large_numbers;
        ]
        @ qsuite [ tvl_de_morgan ]
        @ [
            QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 53 |])
              hash_agrees_with_equality;
          ] );
      ( "expr",
        [
          Alcotest.test_case "eval" `Quick test_expr_eval;
          Alcotest.test_case "pred eval" `Quick test_pred_eval;
          Alcotest.test_case "check semantics" `Quick test_check_semantics;
          Alcotest.test_case "compiled agrees" `Quick
            test_compile_agrees_with_eval;
          Alcotest.test_case "compiled agrees (generated)" `Quick
            test_compile_differential;
          Alcotest.test_case "short circuit hides a later type error" `Quick
            test_short_circuit_hides_type_error;
        ] );
      ( "bptree",
        [
          Alcotest.test_case "basic" `Quick test_bptree_basic;
          Alcotest.test_case "delete" `Quick test_bptree_delete;
          Alcotest.test_case "range" `Quick test_bptree_range;
          Alcotest.test_case "empty ranges" `Quick test_bptree_empty_ranges;
          Alcotest.test_case "duplicate keys at split boundaries" `Quick
            test_bptree_duplicates_at_split_boundaries;
          Alcotest.test_case "reverse iteration" `Quick
            test_bptree_reverse_iteration;
        ]
        @ qsuite [ bptree_vs_map; bptree_range_vs_map ] );
      ( "table",
        [
          Alcotest.test_case "crud" `Quick test_table_crud;
          Alcotest.test_case "schema enforcement" `Quick
            test_table_schema_enforcement;
          Alcotest.test_case "index maintenance" `Quick test_index_maintenance;
          Alcotest.test_case "unique index" `Quick test_unique_index;
          Alcotest.test_case "a vetoed insert leaves no index entry" `Quick
            test_vetoed_insert_leaves_no_entry;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 31 |])
            index_vs_multimap;
        ] );
      ( "constraints",
        [
          Alcotest.test_case "pk enforced" `Quick test_pk_enforced;
          Alcotest.test_case "fk enforced" `Quick test_fk_enforced;
          Alcotest.test_case "fk restrict delete" `Quick
            test_fk_restricts_parent_delete;
          Alcotest.test_case "check enforced" `Quick test_check_enforced;
          Alcotest.test_case "informational unchecked" `Quick
            test_informational_not_checked;
          Alcotest.test_case "add constraint validates" `Quick
            test_add_enforced_constraint_validates;
          Alcotest.test_case "mutation listener" `Quick test_mutation_listener;
        ] );
    ]
