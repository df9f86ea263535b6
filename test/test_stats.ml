(* Tests for statistics: RNG determinism and distribution sanity,
   reservoir sampling, histograms (mass conservation, selectivity
   monotonicity, accuracy against ground truth, sorted input), column
   stats and RUNSTATS against the three-pass algorithm they replaced. *)

open Rel

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tfloat = Alcotest.float

(* ---- rng ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Stats.Rng.create 42 and b = Stats.Rng.create 42 in
  for _ = 1 to 100 do
    check tint "same stream" (Stats.Rng.int a 1000) (Stats.Rng.int b 1000)
  done

let test_rng_bounds () =
  let r = Stats.Rng.create 1 in
  for _ = 1 to 10_000 do
    let v = Stats.Rng.int r 7 in
    check tbool "in [0,7)" true (v >= 0 && v < 7)
  done;
  for _ = 1 to 1000 do
    let v = Stats.Rng.float r in
    check tbool "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_uniformity () =
  let r = Stats.Rng.create 5 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Stats.Rng.int r 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c ->
      check tbool "within 5% of uniform" true
        (Float.abs (float_of_int c -. 10_000.0) < 500.0))
    buckets

let test_rng_gaussian_moments () =
  let r = Stats.Rng.create 9 in
  let n = 50_000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let x = Stats.Rng.gaussian r in
    sum := !sum +. x;
    sumsq := !sumsq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  check (tfloat 0.05) "mean 0" 0.0 mean;
  check (tfloat 0.05) "var 1" 1.0 var

let test_zipf () =
  let r = Stats.Rng.create 3 in
  let cum = Stats.Rng.zipf_table 10 1.0 in
  let counts = Array.make 11 0 in
  for _ = 1 to 20_000 do
    let k = Stats.Rng.zipf r cum in
    counts.(k) <- counts.(k) + 1
  done;
  check tbool "rank 1 most frequent" true (counts.(1) > counts.(2));
  check tbool "rank 2 above rank 5" true (counts.(2) > counts.(5))

(* ---- sampling ---------------------------------------------------------------- *)

let test_reservoir_size () =
  let s = Stats.Sample.create 50 in
  for i = 1 to 1000 do
    Stats.Sample.offer s i
  done;
  check tint "size capped" 50 (Stats.Sample.size s);
  check tint "seen all" 1000 (Stats.Sample.seen s);
  List.iter
    (fun x -> check tbool "element from stream" true (x >= 1 && x <= 1000))
    (Stats.Sample.to_list s)

let test_reservoir_unbiased () =
  (* offer 0..99 into capacity-10 reservoirs many times; each element
     should appear ~10% of the time *)
  let hits = Array.make 100 0 in
  for seed = 0 to 999 do
    let s = Stats.Sample.create ~seed 10 in
    for i = 0 to 99 do
      Stats.Sample.offer s i
    done;
    List.iter (fun i -> hits.(i) <- hits.(i) + 1) (Stats.Sample.to_list s)
  done;
  Array.iter
    (fun h -> check tbool "within 3x of expectation" true (h > 30 && h < 300))
    hits

(* ---- histograms ---------------------------------------------------------------- *)

let ints l = List.map (fun i -> Value.Int i) l

let test_histogram_mass () =
  let values = List.init 1000 (fun i -> i mod 97) in
  let h = Stats.Histogram.build ~buckets:16 (ints values) in
  check tint "total" 1000 (Stats.Histogram.total h);
  let bucket_sum =
    List.fold_left
      (fun acc b -> acc + b.Stats.Histogram.count)
      0 (Stats.Histogram.buckets h)
  in
  check tint "mass conserved" 1000 bucket_sum

let test_histogram_range_estimates () =
  (* uniform 0..999, estimate ranges *)
  let values = List.init 10_000 (fun i -> i mod 1000) in
  let h = Stats.Histogram.build ~buckets:32 (ints values) in
  let sel lo hi =
    Stats.Histogram.selectivity_range h
      ~lo:(Value.Int lo, `Incl) ~hi:(Value.Int hi, `Incl) ()
  in
  check (tfloat 0.03) "10% range" 0.10 (sel 100 199);
  check (tfloat 0.03) "50% range" 0.50 (sel 0 499);
  check (tfloat 0.02) "tiny range" 0.001 (sel 500 500)

let test_histogram_eq_estimates () =
  let values = List.concat_map (fun i -> List.init 10 (fun _ -> i)) (List.init 100 Fun.id) in
  let h = Stats.Histogram.build ~buckets:10 (ints values) in
  check (tfloat 0.005) "eq sel ~1/100" 0.01
    (Stats.Histogram.selectivity_eq h (Value.Int 42))

let test_histogram_skew () =
  (* heavy hitter: value 0 is half the data; equal-value runs must not
     straddle buckets *)
  let values = List.init 1000 (fun i -> if i < 500 then 0 else i) in
  let h = Stats.Histogram.build ~buckets:8 (ints values) in
  check (tfloat 0.08) "hitter eq" 0.5
    (Stats.Histogram.selectivity_eq h (Value.Int 0))

let test_histogram_empty_and_null () =
  let h = Stats.Histogram.build [] in
  check tint "empty" 0 (Stats.Histogram.total h);
  let h2 = Stats.Histogram.build [ Value.Null; Value.Null ] in
  check tint "nulls excluded" 0 (Stats.Histogram.total h2)

let histogram_mass_prop =
  QCheck.Test.make ~name:"histogram conserves mass" ~count:200
    QCheck.(pair (list (int_range (-50) 50)) (int_range 1 20))
    (fun (values, buckets) ->
      let h = Stats.Histogram.build ~buckets (ints values) in
      Stats.Histogram.total h = List.length values
      && List.fold_left
           (fun acc b -> acc + b.Stats.Histogram.count)
           0 (Stats.Histogram.buckets h)
         = List.length values)

let histogram_monotone_prop =
  QCheck.Test.make ~name:"rows_le monotone in v" ~count:200
    QCheck.(pair (list (int_range 0 100)) (pair (int_range 0 100) (int_range 0 100)))
    (fun (values, (a, b)) ->
      QCheck.assume (values <> []);
      let h = Stats.Histogram.build ~buckets:8 (ints values) in
      let lo = min a b and hi = max a b in
      Stats.Histogram.rows_le h (Value.Int lo)
      <= Stats.Histogram.rows_le h (Value.Int hi) +. 1e-9)

(* ---- column stats + runstats ----------------------------------------------------- *)

let test_col_stats () =
  let values =
    ints [ 5; 5; 5; 1; 2; 3 ] @ [ Value.Null; Value.Null ]
  in
  let cs = Stats.Col_stats.build ~column:"c" (Array.of_list values) in
  check tint "rows" 8 cs.Stats.Col_stats.row_count;
  check tint "nulls" 2 cs.Stats.Col_stats.null_count;
  check tint "ndv" 4 cs.Stats.Col_stats.distinct;
  check tbool "low" true (cs.Stats.Col_stats.low = Some (Value.Int 1));
  check tbool "high" true (cs.Stats.Col_stats.high = Some (Value.Int 5));
  check (tfloat 1e-9) "eq from frequents" (3.0 /. 8.0)
    (Stats.Col_stats.sel_eq cs (Value.Int 5));
  check (tfloat 1e-9) "null fraction" 0.25 (Stats.Col_stats.sel_is_null cs)

let test_runstats_staleness () =
  let db = Database.create () in
  ignore
    (Database.create_table db
       (Schema.make "t" [ Schema.column "a" Value.TInt ]));
  for i = 1 to 10 do
    ignore (Database.insert db ~table:"t" (Tuple.make [ Value.Int i ]))
  done;
  let stats = Stats.Runstats.create () in
  ignore (Stats.Runstats.runstats stats (Database.table_exn db "t"));
  check tint "fresh" 0
    (Stats.Runstats.staleness stats (Database.table_exn db "t"));
  for i = 11 to 15 do
    ignore (Database.insert db ~table:"t" (Tuple.make [ Value.Int i ]))
  done;
  check tint "five stale" 5
    (Stats.Runstats.staleness stats (Database.table_exn db "t"));
  let ts = Option.get (Stats.Runstats.find stats "t") in
  check tint "cardinality at snapshot" 10 ts.Stats.Runstats.cardinality;
  check tbool "column stats reachable" true
    (Stats.Runstats.column_stats stats ~table:"t" ~column:"a" <> None)

let test_runstats_sampled () =
  let db = Database.create () in
  ignore
    (Database.create_table db
       (Schema.make "t" [ Schema.column "a" Value.TInt ]));
  for i = 1 to 1000 do
    ignore (Database.insert db ~table:"t" (Tuple.make [ Value.Int (i mod 10) ]))
  done;
  let stats = Stats.Runstats.create () in
  let ts = Stats.Runstats.runstats ~sample:100 stats (Database.table_exn db "t") in
  check tint "exact cardinality despite sampling" 1000
    ts.Stats.Runstats.cardinality;
  let cs = Option.get (Stats.Runstats.column_stats stats ~table:"t" ~column:"a") in
  check tbool "ndv from sample close" true
    (cs.Stats.Col_stats.distinct <= 10 && cs.Stats.Col_stats.distinct >= 8)

(* ---- one sort per column, against the three-pass oracle --------------------- *)

(* The three-pass algorithm [Col_stats.build] replaced, kept as an oracle:
   a hash count of the non-null values, a sort for low/high, a sort of
   every distinct value by (count desc, value asc) for the top-k, and
   [Histogram.build] over the non-null values. *)
let reference_stats ?(histogram_buckets = 32) ?(frequent_k = 10) values =
  let non_null = List.filter (fun v -> not (Value.is_null v)) values in
  let counts = Hashtbl.create 256 in
  List.iter
    (fun v ->
      let c = Option.value (Hashtbl.find_opt counts v) ~default:0 in
      Hashtbl.replace counts v (c + 1))
    non_null;
  let sorted = List.sort Value.compare_total non_null in
  let frequent =
    Hashtbl.fold (fun v c acc -> (v, c) :: acc) counts []
    |> List.sort (fun (va, a) (vb, b) ->
           match compare b a with 0 -> Value.compare_total va vb | c -> c)
    |> List.filteri (fun i _ -> i < frequent_k)
  in
  ( List.length values,
    List.length values - List.length non_null,
    Hashtbl.length counts,
    (match sorted with [] -> None | v :: _ -> Some v),
    (match List.rev sorted with [] -> None | v :: _ -> Some v),
    frequent,
    Stats.Histogram.buckets
      (Stats.Histogram.build ~buckets:histogram_buckets non_null) )

let summary (cs : Stats.Col_stats.t) =
  ( cs.Stats.Col_stats.row_count,
    cs.Stats.Col_stats.null_count,
    cs.Stats.Col_stats.distinct,
    cs.Stats.Col_stats.low,
    cs.Stats.Col_stats.high,
    List.map
      (fun (f : Stats.Col_stats.frequent) ->
        (f.Stats.Col_stats.value, f.Stats.Col_stats.count))
      cs.Stats.Col_stats.frequent,
    Stats.Histogram.buckets cs.Stats.Col_stats.histogram )

(* The [k]-th of a few values of one column type: INT, FLOAT, DATE or
   VARCHAR. *)
let typed_value ty k =
  match ty with
  | 0 -> Value.Int (k - 5)
  | 1 -> Value.Float ((float_of_int k /. 4.0) -. 1.0)
  | 2 -> Value.Date (Date.add_days (Date.of_ymd 1999 1 1) (3 * k))
  | _ -> Value.String (String.make (1 + (k mod 3)) (Char.chr (97 + k)))

(* One column of one type: up to 25 distinct values, so heavy duplicates
   and ties in frequency, and about one NULL in five. *)
let column_arb =
  let open QCheck.Gen in
  let gen =
    int_range 0 3 >>= fun ty ->
    int_range 1 25 >>= fun domain ->
    list_size (int_range 0 300)
      (frequency
         [
           (1, return Value.Null);
           (4, map (typed_value ty) (int_range 0 (domain - 1)));
         ])
  in
  QCheck.make gen ~print:(fun vs -> String.concat " " (List.map Value.to_debug vs))

let col_stats_oracle_prop =
  QCheck.Test.make ~name:"Col_stats.build matches the three-pass oracle"
    ~count:300
    QCheck.(triple column_arb (int_range 1 40) (int_range 0 12))
    (fun (values, histogram_buckets, frequent_k) ->
      summary
        (Stats.Col_stats.build ~histogram_buckets ~frequent_k ~column:"c"
           (Array.of_list values))
      = reference_stats ~histogram_buckets ~frequent_k values)

let histogram_of_sorted_prop =
  QCheck.Test.make ~name:"of_sorted on sorted values = build on them shuffled"
    ~count:200
    QCheck.(triple (list (int_range (-20) 20)) (int_range 1 20) int)
    (fun (xs, buckets, seed) ->
      let sorted = Array.of_list (ints xs) in
      Array.stable_sort Value.compare_total sorted;
      let shuffled = Array.of_list (Value.Null :: ints xs) in
      let rng = Random.State.make [| seed |] in
      for i = Array.length shuffled - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = shuffled.(i) in
        shuffled.(i) <- shuffled.(j);
        shuffled.(j) <- t
      done;
      let a = Stats.Histogram.of_sorted ~buckets sorted
      and b = Stats.Histogram.build ~buckets (Array.to_list shuffled) in
      Stats.Histogram.total a = Stats.Histogram.total b
      && Stats.Histogram.buckets a = Stats.Histogram.buckets b)

(* RUNSTATS over a table with deleted slots, in full and sampled: each
   column's statistics equal the oracle's over the rows inspected. *)
let test_runstats_matches_reference () =
  let db = Database.create () in
  let names = [ "i"; "f"; "d"; "s" ] in
  ignore
    (Database.create_table db
       (Schema.make "t"
          [
            Schema.column "i" Value.TInt;
            Schema.column "f" Value.TFloat;
            Schema.column "d" Value.TDate;
            Schema.column "s" Value.TString;
          ]));
  let rng = Stats.Rng.create 7 in
  let cell ty =
    if Stats.Rng.int rng 5 = 0 then Value.Null
    else typed_value ty (Stats.Rng.int rng 20)
  in
  let rids =
    List.init 3000 (fun _ ->
        Database.insert db ~table:"t" (Tuple.make (List.init 4 cell)))
  in
  List.iteri
    (fun n rid -> if n mod 7 = 3 then ignore (Database.delete db ~table:"t" rid))
    rids;
  let tbl = Database.table_exn db "t" in
  let agrees label rows (ts : Stats.Runstats.table_stats) =
    check tint (label ^ ": exact cardinality") (Table.cardinality tbl)
      ts.Stats.Runstats.cardinality;
    List.iteri
      (fun i name ->
        let cs = List.assoc name ts.Stats.Runstats.columns in
        check tbool
          (Printf.sprintf "%s: column %s matches the oracle" label name)
          true
          (summary cs
          = reference_stats (List.map (fun row -> Tuple.get row i) rows)))
      names
  in
  agrees "full" (Table.to_list tbl) (Stats.Runstats.collect tbl);
  (* the reservoir is seeded: the same offers draw the same sample *)
  let sample = Stats.Sample.create 500 in
  Table.iter tbl ~f:(Stats.Sample.offer sample);
  agrees "sampled" (Stats.Sample.to_list sample)
    (Stats.Runstats.collect ~sample:500 tbl)

let test_column_stats_lookup () =
  let db = Database.create () in
  ignore
    (Database.create_table db
       (Schema.make "T"
          [ Schema.column "Ab" Value.TInt; Schema.column "c" Value.TInt ]));
  ignore
    (Database.insert db ~table:"T" (Tuple.make [ Value.Int 1; Value.Int 2 ]));
  let stats = Stats.Runstats.create () in
  ignore (Stats.Runstats.runstats stats (Database.table_exn db "T"));
  let col table column =
    Option.map
      (fun (cs : Stats.Col_stats.t) -> cs.Stats.Col_stats.column)
      (Stats.Runstats.column_stats stats ~table ~column)
  in
  check Alcotest.(option string) "exact" (Some "Ab") (col "T" "Ab");
  check Alcotest.(option string) "either case" (Some "Ab") (col "t" "aB");
  check Alcotest.(option string) "second column" (Some "c") (col "t" "C");
  check Alcotest.(option string) "prefix is no match" None (col "t" "A");
  check Alcotest.(option string) "longer is no match" None (col "t" "abc")

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "stats"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "uniformity" `Slow test_rng_uniformity;
          Alcotest.test_case "gaussian moments" `Slow test_rng_gaussian_moments;
          Alcotest.test_case "zipf" `Slow test_zipf;
        ] );
      ( "sample",
        [
          Alcotest.test_case "size" `Quick test_reservoir_size;
          Alcotest.test_case "unbiased" `Slow test_reservoir_unbiased;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "mass" `Quick test_histogram_mass;
          Alcotest.test_case "range estimates" `Quick
            test_histogram_range_estimates;
          Alcotest.test_case "eq estimates" `Quick test_histogram_eq_estimates;
          Alcotest.test_case "skew" `Quick test_histogram_skew;
          Alcotest.test_case "empty/null" `Quick test_histogram_empty_and_null;
        ]
        @ qsuite
            [
              histogram_mass_prop;
              histogram_monotone_prop;
              histogram_of_sorted_prop;
            ] );
      ( "col_stats",
        [
          Alcotest.test_case "basic" `Quick test_col_stats;
          Alcotest.test_case "runstats staleness" `Quick
            test_runstats_staleness;
          Alcotest.test_case "runstats sampled" `Quick test_runstats_sampled;
          Alcotest.test_case "runstats matches the oracle" `Quick
            test_runstats_matches_reference;
          Alcotest.test_case "column lookup ignores case" `Quick
            test_column_stats_lookup;
        ]
        @ qsuite [ col_stats_oracle_prop ] );
    ]
