(* Tests for the benchmark & plan-quality regression harness: the JSON
   codec (round-trip, canonical rendering), the measurement schema
   (versioning, fingerprint), the threshold table and diff gate
   (golden pair: an equal run passes, an injected q-error / rows-scanned
   regression is caught), and end-to-end determinism of the whole
   scenario registry executed twice. *)

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string
let tfloat = Alcotest.float

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ---- JSON codec ------------------------------------------------------------ *)

let test_json_roundtrip () =
  let open Benchkit.Json in
  let v =
    Obj
      [
        ("null", Null);
        ("flag", Bool true);
        ("n", Float 42.0);
        ("pi", Float 3.141592653589793);
        ("tiny", Float 1e-9);
        ("s", String "line\nbreak \"quoted\" \\ slash");
        ("xs", List [ Float 1.0; Float 2.5; String "x"; Bool false ]);
        ("nested", Obj [ ("k", List [ Null ]) ]);
      ]
  in
  let once = to_string v in
  check tbool "roundtrip preserves value" true (of_string once = v);
  check tstr "reserialization is byte-identical" once
    (to_string (of_string once));
  let pretty = to_string ~indent:2 v in
  check tbool "pretty form parses back" true (of_string pretty = v)

let test_json_canonical_numbers () =
  let open Benchkit.Json in
  check tstr "integral float has no fraction" "42" (float_to_string 42.0);
  check tstr "negative integral" "-7" (float_to_string (-7.0));
  check tstr "zero" "0" (float_to_string 0.0);
  let f = 0.1 +. 0.2 in
  check (tfloat 0.0) "%.17g round-trips exactly" f
    (to_float (of_string (float_to_string f)))

let test_json_parse_errors () =
  let open Benchkit.Json in
  let fails s =
    match of_string s with
    | exception Parse_error _ -> true
    | _ -> false
  in
  check tbool "truncated object" true (fails "{\"a\": 1");
  check tbool "bare word" true (fails "flase");
  check tbool "trailing garbage" true (fails "{} x");
  check tbool "accessor mismatch raises" true
    (match to_float (String "no") with
    | exception Parse_error _ -> true
    | _ -> false)

(* ---- measurement schema ---------------------------------------------------- *)

let result ?(scenario = "purchase/asc") ?(det = [ ("rows_scanned", 100.0) ])
    ?(wall = [ ("elapsed_ms", 5.0) ]) () =
  Benchkit.Measure.make_result ~scenario ~workload:"purchase" ~mode:"asc"
    ~deterministic:det ~wallclock:wall

let test_measure_roundtrip () =
  let open Benchkit.Measure in
  let run =
    make_run ~label:"t" ~scale:"quick"
      [
        result ~scenario:"b/one" ();
        result ~scenario:"a/two"
          ~det:[ ("z", 1.0); ("a", 2.5) ]
          ~wall:[] ();
      ]
  in
  check tstr "scenarios sorted" "a/two" (List.hd run.scenarios).scenario;
  check tstr "metrics sorted" "a"
    (fst (List.hd (List.hd run.scenarios).deterministic));
  let run' = of_json (to_json run) in
  check tbool "to_json/of_json round-trips" true (run = run');
  let path = Filename.temp_file "benchkit" ".json" in
  save path run;
  let run'' = load path in
  Sys.remove path;
  check tbool "save/load round-trips" true (run = run'')

let test_measure_schema_guard () =
  let open Benchkit.Measure in
  let j = to_json (make_run ~label:"t" ~scale:"quick" [ result () ]) in
  let bumped =
    match j with
    | Benchkit.Json.Obj fields ->
        Benchkit.Json.Obj
          (List.map
             (fun (k, v) ->
               if k = "schema_version" then (k, Benchkit.Json.Float 99.0)
               else (k, v))
             fields)
    | _ -> Alcotest.fail "run did not serialize to an object"
  in
  check tbool "unknown schema version refused" true
    (match of_json bumped with
    | exception Schema_error _ -> true
    | _ -> false);
  check tbool "duplicate scenario ids refused" true
    (match make_run ~label:"t" ~scale:"quick" [ result (); result () ] with
    | exception Schema_error _ -> true
    | _ -> false)

let test_measure_fingerprint () =
  let open Benchkit.Measure in
  let base =
    make_run ~label:"engine" ~scale:"quick"
      [ result (); result ~scenario:"tpcd/off" () ]
  in
  let changed =
    make_run ~label:"engine" ~scale:"quick"
      [
        result ~det:[ ("rows_scanned", 999.0) ] ();
        result ~scenario:"tpcd/off" ();
      ]
  in
  (* fingerprints see the gated content only *)
  let relabel = { base with label = "other" } in
  let rewall =
    make_run ~label:"engine" ~scale:"quick"
      [
        result ~wall:[ ("elapsed_ms", 99.0) ] ();
        result ~scenario:"tpcd/off" ();
      ]
  in
  check tstr "label is not fingerprinted" (fingerprint base)
    (fingerprint relabel);
  check tstr "wall-clock is not fingerprinted" (fingerprint base)
    (fingerprint rewall);
  check tbool "deterministic change alters fingerprint" true
    (fingerprint base <> fingerprint changed)

(* ---- threshold table ------------------------------------------------------- *)

let test_threshold_lookup () =
  let open Benchkit.Diff in
  let t = threshold_for default_thresholds in
  check tbool "rewrite counts gate exactly" true
    ((t "rewrites.join_elimination").direction = Exact);
  check tbool "plan cache counters gate exactly" true
    ((t "plan_cache.fast_runs").direction = Exact);
  check tbool "guard fallbacks gate exactly" true
    ((t "sc_guard_fallbacks").direction = Exact);
  check tbool "maintenance outcomes gate exactly" true
    ((t "maintenance.drop.available").direction = Exact);
  check tbool "rows_scanned allows slack" true
    ((t "rows_scanned").direction = Higher_worse);
  check tbool "q-error uses the q-error rule" true
    ((t "q_error.node_max").rel_slack > (t "rows_scanned").rel_slack);
  check tstr "unknown metric falls to catch-all" ""
    (t "something_novel").prefix

(* ---- the golden pair: equal run passes, injected regression caught --------- *)

let golden_old () =
  Benchkit.Measure.make_run ~label:"old" ~scale:"quick"
    [
      result ~scenario:"purchase/asc"
        ~det:
          [
            ("rows_scanned", 4000.0);
            ("q_error.node_max", 1.8);
            ("rewrites.predicate_introduction", 4.0);
          ]
        ~wall:[ ("elapsed_ms", 10.0) ] ();
      result ~scenario:"tpcd/off"
        ~det:[ ("rows_scanned", 15208.0) ]
        ~wall:[ ("elapsed_ms", 20.0) ] ();
    ]

let test_diff_equal_run_passes () =
  let open Benchkit.Diff in
  let run = golden_old () in
  let o = compare_runs ~old_run:run ~new_run:run () in
  check tbool "identical run passes" true (passed o);
  check tint "no regressions" 0 (List.length (regressions o));
  check tbool "all metrics compared" true (o.metrics_compared >= 5);
  let rendered = Fmt.str "%a" render o in
  check tbool "render says PASS" true (contains rendered "PASS")

let test_diff_injected_regression_caught () =
  let open Benchkit.Diff in
  let old_run = golden_old () in
  let new_run =
    Benchkit.Measure.make_run ~label:"new" ~scale:"quick"
      [
        result ~scenario:"purchase/asc"
          ~det:
            [
              ("rows_scanned", 8000.0) (* doubled: work regression *);
              ("q_error.node_max", 2.9) (* estimation got worse *);
              ("rewrites.predicate_introduction", 3.0) (* lost a rewrite *);
            ]
          ~wall:[ ("elapsed_ms", 10.0) ] ();
        result ~scenario:"tpcd/off"
          ~det:[ ("rows_scanned", 15208.0) ]
          ~wall:[ ("elapsed_ms", 20.0) ] ();
      ]
  in
  let o = compare_runs ~old_run ~new_run () in
  check tbool "injected regression fails the gate" false (passed o);
  let regressed = List.map (fun f -> f.metric) (regressions o) in
  check tbool "rows_scanned caught" true (List.mem "rows_scanned" regressed);
  check tbool "q-error caught" true (List.mem "q_error.node_max" regressed);
  check tbool "lost rewrite caught" true
    (List.mem "rewrites.predicate_introduction" regressed);
  let rendered = Fmt.str "%a" render o in
  check tbool "render says FAIL" true (contains rendered "FAIL");
  check tbool "render names the scenario" true (contains rendered "purchase/asc")

let test_diff_slack_and_improvement () =
  let open Benchkit.Diff in
  let old_run =
    Benchkit.Measure.make_run ~label:"old" ~scale:"quick"
      [ result ~det:[ ("rows_scanned", 10000.0) ] ~wall:[] () ]
  in
  let within =
    Benchkit.Measure.make_run ~label:"new" ~scale:"quick"
      [ result ~det:[ ("rows_scanned", 10200.0) ] ~wall:[] () ]
  in
  check tbool "2% growth is within work slack" true
    (passed (compare_runs ~old_run ~new_run:within ()));
  let better =
    Benchkit.Measure.make_run ~label:"new" ~scale:"quick"
      [ result ~det:[ ("rows_scanned", 5000.0) ] ~wall:[] () ]
  in
  let o = compare_runs ~old_run ~new_run:better () in
  check tbool "halved work passes" true (passed o);
  check tbool "and is reported as an improvement" true
    (List.exists (fun f -> f.verdict = Improvement) o.findings)

let test_diff_missing_scenario_fails () =
  let open Benchkit.Diff in
  let old_run = golden_old () in
  let new_run =
    Benchkit.Measure.make_run ~label:"new" ~scale:"quick"
      [ List.hd old_run.Benchkit.Measure.scenarios ]
  in
  let o = compare_runs ~old_run ~new_run () in
  check tbool "dropped scenario fails the gate" false (passed o);
  check tbool "names the missing scenario" true
    (List.mem "tpcd/off" o.missing_scenarios);
  (* the converse: a scenario the baseline lacks would land ungated *)
  let o = compare_runs ~old_run:new_run ~new_run:old_run () in
  check tbool "scenario absent from the baseline fails the gate" false
    (passed o);
  check tbool "names the ungated scenario" true
    (List.mem "tpcd/off" o.added_scenarios)

let test_diff_wallclock_never_gates () =
  let open Benchkit.Diff in
  let old_run =
    Benchkit.Measure.make_run ~label:"old" ~scale:"quick"
      [ result ~det:[] ~wall:[ ("elapsed_ms", 1.0) ] () ]
  in
  let new_run =
    Benchkit.Measure.make_run ~label:"new" ~scale:"quick"
      [ result ~det:[] ~wall:[ ("elapsed_ms", 1000.0) ] () ]
  in
  let o = compare_runs ~old_run ~new_run () in
  check tbool "1000x slower still passes" true (passed o);
  check tbool "but the drift is reported" true
    (List.exists
       (fun f -> (not f.gated) && f.verdict = Regression)
       o.findings)

(* ---- the registry, twice: byte-identical gated content -------------------- *)

let test_scenario_determinism () =
  let run label =
    Benchkit.Scenario.run ~scale:Benchkit.Scenario.Quick ~label ()
  in
  let run1 = run "a" and run2 = run "b" in
  check tint "every registered scenario ran"
    (List.length Benchkit.Scenario.all)
    (List.length run1.Benchkit.Measure.scenarios);
  check tstr "fingerprints agree" (Benchkit.Measure.fingerprint run1)
    (Benchkit.Measure.fingerprint run2);
  check tbool "self-diff passes" true
    Benchkit.Diff.(passed (compare_runs ~old_run:run1 ~new_run:run2 ()))

let () =
  Alcotest.run "benchkit"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "canonical numbers" `Quick
            test_json_canonical_numbers;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
        ] );
      ( "measure",
        [
          Alcotest.test_case "roundtrip" `Quick test_measure_roundtrip;
          Alcotest.test_case "schema guard" `Quick test_measure_schema_guard;
          Alcotest.test_case "fingerprint" `Quick test_measure_fingerprint;
        ] );
      ( "diff",
        [
          Alcotest.test_case "threshold lookup" `Quick test_threshold_lookup;
          Alcotest.test_case "equal run passes" `Quick
            test_diff_equal_run_passes;
          Alcotest.test_case "injected regression caught" `Quick
            test_diff_injected_regression_caught;
          Alcotest.test_case "slack & improvement" `Quick
            test_diff_slack_and_improvement;
          Alcotest.test_case "missing scenario fails" `Quick
            test_diff_missing_scenario_fails;
          Alcotest.test_case "wall-clock never gates" `Quick
            test_diff_wallclock_never_gates;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "determinism" `Quick test_scenario_determinism;
        ] );
    ]
