(* Self-tests for the benchmark's own arithmetic: percentiles and
   histograms, operator self time, and the unaccounted bucket. *)

let close = Alcotest.float 1e-9

let test_percentiles () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check close "p50 of 1..100" 50.0 (Pctl.percentile xs 0.5);
  Alcotest.check close "p99 of 1..100" 99.0 (Pctl.percentile xs 0.99);
  Alcotest.check close "p100 is the max" 100.0 (Pctl.percentile xs 1.0);
  Alcotest.check close "p0 is the min" 1.0 (Pctl.percentile xs 0.0);
  Alcotest.check close "order does not matter" 3.0
    (Pctl.median [ 5.0; 1.0; 3.0; 4.0; 2.0 ]);
  Alcotest.(check bool) "empty sample is nan" true (Float.is_nan (Pctl.median []));
  Alcotest.check close "geomean" 4.0 (Pctl.geomean [ 2.0; 8.0 ])

let test_histogram () =
  (* two modes a decade apart land in separate buckets; the median of
     an even split sits in the lower mode, the p99 in the upper *)
  let fast = List.init 50 (fun _ -> 0.09) and slow = List.init 50 (fun _ -> 1.2) in
  let h = Pctl.histogram (fast @ slow) in
  Alcotest.(check int) "two buckets" 2 (List.length h);
  let (lo1, hi1, c1), (lo2, hi2, c2) = (List.nth h 0, List.nth h 1) in
  Alcotest.(check int) "fast count" 50 c1;
  Alcotest.(check int) "slow count" 50 c2;
  Alcotest.(check bool) "fast bucket holds 0.09" true (lo1 <= 0.09 && 0.09 < hi1);
  Alcotest.(check bool) "slow bucket holds 1.2" true (lo2 <= 1.2 && 1.2 < hi2);
  Alcotest.(check bool) "buckets are a quarter decade wide" true
    (Float.abs ((hi1 /. lo1) -. (10.0 ** 0.25)) < 1e-9);
  Alcotest.(check int) "edges are exact" 1 (List.length (Pctl.histogram [ 1.0; 1.5 ]));
  Alcotest.(check (list (triple (float 0.0) (float 0.0) int))) "zero samples"
    [ (0.0, 0.0, 2) ] (Pctl.histogram [ 0.0; 0.0 ])

let test_self_times () =
  (* Union(10) -> [Scan(4); Filter(5) -> Scan(3)] *)
  let nodes = [ (0, 10.0); (1, 4.0); (1, 5.0); (2, 3.0) ] in
  Alcotest.(check (list close)) "self = elapsed - direct children"
    [ 1.0; 4.0; 2.0; 3.0 ] (Spans.self_times nodes);
  Alcotest.(check (list close)) "self times sum to the root's elapsed" [ 10.0 ]
    [ List.fold_left ( +. ) 0.0 (Spans.self_times nodes) ];
  Alcotest.(check (list close)) "a leaf is all self" [ 7.0 ] (Spans.self_times [ (0, 7.0) ]);
  (* a deeper sibling after a subtree is not a child of the first node *)
  Alcotest.(check (list close)) "siblings at depth 1 only"
    [ 2.0; 1.0; 1.0; 2.0 ]
    (Spans.self_times [ (0, 6.0); (1, 2.0); (2, 1.0); (1, 2.0) ])

let test_unaccounted () =
  Alcotest.check close "round trip minus layers" 0.25
    (Spans.unaccounted ~round_trip_ms:1.0 [ 0.5; 0.25 ]);
  Alcotest.check close "no layers: all unaccounted" 1.0
    (Spans.unaccounted ~round_trip_ms:1.0 []);
  Alcotest.check close "layers longer than the trip go negative" (-0.5)
    (Spans.unaccounted ~round_trip_ms:1.0 [ 1.5 ])

let test_spans () =
  let t = Spans.create () in
  let top = Spans.record t ~req:7 "client.request" 1.0 2.0 in
  ignore (Spans.record t ~req:7 ~parent:top "client.decode" 1.5 2.0);
  let all = Spans.all [ t ] in
  Alcotest.(check (list string)) "recording order kept"
    [ "client.request"; "client.decode" ]
    (List.map (fun s -> s.Spans.name) all);
  Alcotest.(check int) "child names its parent" top (List.nth all 1).Spans.parent;
  Alcotest.(check (list close)) "durations in ms" [ 500.0 ]
    (Spans.durations_ms all "client.decode")

let () =
  Alcotest.run "scbench"
    [
      ( "pctl",
        [
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "histogram" `Quick test_histogram;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self times" `Quick test_self_times;
          Alcotest.test_case "unaccounted" `Quick test_unaccounted;
          Alcotest.test_case "recorder" `Quick test_spans;
        ] );
    ]
