(* Tests for the discovery algorithms: linear regression, correlation
   bands, join holes (against a brute-force emptiness oracle), stripped
   partitions, FD mining (against brute force), domain and difference
   bands. *)

open Rel

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tfloat = Alcotest.float

(* ---- linreg ------------------------------------------------------------- *)

let test_linreg_exact () =
  let points = Array.init 50 (fun i ->
      let x = float_of_int i in
      (x, (3.0 *. x) +. 2.0)) in
  let fit = Mining.Linreg.fit points in
  check (tfloat 1e-9) "k" 3.0 fit.Mining.Linreg.k;
  check (tfloat 1e-9) "b" 2.0 fit.Mining.Linreg.b;
  check (tfloat 1e-9) "r2" 1.0 fit.Mining.Linreg.r2;
  check (tfloat 1e-9) "no residual" 0.0
    (Array.fold_left
       (fun m r -> Float.max m (Float.abs r))
       0.0 fit.Mining.Linreg.residuals)

let float_pair_table name rows =
  let t =
    Table.create
      (Schema.make name
         [ Schema.column "a" Value.TFloat; Schema.column "b" Value.TFloat ])
  in
  List.iter
    (fun (a, b) ->
      ignore (Table.insert t (Tuple.make [ Value.Float a; Value.Float b ])))
    rows;
  t

let band_at (m : Mining.Band.mined) q = List.assoc q m.Mining.Band.bands

let test_linreg_bands () =
  (* a = b with one outlier at +100: the line's 100% band spans the
     outlier, its 99% band does not *)
  let t =
    float_pair_table "lb"
      (List.init 100 (fun i ->
           let x = float_of_int i in
           if i = 50 then (x +. 100.0, x) else (x, x)))
  in
  let m =
    Option.get
      (Mining.Band.mine ~confidences:[ 1.0; 0.99 ] t Mining.Band.Line ~a:"a"
         ~b:"b")
  in
  let b100 = band_at m 1.0 and b99 = band_at m 0.99 in
  check tbool "outlier dominates 100% band" true
    (Mining.Band.width b100 > 50.0);
  check tbool "99% band tiny" true (Mining.Band.width b99 < 5.0);
  check (tfloat 0.02) "coverage of 99% band" 0.99 (Mining.Band.coverage t b99)

(* ---- line bands ---------------------------------------------------------- *)

let corr_table ?(rows = 500) ?(noise = 2.0) ?(outliers = 0) () =
  let schema =
    Schema.make "ct"
      [
        Schema.column "a" Value.TFloat;
        Schema.column "b" Value.TFloat;
        Schema.column "junk" Value.TString;
      ]
  in
  let t = Table.create schema in
  let rng = Stats.Rng.create 77 in
  for i = 0 to rows - 1 do
    let b = Stats.Rng.float_range rng 0.0 100.0 in
    let bump =
      if i < outliers then 500.0 else Stats.Rng.float_range rng (-.noise) noise
    in
    ignore
      (Table.insert t
         (Tuple.make
            [
              Value.Float ((2.0 *. b) +. 5.0 +. bump);
              Value.Float b;
              Value.String "x";
            ]))
  done;
  t

let mine_line t = Mining.Band.mine t Mining.Band.Line ~a:"a" ~b:"b"

let test_correlation_mine () =
  let t = corr_table () in
  match mine_line t with
  | None -> Alcotest.fail "correlation not found"
  | Some m ->
      let b100 = band_at m 1.0 in
      let line = b100.Mining.Band.map in
      check (tfloat 0.1) "k" 2.0 line.Mining.Band.k;
      check (tfloat 1.0) "c" 5.0 line.Mining.Band.c;
      check tbool "selective" true (m.Mining.Band.selectivity < 0.25);
      check (tfloat 1e-9) "full coverage" 1.0 (Mining.Band.coverage t b100)

let test_correlation_rejects_noise () =
  (* uncorrelated data reads far above the advisor's selectivity bound *)
  let rng = Stats.Rng.create 3 in
  let t =
    float_pair_table "nt"
      (List.init 500 (fun _ ->
           let a = Stats.Rng.float_range rng 0.0 100.0 in
           (a, Stats.Rng.float_range rng 0.0 100.0)))
  in
  check tbool "not selective" true
    ((Option.get (mine_line t)).Mining.Band.selectivity > 0.25)

let test_correlation_outlier_bands () =
  let t = corr_table ~outliers:5 () in
  let m = Option.get (mine_line t) in
  check tbool "99% band much tighter" true
    (Mining.Band.width (band_at m 0.99)
    < Mining.Band.width (band_at m 1.0) /. 10.0)

(* ---- join holes --------------------------------------------------------------- *)

let holes_fixture () =
  (* left(join j, a) x right(join j, b): a in 0..99, b in 0..99, but pairs
     only where NOT (a in [40,60) and b in [40,60)) — one clear hole *)
  let ls =
    Schema.make "hl"
      [ Schema.column "j" Value.TInt; Schema.column "a" Value.TFloat ]
  and rs =
    Schema.make "hr"
      [ Schema.column "j" Value.TInt; Schema.column "b" Value.TFloat ]
  in
  let left = Table.create ls and right = Table.create rs in
  let rng = Stats.Rng.create 13 in
  let k = ref 0 in
  while Table.cardinality left < 800 do
    let a = Stats.Rng.float_range rng 0.0 100.0 in
    let b = Stats.Rng.float_range rng 0.0 100.0 in
    if not (a >= 40.0 && a < 60.0 && b >= 40.0 && b < 60.0) then begin
      incr k;
      ignore
        (Table.insert left (Tuple.make [ Value.Int !k; Value.Float a ]));
      ignore
        (Table.insert right (Tuple.make [ Value.Int !k; Value.Float b ]))
    end
  done;
  (left, right)

let test_join_holes_find_hole () =
  let left, right = holes_fixture () in
  match
    Mining.Join_holes.mine ~grid:32 ~left ~right ~join_left:"j" ~join_right:"j"
      ~left_col:"a" ~right_col:"b" ()
  with
  | None -> Alcotest.fail "no result"
  | Some h ->
      check tbool "found rectangles" true (h.Mining.Join_holes.rects <> []);
      let biggest = List.hd h.Mining.Join_holes.rects in
      (* the planted hole must be (mostly) covered by the biggest rect *)
      check tbool "covers planted hole core" true
        (biggest.Mining.Join_holes.a_lo < 45.0
        && biggest.Mining.Join_holes.a_hi > 55.0
        && biggest.Mining.Join_holes.b_lo < 45.0
        && biggest.Mining.Join_holes.b_hi > 55.0);
      (* every reported rect must be verifiably empty *)
      List.iter
        (fun r ->
          check tbool "rect empty" true
            (Mining.Join_holes.rect_is_empty h ~left ~right r))
        h.Mining.Join_holes.rects

let test_join_holes_all_rects_empty_random () =
  (* random sparse data: whatever rects come out, they must be empty *)
  let ls =
    Schema.make "hl2"
      [ Schema.column "j" Value.TInt; Schema.column "a" Value.TFloat ]
  and rs =
    Schema.make "hr2"
      [ Schema.column "j" Value.TInt; Schema.column "b" Value.TFloat ]
  in
  let left = Table.create ls and right = Table.create rs in
  let rng = Stats.Rng.create 99 in
  for k = 1 to 150 do
    ignore
      (Table.insert left
         (Tuple.make
            [ Value.Int k; Value.Float (Stats.Rng.float_range rng 0.0 10.0) ]));
    ignore
      (Table.insert right
         (Tuple.make
            [ Value.Int k; Value.Float (Stats.Rng.float_range rng 0.0 10.0) ]))
  done;
  match
    Mining.Join_holes.mine ~grid:16 ~min_area:0.0 ~left ~right ~join_left:"j"
      ~join_right:"j" ~left_col:"a" ~right_col:"b" ()
  with
  | None -> Alcotest.fail "no result"
  | Some h ->
      check tbool "some rects on sparse data" true
        (h.Mining.Join_holes.rects <> []);
      List.iter
        (fun r ->
          check tbool "rect verifiably empty" true
            (Mining.Join_holes.rect_is_empty h ~left ~right r))
        h.Mining.Join_holes.rects

(* maximality on the grid: brute-force check on small grids *)
let maximal_rects_prop =
  QCheck.Test.make ~name:"grid rects are empty and maximal" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 20) (pair (int_range 0 5) (int_range 0 5)))
    (fun points ->
      let g = 6 in
      let occupied = Array.make_matrix g g false in
      List.iter (fun (x, y) -> occupied.(y).(x) <- true) points;
      let rects = Mining.Join_holes.maximal_empty_rects occupied in
      let empty (x0, y0, x1, y1) =
        let ok = ref true in
        for y = y0 to y1 do
          for x = x0 to x1 do
            if occupied.(y).(x) then ok := false
          done
        done;
        !ok
      in
      let inside (x0, y0, x1, y1) =
        x0 >= 0 && y0 >= 0 && x1 < g && y1 < g && x0 <= x1 && y0 <= y1
      in
      let maximal (x0, y0, x1, y1) =
        let grow_left = x0 > 0 && empty (x0 - 1, y0, x1, y1) in
        let grow_right = x1 < g - 1 && empty (x0, y0, x1 + 1, y1) in
        let grow_up = y0 > 0 && empty (x0, y0 - 1, x1, y1) in
        let grow_down = y1 < g - 1 && empty (x0, y0, x1, y1 + 1) in
        not (grow_left || grow_right || grow_up || grow_down)
      in
      List.for_all
        (fun r -> inside r && empty r && maximal r)
        rects)

(* completeness: every maximal empty rect found by brute force is reported *)
let maximal_rects_complete_prop =
  QCheck.Test.make ~name:"grid rect enumeration is complete" ~count:60
    QCheck.(list_of_size Gen.(int_range 1 12) (pair (int_range 0 4) (int_range 0 4)))
    (fun points ->
      let g = 5 in
      let occupied = Array.make_matrix g g false in
      List.iter (fun (x, y) -> occupied.(y).(x) <- true) points;
      let reported = Mining.Join_holes.maximal_empty_rects occupied in
      let empty (x0, y0, x1, y1) =
        let ok = ref true in
        for y = y0 to y1 do
          for x = x0 to x1 do
            if occupied.(y).(x) then ok := false
          done
        done;
        !ok
      in
      (* brute force all maximal empty rects *)
      let all = ref [] in
      for x0 = 0 to g - 1 do
        for y0 = 0 to g - 1 do
          for x1 = x0 to g - 1 do
            for y1 = y0 to g - 1 do
              if empty (x0, y0, x1, y1) then all := (x0, y0, x1, y1) :: !all
            done
          done
        done
      done;
      let contains (a0, b0, a1, b1) (x0, y0, x1, y1) =
        a0 <= x0 && b0 <= y0 && a1 >= x1 && b1 >= y1
      in
      let maximal =
        List.filter
          (fun r ->
            not (List.exists (fun r' -> r' <> r && contains r' r) !all))
          !all
      in
      List.for_all (fun r -> List.mem r reported) maximal)

(* ---- partitions & FDs ------------------------------------------------------------ *)

let fd_table rows =
  let schema =
    Schema.make "ft"
      [
        Schema.column "x" Value.TInt;
        Schema.column "y" Value.TInt;
        Schema.column "z" Value.TInt;
      ]
  in
  let t = Table.create schema in
  List.iter
    (fun (x, y, z) ->
      ignore
        (Table.insert t (Tuple.make [ Value.Int x; Value.Int y; Value.Int z ])))
    rows;
  t

let test_partition_basics () =
  let t = fd_table [ (1, 1, 1); (1, 1, 2); (2, 2, 3); (2, 3, 4); (3, 4, 5) ] in
  let px = Mining.Partition.of_column t 0 in
  check tint "x classes (stripped)" 2 (Mining.Partition.class_count px);
  check tint "x error" 2 (Mining.Partition.error px);
  let pxy = Mining.Partition.of_columns t [ 0; 1 ] in
  check tint "xy error" 1 (Mining.Partition.error pxy)

let test_fd_mine () =
  (* y = x * 10 functionally: x -> y; z unique so z -> everything *)
  let rows = List.init 60 (fun i -> (i mod 6, (i mod 6) * 10, i)) in
  let t = fd_table rows in
  let fds = Mining.Fd_mine.mine ~max_lhs:2 t in
  let has lhs rhs =
    List.exists
      (fun f -> f.Mining.Fd_mine.lhs = lhs && f.Mining.Fd_mine.rhs = rhs)
      fds
  in
  check tbool "x -> y" true (has [ "x" ] "y");
  check tbool "y -> x" true (has [ "y" ] "x");
  check tbool "z -> x" true (has [ "z" ] "x");
  check tbool "not x -> z" false (has [ "x" ] "z");
  (* every reported FD must actually hold *)
  List.iter
    (fun fd -> check tbool "holds" true (Mining.Fd_mine.holds t fd))
    fds

let test_fd_minimality () =
  let rows = List.init 60 (fun i -> (i mod 6, (i mod 6) * 10, i)) in
  let t = fd_table rows in
  let fds = Mining.Fd_mine.mine ~max_lhs:2 t in
  (* since x -> y holds, the non-minimal {x,z} -> y must not be reported *)
  check tbool "minimal only" false
    (List.exists
       (fun f ->
         List.length f.Mining.Fd_mine.lhs = 2 && f.Mining.Fd_mine.rhs = "y"
         && List.mem "x" f.Mining.Fd_mine.lhs)
       fds)

let fd_mine_sound_prop =
  QCheck.Test.make ~name:"mined FDs hold; missing FDs don't" ~count:60
    QCheck.(
      list_of_size
        Gen.(int_range 5 40)
        (triple (int_range 0 3) (int_range 0 3) (int_range 0 3)))
    (fun rows ->
      let t = fd_table rows in
      let fds = Mining.Fd_mine.mine ~max_lhs:1 t in
      let holds_mined =
        List.for_all (fun fd -> Mining.Fd_mine.holds t fd) fds
      in
      (* brute force single-attribute FDs *)
      let cols = [ "x"; "y"; "z" ] in
      let complete =
        List.for_all
          (fun lhs ->
            List.for_all
              (fun rhs ->
                if lhs = rhs then true
                else
                  let fd = { Mining.Fd_mine.table = "ft"; lhs = [ lhs ]; rhs } in
                  let mined =
                    List.exists
                      (fun f ->
                        f.Mining.Fd_mine.lhs = [ lhs ]
                        && f.Mining.Fd_mine.rhs = rhs)
                      fds
                  in
                  mined = Mining.Fd_mine.holds t fd)
              cols)
          cols
      in
      holds_mined && complete)

let test_fd_confidence () =
  (* x -> y holds for all but one row *)
  let rows = (0, 99, 0) :: List.init 99 (fun i -> (i mod 5, i mod 5 * 10, i)) in
  let t = fd_table rows in
  let fd = { Mining.Fd_mine.table = "ft"; lhs = [ "x" ]; rhs = "y" } in
  check tbool "broken" false (Mining.Fd_mine.holds t fd);
  check (tfloat 0.011) "confidence 0.99" 0.99 (Mining.Fd_mine.confidence t fd)

(* ---- domain & diff bands ----------------------------------------------------------- *)

let test_domain_mining () =
  let t = fd_table [ (5, 1, 1); (9, 2, 2); (7, 3, 3) ] in
  let r = Option.get (Mining.Domain_mine.mine_range t ~column:"x") in
  check tbool "lo" true (r.Mining.Domain_mine.lo = Value.Int 5);
  check tbool "hi" true (r.Mining.Domain_mine.hi = Value.Int 9);
  let vs = Option.get (Mining.Domain_mine.mine_value_set t ~column:"x") in
  check tint "three values" 3 (List.length vs.Mining.Domain_mine.values);
  check tbool "overflow" true
    (Mining.Domain_mine.mine_value_set ~max_values:2 t ~column:"x" = None)

let diff_fixture () =
  let schema =
    Schema.make "dt"
      [ Schema.column "lo" Value.TDate; Schema.column "hi" Value.TDate ]
  in
  let t = Table.create schema in
  let rng = Stats.Rng.create 21 in
  for _ = 1 to 1000 do
    let base = Stats.Rng.int rng 1000 in
    let d =
      if Stats.Rng.coin rng 0.01 then 22 + Stats.Rng.int rng 50
      else Stats.Rng.int rng 22
    in
    ignore
      (Table.insert t
         (Tuple.make [ Value.Date base; Value.Date (base + d) ]))
  done;
  t

let band_of d b =
  Option.get (Mining.Band.of_pred (Mining.Diff_band.to_check_pred d b))

let test_diff_band () =
  let t = diff_fixture () in
  match Mining.Diff_band.mine t ~col_hi:"hi" ~col_lo:"lo" with
  | None -> Alcotest.fail "no diff band"
  | Some d ->
      let b100 = Option.get (Mining.Diff_band.band_with d ~confidence:1.0) in
      let b95 = Option.get (Mining.Diff_band.band_with d ~confidence:0.95) in
      check tbool "100% band includes tail" true
        (b100.Mining.Diff_band.d_max >= 22.0);
      check tbool "95% band excludes tail" true
        (b95.Mining.Diff_band.d_max <= 21.0);
      check tbool "band min sane" true (b95.Mining.Diff_band.d_min >= 0.0);
      let cov = Mining.Band.coverage t (band_of d b95) in
      check tbool "coverage >= 0.95" true (cov >= 0.95)

let diff_band_coverage_prop =
  QCheck.Test.make ~name:"diff band q-coverage is >= q" ~count:50
    QCheck.(list_of_size Gen.(int_range 40 120) (int_range 0 100))
    (fun diffs ->
      let schema =
        Schema.make "dq"
          [ Schema.column "lo" Value.TInt; Schema.column "hi" Value.TInt ]
      in
      let t = Table.create schema in
      List.iter
        (fun d ->
          ignore (Table.insert t (Tuple.make [ Value.Int 0; Value.Int d ])))
        diffs;
      match
        Mining.Diff_band.mine ~confidences:[ 0.9; 1.0 ] ~min_rows:1 t
          ~col_hi:"hi" ~col_lo:"lo"
      with
      | None -> false
      | Some d ->
          List.for_all
            (fun (b : Mining.Diff_band.band) ->
              Mining.Band.coverage t (band_of d b)
              >= b.Mining.Diff_band.confidence -. 1e-9)
            d.Mining.Diff_band.bands)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "mining"
    [
      ( "linreg",
        [
          Alcotest.test_case "exact" `Quick test_linreg_exact;
          Alcotest.test_case "bands" `Quick test_linreg_bands;
        ] );
      ( "correlation",
        [
          Alcotest.test_case "mine" `Quick test_correlation_mine;
          Alcotest.test_case "rejects noise" `Quick
            test_correlation_rejects_noise;
          Alcotest.test_case "outlier bands" `Quick
            test_correlation_outlier_bands;
        ] );
      ( "join_holes",
        [
          Alcotest.test_case "finds planted hole" `Quick
            test_join_holes_find_hole;
          Alcotest.test_case "random rects empty" `Quick
            test_join_holes_all_rects_empty_random;
        ]
        @ qsuite [ maximal_rects_prop; maximal_rects_complete_prop ] );
      ( "fd",
        [
          Alcotest.test_case "partitions" `Quick test_partition_basics;
          Alcotest.test_case "mine" `Quick test_fd_mine;
          Alcotest.test_case "minimality" `Quick test_fd_minimality;
          Alcotest.test_case "confidence" `Quick test_fd_confidence;
        ]
        @ qsuite [ fd_mine_sound_prop ] );
      ( "domain-diff",
        [
          Alcotest.test_case "domain" `Quick test_domain_mining;
          Alcotest.test_case "diff band" `Quick test_diff_band;
        ]
        @ qsuite [ diff_band_coverage_prop ] );
    ]
