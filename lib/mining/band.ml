(* Bands between two columns of one row: the paper's headline soft
   constraints.  A band states that a row whose column [b] is x has its
   banded column [a] in [k·x + c − below, k·x + c + above], in one of the
   two shapes a check spells it:
   - a difference, [a - b BETWEEN lo AND hi] (k = 1, c = 0): §4.4's
     "ship_date is between order_date and three weeks later";
   - a line, [a BETWEEN k·b + c − e AND k·b + c + e]: §2's linear
     correlation, after [10].
   However a band was declared or mined, every consumer reads it here:
   the optimizer's range images, maintenance's widening and re-mining,
   measured confidence, the catalog linter and the index advisor's hints.
   The miner is here too — one algorithm for both shapes: the narrowest
   window over the residual a − k·b − c at each confidence, with k = 1,
   c = 0 for a difference and a least-squares fit for a line. *)

open Rel

type shape = Diff | Line

(* One direction of a band: a row whose [src] is x has [dst] in
   [k·x + c − below, k·x + c + above]. *)
type map = {
  src : Expr.col_ref;
  dst : Expr.col_ref;
  k : float;
  c : float;
  below : float;
  above : float;
}

(* [map] runs from [b] to the banded column [a]; a line keeps
   [below = above] *)
type t = { shape : shape; map : map }

let diff ~a ~b ~lo ~hi =
  {
    shape = Diff;
    map = { src = b; dst = a; k = 1.0; c = 0.0; below = -.lo; above = hi };
  }

let line ~a ~b ~k ~c ~e =
  { shape = Line; map = { src = b; dst = a; k; c; below = e; above = e } }

let banded t = t.map.dst

(* the rule-name prefix the optimizer logs a band's rewrites under *)
let prefix t = match t.shape with Diff -> "band" | Line -> "corr"

let width t = t.map.below +. t.map.above

let numeric v =
  match v with
  | Value.Int i -> Some (float_of_int i)
  | Value.Float f -> Some f
  | Value.Date d -> Some (float_of_int d)
  | Value.Null | Value.String _ | Value.Bool _ -> None

let of_pred (p : Expr.pred) =
  let num = function Expr.Const v -> numeric v | _ -> None in
  match p with
  | Expr.Between (Expr.Binop (Expr.Sub, Expr.Col a, Expr.Col b), lo, hi) -> (
      match (num lo, num hi) with
      | Some lo, Some hi -> Some (diff ~a ~b ~lo ~hi)
      | _ -> None)
  | Expr.Between
      ( Expr.Col a,
        Expr.Binop
          ( Expr.Sub,
            (Expr.Binop (Expr.Add, Expr.Binop (Expr.Mul, k, Expr.Col b), c) as
             l),
            e ),
        Expr.Binop (Expr.Add, l', e') )
    when l = l' && e = e' -> (
      match (num k, num c, num e) with
      | Some k, Some c, Some e -> Some (line ~a ~b ~k ~c ~e)
      | _ -> None)
  | _ -> None

let of_check check = List.filter_map of_pred (Expr.conjuncts check)

let widths check =
  List.map (fun t -> ((banded t).Expr.col, width t)) (of_check check)

(* Constants print exactly: an integral value as an INT, anything else as
   the full float — rounding would exclude edge rows and break the band's
   validity claim. *)
let to_pred t =
  let const x =
    Expr.Const
      (if Float.is_integer x && Float.abs x < 0x1p53 then
         Value.Int (int_of_float x)
       else Value.Float x)
  in
  let m = t.map in
  match t.shape with
  | Diff ->
      Expr.Between
        ( Expr.Binop (Expr.Sub, Expr.Col m.dst, Expr.Col m.src),
          const (-.m.below),
          const m.above )
  | Line ->
      let l =
        Expr.Binop
          ( Expr.Add,
            Expr.Binop (Expr.Mul, const m.k, Expr.Col m.src),
            const m.c )
      in
      Expr.Between
        ( Expr.Col m.dst,
          Expr.Binop (Expr.Sub, l, const m.below),
          Expr.Binop (Expr.Add, l, const m.above) )

(* The directions in the order predicate introduction tries them; the
   first is the one twinning takes: a difference's a→b, a line's b→a.  A
   flat line has no inverse. *)
let maps t =
  let m = t.map in
  let inverse =
    if Float.abs m.k <= 1e-12 then []
    else
      let s = Float.abs m.k in
      let below, above =
        if m.k > 0.0 then (m.above /. s, m.below /. s)
        else (m.below /. s, m.above /. s)
      in
      [
        {
          src = m.dst;
          dst = m.src;
          k = 1.0 /. m.k;
          c = (if m.c = 0.0 then 0.0 else -.m.c /. m.k);
          below;
          above;
        };
      ]
  in
  match t.shape with Diff -> inverse @ [ m ] | Line -> m :: inverse

(* The image of the range [lo, hi] of [m.src] (a missing end is
   unbounded) on [m.dst]. *)
let image m (lo, hi) =
  let ep bound = Option.map (fun x -> bound ((m.k *. x) +. m.c)) in
  let from_lo, from_hi = if m.k >= 0.0 then (lo, hi) else (hi, lo) in
  (ep (fun y -> y -. m.below) from_lo, ep (fun y -> y +. m.above) from_hi)

(* Whether the check holds on a row with these column values, computed as
   the check computes it: the difference against its bounds, or [a]
   against the line's two bounds. *)
let holds t ~a ~b =
  let m = t.map in
  match t.shape with
  | Diff ->
      let d = a -. b in
      -.m.below <= d && d <= m.above
  | Line ->
      let x = (m.k *. b) +. m.c in
      x -. m.below <= a && a <= x +. m.above

(* A line's [e] grown, a few ulps at a time, until the check holds on
   the row [a, b]: the residual and the check's two bounds round apart. *)
let rec fit_line t ~a ~b =
  if holds t ~a ~b || not (Float.is_finite a && Float.is_finite b) then t
  else
    let m = t.map in
    let x = (m.k *. b) +. m.c in
    let e =
      Float.max (Float.succ m.below)
        (m.below +. (epsilon_float *. Float.max (Float.abs x) (Float.abs a)))
    in
    fit_line { t with map = { m with below = e; above = e } } ~a ~b

(* The band grown just enough to hold on the row [a, b]: a difference's
   bounds move to the row's difference, a line's [e] to its residual. *)
let widen t ~a ~b =
  if holds t ~a ~b then t
  else
    let m = t.map in
    match t.shape with
    | Diff ->
        let d = a -. b in
        let below = Float.max m.below (-.d)
        and above = Float.max m.above d in
        { t with map = { m with below; above } }
    | Line ->
        let e = Float.max m.below (Float.abs (a -. ((m.k *. b) +. m.c))) in
        fit_line { t with map = { m with below = e; above = e } } ~a ~b

(* No row can satisfy both: two directions with the same columns and the
   same slope whose images of every point are disjoint. *)
let disjoint t1 t2 =
  let same (r : Expr.col_ref) (s : Expr.col_ref) =
    String.lowercase_ascii r.Expr.col = String.lowercase_ascii s.Expr.col
  in
  let m1 = t1.map in
  List.exists
    (fun m2 ->
      same m1.src m2.src && same m1.dst m2.dst && m1.k = m2.k
      && (m1.c +. m1.above < m2.c -. m2.below
         || m2.c +. m2.above < m1.c -. m1.below))
    (maps t2)

(* The share of rows with both columns non-NULL that the band holds on:
   its measured confidence. *)
let coverage table t =
  let schema = Table.schema table in
  let ia = Schema.index_exn schema t.map.dst.Expr.col
  and ib = Schema.index_exn schema t.map.src.Expr.col in
  let total = ref 0 and hits = ref 0 in
  Table.iter table ~f:(fun row ->
      match (numeric (Tuple.get row ia), numeric (Tuple.get row ib)) with
      | Some a, Some b ->
          incr total;
          if holds t ~a ~b then incr hits
      | _ -> ());
  if !total = 0 then 1.0 else float_of_int !hits /. float_of_int !total

(* ---- the miner -------------------------------------------------------- *)

type mined = {
  table : string;
  rows : int;
  selectivity : float;
  bands : (float * t) list;
}

(* the narrowest [lo, hi] holding a [q] fraction of the sorted values:
   slide a window of ceil(q·n) of them *)
let window sorted q =
  let n = Array.length sorted in
  let w = max 1 (int_of_float (ceil (q *. float_of_int n))) in
  let best = ref (sorted.(0), sorted.(n - 1)) in
  for i = 0 to n - w do
    let lo = sorted.(i) and hi = sorted.(i + w - 1) in
    let blo, bhi = !best in
    if hi -. lo < bhi -. blo then best := (lo, hi)
  done;
  !best

let mine ?(confidences = [ 1.0; 0.99; 0.95; 0.9 ]) ?(min_rows = 32) table
    shape ~a ~b =
  let schema = Table.schema table in
  let ia = Schema.index_exn schema a and ib = Schema.index_exn schema b in
  let dtype i = (Schema.column_at schema i).Schema.dtype in
  let numeric_col i =
    match dtype i with Value.TInt | Value.TFloat -> true | _ -> false
  in
  let well_typed =
    (* a difference is meaningful between two dates or two numbers, a
       line only between numbers *)
    (numeric_col ia && numeric_col ib)
    || (shape = Diff && dtype ia = Value.TDate && dtype ib = Value.TDate)
  in
  if not well_typed then None
  else
    (* the banded column's values and the other's, rows with both
       non-NULL, unboxed *)
    let xs = Array.make (Table.cardinality table) 0.0 in
    let ys = Array.make (Table.cardinality table) 0.0 in
    let n = ref 0 in
    Table.iter table ~f:(fun row ->
        match (numeric (Tuple.get row ia), numeric (Tuple.get row ib)) with
        | Some x, Some y ->
            xs.(!n) <- x;
            ys.(!n) <- y;
            incr n
        | _ -> ());
    let n = !n in
    if n < min_rows then None
    else
      let k, c0 =
        match shape with
        | Diff -> (1.0, 0.0)
        | Line ->
            let fit = Linreg.fit (Array.init n (fun i -> (ys.(i), xs.(i)))) in
            (fit.Linreg.k, fit.Linreg.b)
      in
      let residual i =
        match shape with
        | Diff -> xs.(i) -. ys.(i)
        | Line -> xs.(i) -. ((k *. ys.(i)) +. c0)
      in
      let sorted = Array.init n residual in
      Array.sort Float.compare sorted;
      let a_min = ref xs.(0) and a_max = ref xs.(0) in
      for i = 1 to n - 1 do
        a_min := Float.min !a_min xs.(i);
        a_max := Float.max !a_max xs.(i)
      done;
      let range = !a_max -. !a_min in
      let selectivity =
        if range > 0.0 then (sorted.(n - 1) -. sorted.(0)) /. range
        else infinity
      in
      let a = Expr.col a and b = Expr.col b in
      let band_for q =
        let lo, hi = window sorted q in
        match shape with
        | Diff -> diff ~a ~b ~lo ~hi
        | Line ->
            (* centre the line on the window, then round [e] outward so
               the check holds on every row the window holds *)
            let t =
              ref
                (line ~a ~b ~k ~c:(c0 +. ((lo +. hi) /. 2.0))
                   ~e:((hi -. lo) /. 2.0))
            in
            for i = 0 to n - 1 do
              let r = residual i in
              if r >= lo && r <= hi then t := fit_line !t ~a:xs.(i) ~b:ys.(i)
            done;
            !t
      in
      let bands =
        confidences
        |> List.sort_uniq (fun a b -> Float.compare b a)
        |> List.map (fun q -> (q, band_for q))
      in
      Some { table = Table.name table; rows = n; selectivity; bands }

(* Re-mine [t] from [table]'s current rows: the same columns, the same
   shape, at [confidence]. *)
let remine table t ~confidence =
  match
    mine ~confidences:[ confidence ] table t.shape ~a:t.map.dst.Expr.col
      ~b:t.map.src.Expr.col
  with
  | Some { bands = [ (_, t') ]; _ } -> Some t'
  | _ -> None
