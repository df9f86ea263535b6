(* Equi-depth histograms over column values, the workhorse of selectivity
   estimation (paper §5: "frequency and histogram statistics").

   A histogram is built from a sorted multiset of non-null values.  Bucket
   [i] covers (lo_i, hi_i] (the first bucket includes its lower bound) and
   records its row count and distinct count.  Estimation interpolates
   uniformly within a bucket. *)

open Rel

type bucket = {
  lo : Value.t; (* exclusive, except for the very first bucket *)
  hi : Value.t; (* inclusive *)
  count : int;
  distinct : int;
}

type t = {
  buckets : bucket array;
  total : int; (* non-null rows represented *)
}

let empty = { buckets = [||]; total = 0 }

let total t = t.total
let buckets t = Array.to_list t.buckets

(* [arr] holds non-null values in [Value.compare_total] order. *)
let of_sorted ?(buckets = 32) arr =
  let n = Array.length arr in
  if n = 0 then empty
  else begin
    let nbuckets = max 1 (min buckets n) in
    let out = ref [] in
    let start = ref 0 in
    for b = 0 to nbuckets - 1 do
      (* target end index for bucket b (equi-depth) *)
      let stop = ref (n * (b + 1) / nbuckets) in
      if !stop > !start then begin
        (* extend so equal values never straddle buckets *)
        while
          !stop < n && Value.equal_total arr.(!stop - 1) arr.(!stop)
        do
          incr stop
        done;
        let lo = if !start = 0 then arr.(0) else arr.(!start - 1) in
        let hi = arr.(!stop - 1) in
        let distinct = ref 1 in
        for i = !start + 1 to !stop - 1 do
          if not (Value.equal_total arr.(i - 1) arr.(i)) then incr distinct
        done;
        out := { lo; hi; count = !stop - !start; distinct = !distinct } :: !out;
        start := !stop
      end
    done;
    { buckets = Array.of_list (List.rev !out); total = n }
  end

(* [values] need not be sorted; nulls are dropped. *)
let build ?buckets values =
  let arr = Array.of_list (List.filter (fun v -> not (Value.is_null v)) values) in
  Array.sort Value.compare_total arr;
  of_sorted ?buckets arr

(* Numeric position of a value for interpolation; strings hash-order by
   first bytes, dates/ints/floats use their natural magnitude. *)
let position v =
  match v with
  | Value.Int i -> float_of_int i
  | Value.Float f -> f
  | Value.Date d -> float_of_int d
  | Value.Bool b -> if b then 1.0 else 0.0
  | Value.String s ->
      let acc = ref 0.0 in
      for i = 0 to min 7 (String.length s - 1) do
        acc := (!acc *. 256.0) +. float_of_int (Char.code s.[i])
      done;
      for _ = String.length s to 7 do
        acc := !acc *. 256.0
      done;
      !acc
  | Value.Null -> 0.0

(* fraction of bucket [b] estimated to satisfy "value <= v" *)
let bucket_fraction_le b v =
  let c = Value.compare_total v b.lo in
  if c < 0 then 0.0
  else if Value.compare_total v b.hi >= 0 then 1.0
  else
    let lo = position b.lo and hi = position b.hi and x = position v in
    if hi <= lo then 1.0 else max 0.0 (min 1.0 ((x -. lo) /. (hi -. lo)))

(* Estimated number of rows with value <= v (over represented rows). *)
let rows_le t v =
  Array.fold_left
    (fun acc b -> acc +. (float_of_int b.count *. bucket_fraction_le b v))
    0.0 t.buckets

let rows_lt t v =
  (* approximate: subtract the estimated equality mass *)
  let le = rows_le t v in
  let eq = ref 0.0 in
  Array.iter
    (fun b ->
      if
        Value.compare_total v b.lo >= 0 && Value.compare_total v b.hi <= 0
        && b.distinct > 0
      then eq := max !eq (float_of_int b.count /. float_of_int b.distinct))
    t.buckets;
  max 0.0 (le -. !eq)

let rows_eq t v =
  let hit = ref 0.0 in
  Array.iter
    (fun b ->
      let in_bucket =
        (Value.compare_total v b.hi <= 0)
        && (Value.compare_total v b.lo > 0
           || Value.equal_total v b.lo)
      in
      if in_bucket && b.distinct > 0 then
        hit := max !hit (float_of_int b.count /. float_of_int b.distinct))
    t.buckets;
  !hit

(* Selectivity of range lo..hi (either side optional / exclusive). *)
let rows_range t ?lo ?hi () =
  let upper =
    match hi with
    | None -> float_of_int t.total
    | Some (v, `Incl) -> rows_le t v
    | Some (v, `Excl) -> rows_lt t v
  in
  let lower =
    match lo with
    | None -> 0.0
    | Some (v, `Incl) -> rows_lt t v
    | Some (v, `Excl) -> rows_le t v
  in
  max 0.0 (upper -. lower)

let selectivity_range t ?lo ?hi () =
  if t.total = 0 then 0.0 else rows_range t ?lo ?hi () /. float_of_int t.total

let selectivity_eq t v =
  if t.total = 0 then 0.0 else rows_eq t v /. float_of_int t.total

let pp ppf t =
  Fmt.pf ppf "histogram(%d rows, %d buckets)" t.total (Array.length t.buckets);
  Array.iter
    (fun b ->
      Fmt.pf ppf "@.  (%a, %a]: n=%d d=%d" Value.pp b.lo Value.pp b.hi b.count
        b.distinct)
    t.buckets
