(* Per-column catalog statistics, matching the classes the paper lists in
   §5: "number of distinct values, high and low values, frequency and
   histogram statistics". *)

open Rel

type frequent = { value : Value.t; count : int }

type t = {
  column : string;
  row_count : int; (* rows inspected *)
  null_count : int;
  distinct : int; (* among non-null *)
  low : Value.t option;
  high : Value.t option;
  frequent : frequent list; (* top-k most frequent non-null values *)
  histogram : Histogram.t;
}

let null_fraction t =
  if t.row_count = 0 then 0.0
  else float_of_int t.null_count /. float_of_int t.row_count

(* One sort: the non-null values in [Value.compare_total] order give
   [distinct], [low]/[high] and the frequency runs, and feed the histogram
   as they are.  Runs come out in ascending value order, so a stable sort
   by count (descending) ranks ties by value. *)
let build ?(histogram_buckets = 32) ?(frequent_k = 10) ~column values =
  let row_count = Array.length values in
  let null_count =
    Array.fold_left (fun n v -> if Value.is_null v then n + 1 else n) 0 values
  in
  let sorted = Array.make (row_count - null_count) Value.Null in
  let k = ref 0 in
  Array.iter
    (fun v ->
      if not (Value.is_null v) then begin
        sorted.(!k) <- v;
        incr k
      end)
    values;
  Array.stable_sort Value.compare_total sorted;
  let n = Array.length sorted in
  (* does a run of equal values end just before [i]? *)
  let run_ends i =
    i = n || not (Value.equal_total sorted.(i - 1) sorted.(i))
  in
  let distinct = ref 0 in
  for i = 1 to n do
    if run_ends i then incr distinct
  done;
  let runs = Array.make !distinct { value = Value.Null; count = 0 } in
  let start = ref 0 and r = ref 0 in
  for i = 1 to n do
    if run_ends i then begin
      runs.(!r) <- { value = sorted.(!start); count = i - !start };
      incr r;
      start := i
    end
  done;
  Array.stable_sort (fun a b -> Int.compare b.count a.count) runs;
  {
    column;
    row_count;
    null_count;
    distinct = !distinct;
    low = (if n = 0 then None else Some sorted.(0));
    high = (if n = 0 then None else Some sorted.(n - 1));
    frequent =
      Array.to_list (Array.sub runs 0 (max 0 (min frequent_k !distinct)));
    histogram = Histogram.of_sorted ~buckets:histogram_buckets sorted;
  }

(* -- selectivity primitives (fractions of *all* rows, nulls excluded
      from qualifying mass as in SQL) -- *)

let sel_eq t v =
  if t.row_count = 0 then 0.0
  else
    match List.find_opt (fun f -> Value.equal_total f.value v) t.frequent with
    | Some f -> float_of_int f.count /. float_of_int t.row_count
    | None ->
        let hist_sel = Histogram.selectivity_eq t.histogram v in
        let non_null_frac = 1.0 -. null_fraction t in
        (* fall back to 1/ndv when the histogram is silent *)
        if hist_sel > 0.0 then hist_sel *. non_null_frac
        else if t.distinct = 0 then 0.0
        else non_null_frac /. float_of_int t.distinct

let sel_range t ?lo ?hi () =
  let non_null_frac = 1.0 -. null_fraction t in
  Histogram.selectivity_range t.histogram ?lo ?hi () *. non_null_frac

let sel_is_null t = null_fraction t

let pp ppf t =
  Fmt.pf ppf "%s: rows=%d nulls=%d ndv=%d low=%a high=%a" t.column t.row_count
    t.null_count t.distinct
    Fmt.(option ~none:(any "-") Value.pp)
    t.low
    Fmt.(option ~none:(any "-") Value.pp)
    t.high
