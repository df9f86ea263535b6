(* Latency summaries: nearest-rank percentiles, the highest percentile a
   sample supports, and log-spaced histograms that show where the modes
   of a distribution sit relative to its percentiles. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an ascending array, [q] in [0, 1]: the
   smallest sample with at least a [q] share of the samples at or below
   it.  NaN for an empty sample. *)
let percentile_sorted a q =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let percentile xs q = percentile_sorted (sorted xs) q
let median xs = percentile xs 0.5

let geomean xs =
  match xs with
  | [] -> Float.nan
  | _ ->
      let s = List.fold_left (fun acc x -> acc +. Float.log x) 0.0 xs in
      Float.exp (s /. float_of_int (List.length xs))

(* ---- log-spaced histograms ---------------------------------------------- *)

(* Four buckets per decade of milliseconds: bucket [k] holds samples in
   [10^(k/4), 10^((k+1)/4)) ms. *)
let per_decade = 4

let bucket_of_ms ms =
  if ms <= 0.0 then min_int
  else int_of_float (Float.floor (Float.log10 ms *. float_of_int per_decade))

let bucket_bounds k =
  let edge i = 10.0 ** (float_of_int i /. float_of_int per_decade) in
  (edge k, edge (k + 1))

(* Non-empty buckets in ascending order, as (lo_ms, hi_ms, count).
   Samples of zero or less land in a bucket with bounds (0, 0). *)
let histogram samples_ms =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ms ->
      let k = bucket_of_ms ms in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    samples_ms;
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) tbl []
  |> List.sort compare
  |> List.map (fun (k, c) ->
         if k = min_int then (0.0, 0.0, c)
         else
           let lo, hi = bucket_bounds k in
           (lo, hi, c))
