(* SplitMix64: a small, fast, high-quality deterministic PRNG.  Every
   random choice in the system (data generation, sampling, property-test
   fixtures) flows through this so experiments reproduce bit-identically
   across runs and machines. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

let golden = 0x9E3779B97F4A7C15L

let next_int64 t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* uniform in [0, bound) *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* keep 62 bits so the value fits OCaml's 63-bit int non-negatively *)
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

(* uniform in [lo, hi] inclusive *)
let int_range t lo hi =
  if hi < lo then invalid_arg "Rng.int_range: empty range";
  lo + int t (hi - lo + 1)

(* uniform in [0, 1) with 53 bits of precision *)
let float t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let float_range t lo hi = lo +. (float t *. (hi -. lo))

let bool t = Int64.logand (next_int64 t) 1L = 1L

(* Bernoulli with probability [p] *)
let coin t p = float t < p

(* standard normal via Box–Muller *)
let gaussian t =
  let rec nonzero () =
    let u = float t in
    if u <= 1e-300 then nonzero () else u
  in
  let u1 = nonzero () and u2 = float t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

(* exponential with mean [mean] *)
let exponential t ~mean =
  let rec nonzero () =
    let u = float t in
    if u <= 1e-300 then nonzero () else u
  in
  -.mean *. log (nonzero ())

(* Zipf over {1..n} with exponent [s], via inverse-CDF table walk
   (n is expected small: distinct-value domains). *)
let zipf_table n s =
  let weights = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) s) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. (w /. total);
      cum.(i) <- !acc)
    weights;
  cum

let zipf t cum =
  let u = float t in
  let n = Array.length cum in
  let rec bsearch lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cum.(mid) < u then bsearch (mid + 1) hi else bsearch lo mid
  in
  1 + bsearch 0 (n - 1)

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

(* derive an independent stream (for parallel generators) *)
let split t = create (Int64.to_int (next_int64 t))
