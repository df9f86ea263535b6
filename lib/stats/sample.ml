(* Reservoir sampling (Vitter's algorithm R): a uniform fixed-size sample
   of a stream of unknown length.  RUNSTATS feeds table scans through this
   to bound histogram construction cost on large tables. *)

type 'a t = {
  rng : Rng.t;
  capacity : int;
  mutable seen : int;
  reservoir : 'a option array;
}

let create ?(seed = 42) capacity =
  if capacity <= 0 then invalid_arg "Sample.create: capacity must be positive";
  {
    rng = Rng.create seed;
    capacity;
    seen = 0;
    reservoir = Array.make capacity None;
  }

let offer t x =
  if t.seen < t.capacity then t.reservoir.(t.seen) <- Some x
  else begin
    let j = Rng.int t.rng (t.seen + 1) in
    if j < t.capacity then t.reservoir.(j) <- Some x
  end;
  t.seen <- t.seen + 1

let seen t = t.seen

let to_list t =
  Array.fold_right
    (fun slot acc -> match slot with Some x -> x :: acc | None -> acc)
    t.reservoir []

let size t = min t.seen t.capacity
