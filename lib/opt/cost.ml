(* The cost model: a simple I/O + CPU formula family in the System-R
   tradition, parameterized so experiments can shift the I/O/CPU balance.
   All costs are in abstract "page-fetch equivalents". *)

type params = {
  cpu_tuple : float; (* processing one tuple *)
  cpu_compare : float; (* one comparison during sort *)
  io_page : float; (* reading one page *)
  index_probe : float; (* descending a B+-tree *)
  hash_build_tuple : float;
}

let default_params =
  {
    cpu_tuple = 0.01;
    cpu_compare = 0.002;
    io_page = 1.0;
    index_probe = 3.0;
    hash_build_tuple = 0.015;
  }

let seq_scan p ~pages ~rows = (p.io_page *. pages) +. (p.cpu_tuple *. rows)

(* Index range scan fetching [match_rows] of a table with [pages] pages
   and [rows] rows: probe + fraction of pages (clustered assumption, as
   for a primary/clustering index) + CPU. *)
let index_scan p ~pages ~rows ~match_rows =
  let frac = if rows <= 0.0 then 0.0 else min 1.0 (match_rows /. rows) in
  p.index_probe +. (p.io_page *. frac *. pages) +. (p.cpu_tuple *. match_rows)

(* Index-only scan emitting [match_rows] key entries packed
   [entries_per_page] to the leaf page: probe + leaf I/O + CPU.  The
   leaves hold narrow keys, not rows, which is the whole advantage. *)
let index_only_scan p ~entries_per_page ~match_rows =
  let epp = max 1.0 entries_per_page in
  p.index_probe
  +. (p.io_page *. Float.of_int (int_of_float (ceil (match_rows /. epp))))
  +. (p.cpu_tuple *. match_rows)

let hash_join p ~build_rows ~probe_rows ~out_rows =
  (p.hash_build_tuple *. build_rows)
  +. (p.cpu_tuple *. probe_rows)
  +. (p.cpu_tuple *. out_rows)

let nested_loop_join p ~left_rows ~right_rows ~out_rows =
  (p.cpu_tuple *. left_rows *. max 1.0 right_rows) +. (p.cpu_tuple *. out_rows)

let sort p ~rows =
  if rows <= 1.0 then 0.0
  else p.cpu_compare *. rows *. (Float.log rows /. Float.log 2.0)

let group p ~rows = p.cpu_tuple *. rows
