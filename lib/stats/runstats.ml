(* RUNSTATS: build and cache per-table statistics, as DB2's utility of the
   same name does.  Each snapshot remembers the table's mutation counter at
   collection time, which is what the soft-constraint currency model
   (paper §3.3) compares against to bound drift. *)

open Rel

type table_stats = {
  table : string;
  cardinality : int;
  collected_at_mutations : int;
  columns : (string * Col_stats.t) list;
}

type t = { snapshots : (string, table_stats) Hashtbl.t }

let create () = { snapshots = Hashtbl.create 16 }

let norm = String.lowercase_ascii

(* One value array per column, filled in row order. *)
let column_arrays arity n iter =
  let cols = Array.init arity (fun _ -> Array.make n Value.Null) in
  let k = ref 0 in
  iter (fun row ->
      for i = 0 to arity - 1 do
        cols.(i).(!k) <- Tuple.get row i
      done;
      incr k);
  cols

(* Collect statistics for [table]; [sample] bounds the rows inspected for
   histograms (the full scan still counts cardinality exactly). *)
let collect ?(histogram_buckets = 32) ?sample table =
  let schema = Table.schema table in
  let arity = Schema.arity schema in
  let columns_values =
    match sample with
    | None ->
        column_arrays arity (Table.cardinality table) (fun f ->
            Table.iter table ~f)
    | Some capacity ->
        let s = Sample.create capacity in
        Table.iter table ~f:(fun row -> Sample.offer s row);
        let rows = Sample.to_list s in
        column_arrays arity (List.length rows) (fun f -> List.iter f rows)
  in
  let columns =
    List.mapi
      (fun i c ->
        ( c.Schema.name,
          Col_stats.build ~histogram_buckets ~column:c.Schema.name
            columns_values.(i) ))
      (Schema.columns schema)
  in
  {
    table = Table.name table;
    cardinality = Table.cardinality table;
    collected_at_mutations = Table.mutations table;
    columns;
  }

let runstats ?histogram_buckets ?sample t table =
  let stats = collect ?histogram_buckets ?sample table in
  Hashtbl.replace t.snapshots (norm stats.table) stats;
  stats

let runstats_all ?histogram_buckets ?sample t db =
  List.iter
    (fun name ->
      ignore
        (runstats ?histogram_buckets ?sample t (Database.table_exn db name)))
    (Database.table_names db)

let find t table = Hashtbl.find_opt t.snapshots (norm table)

(* ASCII case-insensitive equality, without lowercased copies *)
let same_name a b =
  let n = String.length a in
  n = String.length b
  &&
  let rec from i =
    i = n
    || Char.lowercase_ascii a.[i] = Char.lowercase_ascii b.[i]
       && from (i + 1)
  in
  from 0

let column_stats t ~table ~column =
  match find t table with
  | None -> None
  | Some ts ->
      List.find_map
        (fun (n, s) -> if same_name n column then Some s else None)
        ts.columns

(* How many mutations has [table] absorbed since its stats were taken? *)
let staleness t table =
  match find t (Table.name table) with
  | None -> Table.mutations table
  | Some ts -> max 0 (Table.mutations table - ts.collected_at_mutations)
