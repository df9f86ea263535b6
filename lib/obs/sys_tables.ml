(* The sys.* virtual tables.  Each view is declared once, as a list of
   columns that carry their name, type, nullability and getter;
   [register] derives both the schema and the rows from that list, so a
   column cannot be added to one and not the other.

   The views over this library's own registries live here; the others
   live with their data ({!Core.Softdb}, {!Srv.Session}).  sys.plan_cache
   and sys.recovery are registered empty by {!Core.Softdb.create} and
   refilled by modules above it, so their rows are the records below.
   Column names dodge SQL keywords: [table_name] (TABLE), [part_index]
   (PARTITION), [part_bounds] (BOUNDS), [is_unique] (UNIQUE),
   [times_seen] (COUNT). *)

open Rel

type 'a column = { column : Schema.column; get : 'a -> Value.t }

let column dtype nullable value name get =
  { column = Schema.column ~nullable name dtype; get = (fun x -> value (get x)) }

let nullable value = function Some x -> value x | None -> Value.Null
let str name = column Value.TString false (fun s -> Value.String s) name
let int name = column Value.TInt false (fun i -> Value.Int i) name
let float name = column Value.TFloat false (fun f -> Value.Float f) name
let bool name = column Value.TBool false (fun b -> Value.Bool b) name

let opt_str name =
  column Value.TString true (nullable (fun s -> Value.String s)) name

let opt_float name =
  column Value.TFloat true (nullable (fun f -> Value.Float f)) name

let register db name columns rows =
  let schema = Schema.make name (List.map (fun c -> c.column) columns) in
  Database.register_virtual db ~name ~schema (fun () ->
      List.map
        (fun x -> Tuple.make (List.map (fun c -> c.get x) columns))
        (rows ()))

let metrics =
  [
    str "name" (fun (name, _, _) -> name);
    str "kind" (fun (_, kind, _) -> kind);
    float "value" (fun (_, _, value) -> value);
  ]

let query_log =
  [
    int "seq" (fun e -> e.Query_log.seq);
    str "sql" (fun e -> e.Query_log.sql);
    float "estimated_rows" (fun e -> e.Query_log.estimated_rows);
    int "actual_rows" (fun e -> e.Query_log.actual_rows);
    float "q_error" (fun e -> e.Query_log.q_error);
    str "rewrites" (fun e -> String.concat "," e.Query_log.rewrites);
    str "twins" (fun e ->
        String.concat ","
          (List.map (fun o -> o.Query_log.sc) e.Query_log.twins));
    bool "fell_back" (fun e -> e.Query_log.fell_back);
  ]

let lockdep =
  [
    str "held_lock" (fun (held, _, _) -> held);
    str "acquired_lock" (fun (_, acquired, _) -> acquired);
    int "times_seen" (fun (_, _, count) -> count);
  ]

type plan_cache_row = {
  name : string;
  sql : string;
  valid : bool;
  dependencies : string list;
  fast_runs : int;
  backup_runs : int;
  last_used : int;
}

let plan_cache =
  [
    str "name" (fun r -> r.name);
    str "sql" (fun r -> r.sql);
    bool "valid" (fun r -> r.valid);
    str "dependencies" (fun r -> String.concat "," r.dependencies);
    int "fast_runs" (fun r -> r.fast_runs);
    int "backup_runs" (fun r -> r.backup_runs);
    int "last_used" (fun r -> r.last_used);
  ]

type recovery_row = {
  mode : string;
  torn_tail : bool;
  scanned_lines : int;
  applied_records : int;
  committed_txns : int;
  dropped_txns : int list;
  corrupt_lines : int;
  quarantined_bytes : int;
  salvage_path : string option;
}

let recovery =
  [
    str "mode" (fun r -> r.mode);
    bool "torn_tail" (fun r -> r.torn_tail);
    int "scanned_lines" (fun r -> r.scanned_lines);
    int "applied_records" (fun r -> r.applied_records);
    int "committed_txns" (fun r -> r.committed_txns);
    str "dropped_txns" (fun r ->
        String.concat "," (List.map string_of_int r.dropped_txns));
    int "corrupt_lines" (fun r -> r.corrupt_lines);
    int "quarantined_bytes" (fun r -> r.quarantined_bytes);
    opt_str "salvage_path" (fun r -> r.salvage_path);
  ]
