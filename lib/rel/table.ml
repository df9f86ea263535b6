(* Heap table storage.  Rows live in a growable slot array; deletion leaves
   a tombstone ([None]) so row identifiers (rids) stay stable, which the
   indexes and exception tables rely on.  [mutations] counts every
   insert/update/delete since creation — the soft-constraint currency
   model (paper §3.3) reads it to bound statistics drift. *)

type rid = int

type t = {
  schema : Schema.t;
  mutable slots : Tuple.t option array;
  mutable next_slot : int;
  mutable live : int;
  mutable mutations : int;
}

let create schema =
  { schema; slots = Array.make 16 None; next_slot = 0; live = 0; mutations = 0 }

let schema t = t.schema
let name t = t.schema.Schema.table
let cardinality t = t.live
let mutations t = t.mutations

let ensure_capacity t =
  if t.next_slot >= Array.length t.slots then begin
    let slots = Array.make (2 * Array.length t.slots) None in
    Array.blit t.slots 0 slots 0 (Array.length t.slots);
    t.slots <- slots
  end

exception Row_error of string

(* Insert a conforming copy of [row]; raises [Row_error] on schema
   violation.  Constraint checking is layered above (see {!Checker}). *)
let insert t row =
  match Tuple.conform t.schema row with
  | Error msg -> raise (Row_error msg)
  | Ok row ->
      ensure_capacity t;
      let rid = t.next_slot in
      t.slots.(rid) <- Some row;
      t.next_slot <- rid + 1;
      t.live <- t.live + 1;
      t.mutations <- t.mutations + 1;
      rid

let get t rid =
  if rid < 0 || rid >= t.next_slot then None else t.slots.(rid)

let high_water t = t.next_slot

let get_exn t rid =
  match get t rid with
  | Some row -> row
  | None -> raise (Row_error (Printf.sprintf "no row with rid %d" rid))

(* Re-occupy the tombstoned slot of a previously deleted row — transaction
   rollback needs the original rid back so older undo records still
   apply. *)
let restore t rid row =
  if rid < 0 || rid >= t.next_slot then
    raise (Row_error (Printf.sprintf "cannot restore rid %d: never allocated" rid));
  (match t.slots.(rid) with
  | Some _ ->
      raise (Row_error (Printf.sprintf "cannot restore rid %d: slot occupied" rid))
  | None -> ());
  match Tuple.conform t.schema row with
  | Error msg -> raise (Row_error msg)
  | Ok row ->
      t.slots.(rid) <- Some row;
      t.live <- t.live + 1;
      t.mutations <- t.mutations + 1

(* Place a row at an exact rid, extending the slot array as needed —
   recovery replays inserts rid-faithfully so later log records (and the
   indexes rebuilt from them) keep referring to the right slots. *)
let place t rid row =
  if rid < 0 then
    raise (Row_error (Printf.sprintf "cannot place rid %d" rid));
  (if rid < t.next_slot then
     match t.slots.(rid) with
     | Some _ ->
         raise
           (Row_error (Printf.sprintf "cannot place rid %d: slot occupied" rid))
     | None -> ());
  match Tuple.conform t.schema row with
  | Error msg -> raise (Row_error msg)
  | Ok row ->
      while rid >= Array.length t.slots do
        let slots = Array.make (2 * Array.length t.slots) None in
        Array.blit t.slots 0 slots 0 (Array.length t.slots);
        t.slots <- slots
      done;
      t.slots.(rid) <- Some row;
      t.next_slot <- max t.next_slot (rid + 1);
      t.live <- t.live + 1;
      t.mutations <- t.mutations + 1

let delete t rid =
  match get t rid with
  | None -> false
  | Some _ ->
      t.slots.(rid) <- None;
      t.live <- t.live - 1;
      t.mutations <- t.mutations + 1;
      true

let update t rid row =
  match get t rid with
  | None -> raise (Row_error (Printf.sprintf "no row with rid %d" rid))
  | Some _ -> (
      match Tuple.conform t.schema row with
      | Error msg -> raise (Row_error msg)
      | Ok row ->
          t.slots.(rid) <- Some row;
          t.mutations <- t.mutations + 1)

let iteri t ~f =
  for rid = 0 to t.next_slot - 1 do
    match t.slots.(rid) with None -> () | Some row -> f rid row
  done

let iter t ~f = iteri t ~f:(fun _ row -> f row)

let fold t ~init ~f =
  let acc = ref init in
  iteri t ~f:(fun rid row -> acc := f !acc rid row);
  !acc

let to_list t = List.rev (fold t ~init:[] ~f:(fun acc _ row -> row :: acc))

let rids t = List.rev (fold t ~init:[] ~f:(fun acc rid _ -> rid :: acc))

let clear t =
  t.slots <- Array.make 16 None;
  t.next_slot <- 0;
  t.mutations <- t.mutations + t.live;
  t.live <- 0

(* Crude physical sizing used by the cost model: fixed per-value width. *)
let bytes_per_value = 16
let page_size = 4096

let row_width t = Schema.arity t.schema * bytes_per_value

let rows_per_page t = max 1 (page_size / row_width t)

let pages t = (cardinality t + rows_per_page t - 1) / rows_per_page t
