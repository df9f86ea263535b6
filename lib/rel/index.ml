(* Secondary indexes over heap tables: a B+-tree keyed on the projected
   column values, mapping each distinct key to a posting — the rids
   holding it, ascending, in one array.  Composite keys compare
   lexicographically via {!Tuple.compare}.

   An index is a lifecycle-managed object (fdb-record-layer shape):

     Write_only --start--> Backfilling --finish--> Readable
         ^                      |                      |
         |                   demote                 demote
         +------ Demoted <-----+----------------------+

   In every state the maintenance hooks keep the tree current with table
   mutations; only a [Readable] index may serve probes.  While an index
   is not readable its insertions are idempotent per (key, rid): the
   online backfill and the concurrent write path may both present the
   same row, and the tree must record it exactly once. *)

module Key_tree = Bptree.Make (struct
  type t = Tuple.t

  let compare = Tuple.compare
end)

type state = Write_only | Backfilling | Readable | Demoted

let state_to_string = function
  | Write_only -> "write_only"
  | Backfilling -> "backfilling"
  | Readable -> "readable"
  | Demoted -> "demoted"

let state_of_string = function
  | "write_only" -> Some Write_only
  | "backfilling" -> Some Backfilling
  | "readable" -> Some Readable
  | "demoted" -> Some Demoted
  | _ -> None

(* A posting: the rids of one key, ascending and distinct, in one array
   whose slot 0 counts them — [p.(0) = n], the rids in [p.(1)] ..
   [p.(n)], the slots after them spare.  A range scan reads each key's
   rids contiguously, with no pointer to chase per rid.  One block per
   key: a lone rid (every key of a unique index) takes three words, and
   n appended rids at most 2n + 2.  Rids are allocated upward, so loads,
   inserts and rebuilds append above every rid already there: the
   append fills a spare slot in place, and a full posting moves to a
   copy with twice the room, so n appends copy fewer than 2n words in
   all, and only a move touches the tree (whose insert path-copies).
   An out-of-order rid (rollback's [restore], recovery's [place]) and a
   delete shift the tail in place. *)
type posting = Table.rid array

(* a lookup's miss; never stored in the tree, so never mutated *)
let empty : posting = [| 0 |]

(* The slot of [rid] in [p], or of the first rid above it. *)
let search (p : posting) rid =
  let n = p.(0) in
  if n = 0 || p.(n) < rid then n + 1
  else begin
    let lo = ref 1 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if p.(mid) < rid then lo := mid + 1 else hi := mid
    done;
    !lo
  end

let holds (p : posting) i rid = i <= p.(0) && p.(i) = rid

(* [p] with a rid it lacks put at slot [i], its sorted place: [p] itself
   while a slot is spare, else the copy it moved to. *)
let insert_at (p : posting) i rid =
  let n = p.(0) in
  let q =
    if n + 1 < Array.length p then p
    else begin
      let q = Array.make (1 + (2 * n)) 0 in
      Array.blit p 0 q 0 (n + 1);
      q
    end
  in
  Array.blit q i q (i + 1) (n + 1 - i);
  q.(i) <- rid;
  q.(0) <- n + 1;
  q

type t = {
  name : string;
  table : string;
  columns : string list; (* indexed column names, in key order *)
  positions : int array; (* their positions in the table schema *)
  unique : bool;
  tree : posting Key_tree.t;
  mutable state : state;
}

exception Unique_violation of string

let key_of t row = Tuple.project row t.positions

let make ~name ~table ~columns ~unique ~state =
  let schema = Table.schema table in
  let positions =
    Array.of_list (List.map (Schema.index_exn schema) columns)
  in
  {
    name;
    table = Table.name table;
    columns;
    positions;
    unique;
    tree = Key_tree.create ~b:32 ();
    state;
  }

(* Record (key, rid), idempotently: [false] when the rid was already
   under its key — the backfill and a concurrent writer raced on this
   row, and recording it once is exactly the contract. *)
let add t rid row =
  let key = key_of t row in
  match Key_tree.find t.tree key with
  | None ->
      ignore (Key_tree.insert t.tree key [| 1; rid |]);
      true
  | Some p ->
      let i = search p rid in
      if holds p i rid then false
      else begin
        if t.unique then
          raise
            (Unique_violation
               (Printf.sprintf "unique index %s: duplicate key %s" t.name
                  (Fmt.str "%a" Tuple.pp key)));
        let moved = insert_at p i rid in
        if moved != p then ignore (Key_tree.insert t.tree key moved);
        true
      end

let create ~name ~table ~columns ?(unique = false) () =
  let t = make ~name ~table ~columns ~unique ~state:Readable in
  (* bulk-build from existing rows *)
  Table.iteri table ~f:(fun rid row -> ignore (add t rid row : bool));
  t

(* An empty shell for the online build path: registered in the catalog
   immediately so every subsequent mutation maintains it, populated with
   pre-existing rows by the backfill ({!Idx.Lifecycle}). *)
let create_shell ~name ~table ~columns ?(unique = false) () =
  make ~name ~table ~columns ~unique ~state:Write_only

let name t = t.name
let table_name t = t.table
let columns t = t.columns
let is_unique t = t.unique
let state t = t.state
let set_state t state = t.state <- state
let is_readable t = t.state = Readable
let distinct_keys t = Key_tree.length t.tree

let entries t = Key_tree.fold t.tree ~init:0 ~f:(fun acc _ p -> acc + p.(0))

(* Maintenance hooks called by {!Database} on every table mutation.
   A Demoted index is abandoned — its contents are untrustworthy and the
   only way back is a full rebuild, which discards them — so maintaining
   it would be wasted work, and a demoted *unique* index must never veto
   a foreground write on the strength of entries it cannot vouch for. *)

let on_insert t rid row =
  if t.state <> Demoted then ignore (add t rid row : bool)

(* The backfill's idempotent insertion: returns whether the row was new
   to the tree, so the build can count real work. *)
let backfill_insert = add

let on_delete t rid row =
  if t.state = Demoted then ()
  else
  let key = key_of t row in
  match Key_tree.find t.tree key with
  | None -> ()
  | Some p ->
      let n = p.(0) and i = search p rid in
      if holds p i rid then
        if n = 1 then ignore (Key_tree.remove t.tree key)
        else begin
          Array.blit p (i + 1) p i (n - i);
          p.(0) <- n - 1
        end

let on_update t rid ~before ~after =
  if not (Tuple.equal (key_of t before) (key_of t after)) then begin
    on_delete t rid before;
    on_insert t rid after
  end

(* Probes. *)

let lookup t key =
  match Key_tree.find t.tree key with Some p -> p | None -> empty

let lookup_value t v = lookup t (Tuple.of_array [| v |])

type bound = Unbounded | Incl of Value.t | Excl of Value.t

let to_tree_bound = function
  | Unbounded -> Key_tree.Unbounded
  | Incl v -> Key_tree.Incl (Tuple.of_array [| v |])
  | Excl v -> Key_tree.Excl (Tuple.of_array [| v |])

(* Range scan over a single-column index (a composite key's leading
   column would only bound a superset, so we restrict to single-column). *)
let fold_range t ~lo ~hi ~init ~f =
  if Array.length t.positions <> 1 then
    invalid_arg "Index.fold_range: requires a single-column index";
  Key_tree.fold_range t.tree ~lo:(to_tree_bound lo) ~hi:(to_tree_bound hi)
    ~init
    ~f:(fun acc key p -> f acc (Tuple.get key 0) p)

(* Full-key iteration for index-only scans: yields each (key, rids)
   binding in key order.  Bounds apply to the leading column.  On a
   single-column index they map directly onto the tree.  On a composite
   index the tree orders keys lexicographically, so a 1-tuple [lo] is a
   sound seek point (every key whose leading value is >= lo sorts at or
   after it) — but neither [Excl lo] nor any [hi] translates exactly to
   a tuple bound, so those are enforced per binding on the leading
   value. *)
let fold_entries t ~lo ~hi ~init ~f =
  if Array.length t.positions = 1 then
    Key_tree.fold_range t.tree ~lo:(to_tree_bound lo) ~hi:(to_tree_bound hi)
      ~init ~f
  else
    let seek =
      match lo with
      | Unbounded -> Key_tree.Unbounded
      | Incl v | Excl v -> Key_tree.Incl (Tuple.of_array [| v |])
    in
    let lo_ok v =
      match lo with
      | Unbounded -> true
      | Incl b -> Value.compare_total v b >= 0
      | Excl b -> Value.compare_total v b > 0
    in
    let hi_ok v =
      match hi with
      | Unbounded -> true
      | Incl b -> Value.compare_total v b <= 0
      | Excl b -> Value.compare_total v b < 0
    in
    Key_tree.fold_range t.tree ~lo:seek ~hi:Key_tree.Unbounded ~init
      ~f:(fun acc key p ->
        let v = Tuple.get key 0 in
        if lo_ok v && hi_ok v then f acc key p else acc)
