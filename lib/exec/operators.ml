(* Plan interpretation: each node opens as a pull cursor.

   [Counters] records the physical work done — rows fetched from storage,
   page reads (by the same fixed-width page model the cost model uses),
   and index probes — so experiments can report I/O-shaped numbers rather
   than wall time alone (paper §2 [8]: "reduce the number of pages that
   need to be scanned"). *)

open Rel

module Counters = struct
  type part = { mutable part_rows : int; mutable part_pages : int }

  type t = {
    mutable rows_scanned : int; (* rows fetched from base tables *)
    mutable pages_read : int;
    mutable index_probes : int;
    mutable rows_output : int; (* rows produced at the plan root *)
    mutable partitions : ((string * int) * part) list;
        (* per-(table, partition) slice of rows/pages; only partition
           scans contribute *)
  }

  let create () =
    { rows_scanned = 0; pages_read = 0; index_probes = 0; rows_output = 0;
      partitions = [] }

  let partition_counter t ~table ~partition =
    let key = (table, partition) in
    match List.assoc_opt key t.partitions with
    | Some p -> p
    | None ->
        let p = { part_rows = 0; part_pages = 0 } in
        t.partitions <- (key, p) :: t.partitions;
        p

  let partition_counts t =
    List.sort compare
      (List.map
         (fun ((table, partition), p) ->
           (table, partition, p.part_rows, p.part_pages))
         t.partitions)

  let pp ppf t =
    Fmt.pf ppf "scanned=%d pages=%d probes=%d out=%d" t.rows_scanned
      t.pages_read t.index_probes t.rows_output;
    List.iter
      (fun (table, partition, rows, pages) ->
        Fmt.pf ppf " %s[%d]=%d/%dp" table partition rows pages)
      (partition_counts t)
end

type cursor = unit -> Tuple.t option

exception Exec_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Exec_error s)) fmt

let cursor_of_list rows =
  let rest = ref rows in
  fun () ->
    match !rest with
    | [] -> None
    | r :: tl ->
        rest := tl;
        Some r

let drain (c : cursor) =
  let rec go acc = match c () with None -> List.rev acc | Some r -> go (r :: acc) in
  go []

(* ---- aggregation accumulators ----------------------------------------- *)

(* One aggregate's running state, per group; each does only its own
   function's work.  COUNT( * ) reads the group's row count.  SUM and AVG
   share one: a SUM stays an exact int while every input is an int; the
   first float input converts the running sum and accumulates in float
   from there, in input order.  The float sum sits in a float-only record,
   stored unboxed, so adding to it allocates nothing. *)
type fsum = { mutable f : float }

type acc =
  | Rows
  | Count of { mutable n : int }
  | Sum of {
      mutable n : int; (* non-null inputs *)
      mutable isum : int;
      fsum : fsum;
      mutable exact : bool;
    }
  | Min of { mutable v : Value.t }
  | Max of { mutable v : Value.t }

let fresh_acc (fn : Plan.agg_fn) ~has_arg =
  match fn with
  | Plan.Count -> if has_arg then Count { n = 0 } else Rows
  | Plan.Sum | Plan.Avg ->
      Sum { n = 0; isum = 0; fsum = { f = 0.0 }; exact = true }
  | Plan.Min -> Min { v = Value.Null }
  | Plan.Max -> Max { v = Value.Null }

let feed_acc acc (v : Value.t) =
  match (v, acc) with
  | Value.Null, _ | _, Rows -> ()
  | _, Count c -> c.n <- c.n + 1
  | _, Sum s -> (
      s.n <- s.n + 1;
      match v with
      | Value.Int i ->
          if s.exact then s.isum <- s.isum + i
          else s.fsum.f <- s.fsum.f +. float_of_int i
      | Value.Float x ->
          if s.exact then begin
            s.exact <- false;
            s.fsum.f <- float_of_int s.isum +. x
          end
          else s.fsum.f <- s.fsum.f +. x
      | _ -> ())
  | _, Min m ->
      if Value.is_null m.v || Value.compare_total v m.v < 0 then m.v <- v
  | _, Max m ->
      if Value.is_null m.v || Value.compare_total v m.v > 0 then m.v <- v

let finish_acc (fn : Plan.agg_fn) acc ~rows_in_group =
  match (fn, acc) with
  | _, Rows -> Value.Int rows_in_group
  | _, Count c -> Value.Int c.n
  | _, Sum { n = 0; _ } -> Value.Null
  | Plan.Avg, Sum s ->
      let sum = if s.exact then float_of_int s.isum else s.fsum.f in
      Value.Float (sum /. float_of_int s.n)
  | _, Sum s -> if s.exact then Value.Int s.isum else Value.Float s.fsum.f
  | _, (Min { v } | Max { v }) -> v

(* The one hash table over value tuples — join keys, group keys, distinct
   rows — hashed and compared by value, so an INT key meets the equal
   FLOAT key as it does under [=]: {!Value.hash} agrees with
   {!Value.equal_total}, past 2^53 too. *)
module Key_tbl = Hashtbl.Make (struct
  type t = Value.t array

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

(* What [fill_key] found in a key: a NULL, which never joins; a number
   beyond 2^53 ({!Value.beyond_exact}), where keys equal to one probe
   need not equal each other; or neither. *)
type key_kind = Has_null | Wide | Plain

(* [key.(i) <- fns.(i) row] for every column.  One scratch key serves
   every row of a join side or a grouping, so computing a key allocates
   nothing; a table keeps a copy only of a key it adds. *)
let fill_key fns row key =
  let kind = ref Plain in
  for i = 0 to Array.length fns - 1 do
    let v = (Array.unsafe_get fns i) row in
    Array.unsafe_set key i v;
    match v with
    | Value.Null -> kind := Has_null
    | v -> (
        match !kind with
        | Plain when Value.beyond_exact v -> kind := Wide
        | _ -> ())
  done;
  !kind

(* The joined rows of each outer row with its candidate list, built and
   tested lazily, as they are pulled: [candidates o] is the inner rows
   that may join [o] (a hash bucket, or the whole inner input), [join]
   builds the output row and [keep] tests it. *)
let join_cursor (outer : cursor) ~candidates ~join ~keep : cursor =
  let o = ref [||] and pending = ref [] in
  let rec next () =
    match !pending with
    | r :: tl ->
        pending := tl;
        let joined = join !o r in
        if keep joined then Some joined else next ()
    | [] -> (
        match outer () with
        | None -> None
        | Some row ->
            o := row;
            pending := candidates row;
            next ())
  in
  next

(* Rids in ascending slot order, one per call, then [-1].  [postings]
   hold [count] distinct rids in all, each below [high_water].  A range
   that covers a large share of the table marks a bitmap over the slots,
   read lazily; a small one copies its rids out and sorts them, or, for
   a single key, whose posting is already ascending, only copies them.
   The copy keeps the cursor apart from the index, whose postings change
   in place.  Either way the allocation is about the smaller of the two:
   [high_water / 8] bytes (and a few words per 8,192 slots) against
   [count] words.

   The bitmap is cut into 1 KiB chunks, the last only as long as its
   slots need, each small enough for the minor heap, where it dies with
   the scan.  One block of [high_water / 8] bytes would go straight to
   the major heap once it passed 2 KiB (a 20,000-row table), and outlive
   the scan there until a major cycle swept it: on a serving path that
   allocates little else, a few megabytes of dead bitmaps. *)
let chunk_bits = 13 (* 8192 slots, 1 KiB *)

(* the index of the lowest set bit of each nonzero byte *)
let trailing_zeros =
  String.init 256 (fun b ->
      let rec tz b i = if b land 1 = 1 || i = 8 then i else tz (b lsr 1) (i + 1) in
      Char.chr (tz b 0))

let slot_order ~high_water ~count (postings : Index.posting list) =
  if count * 64 >= high_water then begin
    let chunks =
      Array.init
        ((high_water lsr chunk_bits) + 1)
        (fun i ->
          Bytes.make
            (min (1 lsl (chunk_bits - 3))
               ((high_water - (i lsl chunk_bits) + 7) lsr 3))
            '\000')
    in
    let byte_of p = (p lsr 3) land ((1 lsl (chunk_bits - 3)) - 1) in
    List.iter
      (fun p ->
        for j = 1 to p.(0) do
          let rid = Array.unsafe_get p j in
          let bits = Array.unsafe_get chunks (rid lsr chunk_bits) in
          let byte = Char.code (Bytes.unsafe_get bits (byte_of rid)) in
          Bytes.unsafe_set bits (byte_of rid)
            (Char.unsafe_chr (byte lor (1 lsl (rid land 7))))
        done)
      postings;
    let pos = ref 0 in
    let rec next () =
      let p = !pos in
      if p >= high_water then -1
      else
        let bits = Array.unsafe_get chunks (p lsr chunk_bits) in
        let byte = Char.code (Bytes.unsafe_get bits (byte_of p)) lsr (p land 7) in
        if byte = 0 then begin
          pos := (p lor 7) + 1;
          next ()
        end
        else begin
          (* straight to the byte's next set bit *)
          let p = p + Char.code (String.unsafe_get trailing_zeros byte) in
          pos := p + 1;
          p
        end
    in
    next
  end
  else begin
    let rids =
      match postings with
      | [ p ] -> Array.sub p 1 count
      | _ ->
          let rids = Array.make count 0 and i = ref 0 in
          List.iter
            (fun p ->
              Array.blit p 1 rids !i p.(0);
              i := !i + p.(0))
            postings;
          Array.sort Int.compare rids;
          rids
    in
    let i = ref 0 in
    fun () ->
      if !i >= count then -1
      else begin
        let rid = rids.(!i) in
        incr i;
        rid
      end
  end

(* ---- opening plans ------------------------------------------------------ *)

(* [wrap] sees every node with a thunk that opens it, outermost first —
   the hook the instrumented runner uses to observe per-node output
   cardinality and time without the operators knowing.  Blocking
   operators (Sort, Group, a hash-join build, a nested-loop inner) drain
   their inputs while opening, so the open is the node's work too. *)
let no_wrap _plan open_ = open_ ()

let rec open_node wrap db (counters : Counters.t) (plan : Plan.t) : cursor =
  wrap plan (fun () -> open_raw wrap db counters plan)

and open_raw wrap db (counters : Counters.t) (plan : Plan.t) : cursor =
  match plan with
  | Plan.Seq_scan { table; alias = _; filter } ->
      let tbl = Database.table_exn db table in
      let binding = Plan.binding db plan in
      let keep = Expr.compile_filter binding filter in
      (* a slot cursor up to the high-water mark fixed at open: rows
         inserted later stay invisible, as under a snapshot.  Pages are
         charged on the first pull — a scan nobody pulls reads nothing *)
      let hwm = Table.high_water tbl in
      let rid = ref (-1) in
      let rec next () =
        if !rid < 0 then begin
          counters.Counters.pages_read <-
            counters.Counters.pages_read + Table.pages tbl;
          rid := 0
        end;
        if !rid >= hwm then None
        else
          let slot = Table.get tbl !rid in
          incr rid;
          match slot with
          | None -> next ()
          | Some r ->
              counters.Counters.rows_scanned <-
                counters.Counters.rows_scanned + 1;
              if keep r then Some r else next ()
      in
      next
  | Plan.Index_scan { table; alias = _; index; lo; hi; filter } ->
      let tbl = Database.table_exn db table in
      let idx =
        match Database.find_index_by_name db index with
        | Some i -> i
        | None -> error "no such index: %s" index
      in
      counters.Counters.index_probes <- counters.Counters.index_probes + 1;
      let binding = Plan.binding db plan in
      let keep = Expr.compile_filter binding filter in
      (* the first pull takes the rids in range and charges the pages — by
         the page model each fetched rid costs a page read amortized by
         clustering factor ~ rows_per_page — then fetches the rows in
         ascending slot order, as a heap scan would *)
      let slots = ref None in
      let start () =
        let n = ref 0 in
        let postings =
          Index.fold_range idx ~lo ~hi ~init:[] ~f:(fun acc _ p ->
              n := !n + p.(0);
              p :: acc)
        in
        let rpp = Table.rows_per_page tbl in
        counters.Counters.pages_read <-
          counters.Counters.pages_read + ((!n + rpp - 1) / max 1 rpp);
        slot_order ~high_water:(Table.high_water tbl) ~count:!n postings
      in
      let rec next () =
        let slot =
          match !slots with
          | Some s -> s
          | None ->
              let s = start () in
              slots := Some s;
              s
        in
        match slot () with
        | -1 -> None
        | rid -> (
            match Table.get tbl rid with
            | None -> next ()
            | Some r ->
                counters.Counters.rows_scanned <-
                  counters.Counters.rows_scanned + 1;
                if keep r then Some r else next ())
      in
      next
  | Plan.Index_only_scan { table; alias = _; index; columns; lo; hi; filter }
    ->
      ignore (Database.table_exn db table : Table.t);
      let idx =
        match Database.find_index_by_name db index with
        | Some i -> i
        | None -> error "no such index: %s" index
      in
      (* The guard layer is supposed to catch a demotion before we get
         here; refusing to probe anyway keeps a stale cached plan from
         silently reading an unmaintained tree. *)
      if not (Index.is_readable idx) then
        error "index %s is not readable (state %s)" index
          (Index.state_to_string (Index.state idx));
      counters.Counters.index_probes <- counters.Counters.index_probes + 1;
      let binding = Plan.binding db plan in
      let keep = Expr.compile_filter binding filter in
      (* one output row per (key, rid) entry — bag semantics, matching
         what a heap scan projected onto the key columns would emit.  The
         first pull takes the in-range keys with their entry counts and
         charges the entries and their leaf pages, as the heap scans
         charge on the first pull; a key the filter rejects is skipped
         whole *)
      let keys = ref None and pending = ref 0 and current = ref [||] in
      let start () =
        let entries = ref 0 in
        let ks =
          Index.fold_entries idx ~lo ~hi ~init:[] ~f:(fun acc key p ->
              let n = p.(0) in
              entries := !entries + n;
              (key, n) :: acc)
        in
        counters.Counters.rows_scanned <-
          counters.Counters.rows_scanned + !entries;
        (* page model: index leaf pages hold narrow key entries, not full
           rows — this is where the index-only I/O saving comes from *)
        let entry_width = Table.bytes_per_value * List.length columns in
        let entries_per_page = max 1 (Table.page_size / max 1 entry_width) in
        counters.Counters.pages_read <-
          counters.Counters.pages_read
          + ((!entries + entries_per_page - 1) / entries_per_page);
        List.rev ks
      in
      let rec next () =
        if !pending > 0 then begin
          decr pending;
          Some !current
        end
        else
          match !keys with
          | None ->
              keys := Some (start ());
              next ()
          | Some [] -> None
          | Some ((key, n) :: tl) ->
              keys := Some tl;
              if keep key then begin
                current := key;
                pending := n
              end;
              next ()
      in
      next
  | Plan.Partition_scan { table; alias = _; partition; filter } ->
      let tbl = Database.table_exn db table in
      let part =
        match Database.partitioning db table with
        | Some p -> p
        | None -> error "table %s is not partitioned" table
      in
      if partition < 0 || partition >= Partition.count part then
        error "partition %d out of range for %s (%d segments)" partition
          table (Partition.count part);
      let binding = Plan.binding db plan in
      let keep = Expr.compile_filter binding filter in
      let pc = Counters.partition_counter counters ~table ~partition in
      (* membership is fixed at open; only the segment's pages are
         charged, on the first pull as in a heap scan — a pruned or
         never-pulled sibling contributes zero I/O, which BENCH.json
         asserts *)
      let rows = ref (Partition.members part partition) in
      let started = ref false in
      let rec next () =
        if not !started then begin
          started := true;
          let pages =
            Partition.pages part partition
              ~rows_per_page:(Table.rows_per_page tbl)
          in
          counters.Counters.pages_read <- counters.Counters.pages_read + pages;
          pc.Counters.part_pages <- pc.Counters.part_pages + pages
        end;
        match !rows with
        | [] -> None
        | rid :: tl -> (
            rows := tl;
            match Table.get tbl rid with
            | None -> next ()
            | Some r ->
                counters.Counters.rows_scanned <-
                  counters.Counters.rows_scanned + 1;
                pc.Counters.part_rows <- pc.Counters.part_rows + 1;
                if keep r then Some r else next ())
      in
      next
  | Plan.Filter { input; pred } ->
      let binding = Plan.binding db input in
      let keep = Expr.compile_filter binding pred in
      let c = open_node wrap db counters input in
      let rec next () =
        match c () with
        | None -> None
        | Some r -> if keep r then Some r else next ()
      in
      next
  | Plan.Project { input; exprs } ->
      let binding = Plan.binding db input in
      let fns = List.map (fun (e, _) -> Expr.compile binding e) exprs in
      let fns = Array.of_list fns in
      let c = open_node wrap db counters input in
      (fun () ->
        match c () with
        | None -> None
        | Some r ->
            let out = Array.make (Array.length fns) Value.Null in
            for i = 0 to Array.length fns - 1 do
              Array.unsafe_set out i ((Array.unsafe_get fns i) r)
            done;
            Some out)
  | Plan.Nested_loop_join { left; right; pred } ->
      let out_binding = Plan.binding db plan in
      let keep = Expr.compile_filter out_binding pred in
      let lcur = open_node wrap db counters left in
      (* materialize the inner side once; re-scanning real storage would
         double-count I/O that a block-nested-loop would cache *)
      let inner = drain (open_node wrap db counters right) in
      join_cursor lcur ~candidates:(fun _ -> inner) ~join:Tuple.concat ~keep
  | Plan.Hash_join { left; right; left_keys; right_keys; residual; build } ->
      if List.length left_keys <> List.length right_keys then
        error "hash join key arity mismatch";
      let key_fns input keys =
        let binding = Plan.binding db input in
        Array.of_list (List.map (Expr.compile binding) keys)
      in
      let lkey = key_fns left left_keys and rkey = key_fns right right_keys in
      let keep = Expr.compile_filter (Plan.binding db plan) residual in
      let build_plan, build_key, probe_plan, probe_key, join =
        match build with
        | Plan.Right -> (right, rkey, left, lkey, fun p b -> Tuple.concat p b)
        | Plan.Left -> (left, lkey, right, rkey, fun p b -> Tuple.concat b p)
      in
      (* drain the build input into the table at open, one fresh key per
         bucket; a NULL key never joins, on either side.  Equal keys
         below 2^53 share a bucket.  A wide key gets a bucket of its own
         row, and a wide probe collects every bucket equal to it: 2^53.0
         meets both 2^53 and 2^53 + 1, which differ *)
      let table = Key_tbl.create 1024 in
      let key = Array.make (Array.length build_key) Value.Null in
      let bcur = open_node wrap db counters build_plan in
      let rec fill () =
        match bcur () with
        | None -> ()
        | Some r ->
            (match fill_key build_key r key with
            | Has_null -> ()
            | Wide -> Key_tbl.add table (Array.copy key) (ref [ r ])
            | Plain -> (
                match Key_tbl.find table key with
                | rows -> rows := r :: !rows
                | exception Not_found ->
                    Key_tbl.add table (Array.copy key) (ref [ r ])));
            fill ()
      in
      fill ();
      (* each probe row's key goes into one scratch array, and its bucket
         is walked as the output is pulled *)
      let key = Array.make (Array.length probe_key) Value.Null in
      let candidates p =
        match fill_key probe_key p key with
        | Has_null -> []
        | Plain -> (
            match Key_tbl.find table key with
            | rows -> !rows
            | exception Not_found -> [])
        | Wide -> List.concat_map ( ! ) (Key_tbl.find_all table key)
      in
      join_cursor
        (open_node wrap db counters probe_plan)
        ~candidates ~join ~keep
  | Plan.Merge_join { left; right; left_keys; right_keys; residual } ->
      (* materialized merge join over inputs sorted on their keys *)
      let lbind = Plan.binding db left and rbind = Plan.binding db right in
      let lkey = Array.of_list (List.map (Expr.compile lbind) left_keys) in
      let rkey = Array.of_list (List.map (Expr.compile rbind) right_keys) in
      let out_binding = Plan.binding db plan in
      let keep = Expr.compile_filter out_binding residual in
      let key_of fns row = Array.map (fun f -> f row) fns in
      let cmp_keys a b =
        let n = Array.length a in
        let rec go i =
          if i >= n then 0
          else
            match Value.compare_total a.(i) b.(i) with
            | 0 -> go (i + 1)
            | c -> c
        in
        go 0
      in
      let lrows =
        drain (open_node wrap db counters left)
        |> List.map (fun r -> (key_of lkey r, r))
        |> List.sort (fun (a, _) (b, _) -> cmp_keys a b)
        |> Array.of_list
      in
      let rrows =
        drain (open_node wrap db counters right)
        |> List.map (fun r -> (key_of rkey r, r))
        |> List.sort (fun (a, _) (b, _) -> cmp_keys a b)
        |> Array.of_list
      in
      let out = ref [] in
      let i = ref 0 and j = ref 0 in
      let nl = Array.length lrows and nr = Array.length rrows in
      while !i < nl && !j < nr do
        let lk, _ = lrows.(!i) and rk, _ = rrows.(!j) in
        if Array.exists Value.is_null lk then incr i
        else if Array.exists Value.is_null rk then incr j
        else
          let c = cmp_keys lk rk in
          if c < 0 then incr i
          else if c > 0 then incr j
          else begin
            (* emit the cross product of the equal-key runs *)
            let jstart = !j in
            let rec run_end k =
              if k < nr && cmp_keys (fst rrows.(k)) lk = 0 then run_end (k + 1)
              else k
            in
            let jend = run_end jstart in
            let rec lrun i =
              if i < nl && cmp_keys (fst lrows.(i)) lk = 0 then begin
                for k = jstart to jend - 1 do
                  let joined = Tuple.concat (snd lrows.(i)) (snd rrows.(k)) in
                  if keep joined then out := joined :: !out
                done;
                lrun (i + 1)
              end
              else i
            in
            i := lrun !i;
            j := jend
          end
      done;
      cursor_of_list (List.rev !out)
  | Plan.Sort { input; keys } ->
      let binding = Plan.binding db input in
      let compiled =
        List.map (fun k -> (Expr.compile binding k.Plan.key, k.Plan.asc)) keys
      in
      let rows = drain (open_node wrap db counters input) in
      let cmp a b =
        let rec go = function
          | [] -> 0
          | (f, asc) :: tl -> (
              match Value.compare_total (f a) (f b) with
              | 0 -> go tl
              | c -> if asc then c else -c)
        in
        go compiled
      in
      cursor_of_list (List.stable_sort cmp rows)
  | Plan.Group { input; keys; aggs } ->
      let binding = Plan.binding db input in
      let key_fns =
        Array.of_list (List.map (fun (e, _) -> Expr.compile binding e) keys)
      in
      let aggs = Array.of_list aggs in
      let args =
        Array.map (fun a -> Option.map (Expr.compile binding) a.Plan.arg) aggs
      in
      let fresh_accs () =
        Array.map
          (fun a -> fresh_acc a.Plan.fn ~has_arg:(Option.is_some a.Plan.arg))
          aggs
      in
      (* per group: its row count and one accumulator per aggregate;
         [order] keeps the groups in first-seen order.  Each row's key
         goes into one scratch array, copied only for a new group *)
      let groups = Key_tbl.create 256 in
      let order = ref [] in
      let key = Array.make (Array.length key_fns) Value.Null in
      let c = open_node wrap db counters input in
      let rec feed () =
        match c () with
        | None -> ()
        | Some r ->
            ignore (fill_key key_fns r key : key_kind);
            let nrows, accs =
              match Key_tbl.find groups key with
              | entry -> entry
              | exception Not_found ->
                  let k = Array.copy key in
                  let entry = (ref 0, fresh_accs ()) in
                  Key_tbl.add groups k entry;
                  order := (k, entry) :: !order;
                  entry
            in
            incr nrows;
            for i = 0 to Array.length args - 1 do
              match Array.unsafe_get args i with
              | Some f -> feed_acc (Array.unsafe_get accs i) (f r)
              | None -> ()
            done;
            feed ()
      in
      feed ();
      let finish accs ~rows_in_group =
        Array.mapi
          (fun i a -> finish_acc a.Plan.fn accs.(i) ~rows_in_group)
          aggs
      in
      (* a global aggregate over an empty input still yields one row *)
      if keys = [] && !order = [] then
        cursor_of_list [ finish (fresh_accs ()) ~rows_in_group:0 ]
      else
        cursor_of_list
          (List.rev_map
             (fun (k, (nrows, accs)) ->
               Tuple.concat k (finish accs ~rows_in_group:!nrows))
             !order)
  | Plan.Distinct input ->
      let c = open_node wrap db counters input in
      let seen = Key_tbl.create 256 in
      let rec dedup acc =
        match c () with
        | None -> List.rev acc
        | Some r ->
            if Key_tbl.mem seen r then dedup acc
            else begin
              Key_tbl.add seen r ();
              dedup (r :: acc)
            end
      in
      cursor_of_list (dedup [])
  | Plan.Union_all _ | Plan.Partition_concat _ ->
      (* inputs in order (a partitioned source's segments in segment
         order), each opened once its predecessor is exhausted: a LIMIT
         met early never opens the rest *)
      let remaining = ref (Plan.children plan) in
      let current = ref (fun () -> None) in
      let rec next () =
        match !current () with
        | Some _ as row -> row
        | None -> (
            match !remaining with
            | [] -> None
            | p :: tl ->
                remaining := tl;
                current := open_node wrap db counters p;
                next ())
      in
      next
  | Plan.Limit { n; _ } when n <= 0 ->
      (* a block proven empty (the planner's [Limit 0]) reads nothing:
         its input is never opened *)
      fun () -> None
  | Plan.Limit { input; n } ->
      let c = open_node wrap db counters input in
      let emitted = ref 0 in
      (fun () ->
        if !emitted >= n then None
        else
          match c () with
          | None -> None
          | Some _ as row ->
              incr emitted;
              row)

let open_plan db counters plan = open_node no_wrap db counters plan

let run db ?counters plan =
  let counters =
    match counters with Some c -> c | None -> Counters.create ()
  in
  let rows = drain (open_plan db counters plan) in
  counters.Counters.rows_output <-
    counters.Counters.rows_output + List.length rows;
  rows

(* ---- per-node instrumentation ------------------------------------------- *)

(* Runtime statistics of one plan node.  [produced] (the node's actual
   output cardinality) and [pulls] (calls of its cursor, the last [None]
   included) are deterministic.  [elapsed_s] is its inclusive time: its
   self time — monotonic-clock time in its own open and pulls, its
   children's and the probe's own excluded, partly sampled (below),
   floored at 0 — plus its children's inclusive time, so never less than
   their sum.  It is informational only. *)
module Node = struct
  type t = {
    mutable produced : int;
    mutable pulls : int;
    mutable elapsed_s : float;
  }

  let create () = { produced = 0; pulls = 0; elapsed_s = 0.0 }
end

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* The self-time probe.  Every clock read charges the time since the
   previous read to the node that ran in between: the caller's node when
   a call enters, the callee's when it returns.  So a parent's pull is
   charged only for its own work.  Each interval also holds one read's
   worth of the probe's own time — the read and its bookkeeping — which
   is taken off at the end, per interval, so it goes to no node.  That
   cost is measured in the same run, on an idle node that does nothing
   but call the root: each timed root pull passes through it, and its
   two intervals are probe cost alone.  A calibration apart from the run
   drifts: it read from 41 to 61 ns within one process.

   A clock read costs about as much as a streaming operator's pull, so
   not every pull is timed.  Every one is up to the root's
   [exact_pulls]th.  After that, one root pull in [sample_every], with
   all it pulls below it, is charged apart, and the rest read no clock;
   the sampled time is scaled up to all of those later root pulls.  A
   node's open and its first pull are timed whenever they come, and
   never scaled: that is where a blocking operator drains its input and
   a scan gathers its rids, and a union opens each input only when the
   one before runs out, in whichever root pull that is. *)
type timed = {
  node : Node.t;
  mutable exact_ns : int;
  mutable exact_reads : int; (* intervals in [exact_ns] *)
  mutable sampled_ns : int; (* charged during sampled root pulls *)
  mutable sampled_reads : int;
}

type probe = {
  mutable running : timed;
  mutable last : int;
  mutable timing : bool; (* whether this root pull reads the clock *)
  mutable sampled : bool; (* whether it charges [sampled_ns] *)
}

let exact_pulls = 64
let sample_every = 16

(* a clock read: the time since the last one goes to the node that ran
   in between *)
let tick p =
  let t = now_ns () in
  let n = p.running and d = t - p.last in
  if p.sampled then begin
    n.sampled_ns <- n.sampled_ns + d;
    n.sampled_reads <- n.sampled_reads + 1
  end
  else begin
    n.exact_ns <- n.exact_ns + d;
    n.exact_reads <- n.exact_reads + 1
  end;
  p.last <- t

(* [f ()] as [s]'s work.  An [exact] call is timed and charged unscaled
   whatever the root pull's mode; it starts a fresh interval when the
   root pull reads no clock. *)
let probed p s ~exact f =
  let timing = p.timing and sampled = p.sampled in
  if not (timing || exact) then f ()
  else begin
    let caller = p.running in
    if timing then tick p else p.last <- now_ns ();
    p.running <- s;
    if exact then begin
      p.timing <- true;
      p.sampled <- false
    end;
    match f () with
    | r ->
        tick p;
        p.running <- caller;
        p.timing <- timing;
        p.sampled <- sampled;
        r
    | exception e ->
        tick p;
        p.running <- caller;
        p.timing <- timing;
        p.sampled <- sampled;
        raise e
  end

let new_timed () =
  {
    node = Node.create ();
    exact_ns = 0;
    exact_reads = 0;
    sampled_ns = 0;
    sampled_reads = 0;
  }

(* [open_] through the probe, and a cursor that counts and times pulls *)
let instrument p s open_ =
  let n = s.node in
  let cursor = probed p s ~exact:true open_ in
  let first = ref true in
  fun () ->
    n.Node.pulls <- n.Node.pulls + 1;
    let exact = !first in
    first := false;
    let r = probed p s ~exact cursor in
    (match r with Some _ -> n.Node.produced <- n.Node.produced + 1 | None -> ());
    r

(* Run [plan] with every node's open and pulls wrapped in the probe.
   Returns the result rows plus one [Node.t] per distinct plan node, keyed
   by physical identity: plans are immutable trees, so [==] on subtrees is
   exactly node identity.  (A subtree that opens twice — e.g. the inner of
   a nested-loop re-opened — accumulates into the same record.) *)
let run_instrumented db ?counters plan =
  let counters =
    match counters with Some c -> c | None -> Counters.create ()
  in
  let stats : (Plan.t * timed) list ref = ref [] in
  let stat_of node = List.assq_opt node !stats in
  let p =
    { running = new_timed (); last = 0; timing = true; sampled = false }
  in
  let wrap node open_ =
    let s =
      match stat_of node with
      | Some s -> s
      | None ->
          let s = new_timed () in
          stats := (node, s) :: !stats;
          s
    in
    instrument p s open_
  in
  let root = open_node wrap db counters plan in
  (* the probe's cost per interval, one sample per timed root pull: the
     mean of the idle node's two intervals in it *)
  let idle = new_timed () and costs = Array.make 256 0 and ncosts = ref 0 in
  let pull_root () =
    if not p.timing then root ()
    else begin
      let before = idle.exact_ns + idle.sampled_ns in
      let r = probed p idle ~exact:false root in
      if !ncosts < Array.length costs then begin
        costs.(!ncosts) <- (idle.exact_ns + idle.sampled_ns - before) / 2;
        incr ncosts
      end;
      r
    end
  in
  let pulls = ref 0 and sampled = ref 0 in
  let rec pull_all acc =
    incr pulls;
    let late = !pulls > exact_pulls in
    p.timing <- (not late) || (!pulls - exact_pulls - 1) mod sample_every = 0;
    p.sampled <- late;
    if late && p.timing then incr sampled;
    match pull_root () with
    | Some r -> pull_all (r :: acc)
    | None -> List.rev acc
  in
  let rows = pull_all [] in
  (* the median sample, so a preempted pull does not move it *)
  let cost =
    let c = Array.sub costs 0 !ncosts in
    Array.sort Int.compare c;
    float_of_int c.(!ncosts / 2)
  in
  let scale =
    if !sampled = 0 then 0.0
    else float_of_int (!pulls - exact_pulls) /. float_of_int !sampled
  in
  let net ns reads = float_of_int ns -. (cost *. float_of_int reads) in
  (* inclusive times, bottom-up over the plan tree *)
  let rec inclusive node =
    match stat_of node with
    | None -> 0.0
    | Some s ->
        let own =
          net s.exact_ns s.exact_reads
          +. (scale *. net s.sampled_ns s.sampled_reads)
        in
        let ns =
          List.fold_left
            (fun acc child -> acc +. inclusive child)
            (Float.max 0.0 own) (Plan.children node)
        in
        s.node.Node.elapsed_s <- ns *. 1e-9;
        ns
  in
  ignore (inclusive plan : float);
  counters.Counters.rows_output <-
    counters.Counters.rows_output + List.length rows;
  (rows, List.map (fun (plan, s) -> (plan, s.node)) !stats)
