(* Mining partition-domain statements: per-segment characterizations of
   the partition column, tightened against the segment's actual rows.

   The routing constraint ({!Rel.Partition.constraint_pred}) is implied
   by the partitioning itself and holds forever; what makes a
   partition-domain SC interesting to the optimizer is the *gap* between
   the declared bound and the data — a segment declared [0, 1000) whose
   rows all fall in [0, 120] contradicts many more query predicates than
   its declaration does.  So the miner scans each segment's members and
   emits the observed [min, max] of the partition column as a BETWEEN
   statement.  Like every mined SC, the statement is absolute *now* and
   overturnable later: an out-of-band insert into the gap flips it to
   Violated and any plan guarded on it falls back.

   Hash segments get the same treatment — a hash bucket has no interval
   shape by declaration, so a mined band is the only interval knowledge
   the optimizer can ever have about it. *)

open Rel

type candidate = {
  partition : int;
  pred : Expr.pred;  (** over the partition column, unqualified *)
  seg_rows : int;  (** segment size when mined *)
}

(* Observed [min, max] of the partition column over one segment, NULLs
   skipped (a NULL routes structurally and satisfies no interval; CHECK
   semantics pass it through as UNKNOWN). *)
let segment_band tbl col_index part i =
  List.fold_left
    (fun acc rid ->
      match Table.get tbl rid with
      | None -> acc
      | Some row ->
          let v = Tuple.get row col_index in
          if Value.is_null v then acc
          else
            match acc with
            | None -> Some (v, v)
            | Some (lo, hi) ->
                Some
                  ( (if Value.compare_total v lo < 0 then v else lo),
                    if Value.compare_total v hi > 0 then v else hi ))
    None
    (Partition.members part i)

let domains db ~table =
  match Database.partitioning db table with
  | None -> []
  | Some part ->
      let tbl = Database.table_exn db table in
      let col = Partition.column part in
      let col_index = Schema.index_exn (Table.schema tbl) col in
      let cands = ref [] in
      for i = Partition.count part - 1 downto 0 do
        match segment_band tbl col_index part i with
        | None -> () (* empty, or all-NULL: nothing to tighten *)
        | Some (lo, hi) ->
            cands :=
              {
                partition = i;
                pred =
                  Expr.Between (Expr.column col, Expr.const lo, Expr.const hi);
                seg_rows = Partition.rows part i;
              }
              :: !cands
      done;
      !cands
