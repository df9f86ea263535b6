(* Domain constraints: per-column min/max ranges (Sybase's built-in "soft
   constraint" class, paper §2) and small value sets, expressed as CHECK
   predicates so the generic rewrite machinery can use them. *)

open Rel

type range_sc = { table : string; column : string; lo : Value.t; hi : Value.t }

type value_set_sc = { table : string; column : string; values : Value.t list }

let mine_range table ~column =
  let schema = Table.schema table in
  let pos = Schema.index_exn schema column in
  let lo = ref Value.Null and hi = ref Value.Null in
  Table.iter table ~f:(fun row ->
      let v = Tuple.get row pos in
      if not (Value.is_null v) then begin
        if Value.is_null !lo || Value.compare_total v !lo < 0 then lo := v;
        if Value.is_null !hi || Value.compare_total v !hi > 0 then hi := v
      end);
  if Value.is_null !lo then None
  else Some { table = Table.name table; column; lo = !lo; hi = !hi }

let mine_value_set ?(max_values = 16) table ~column =
  let schema = Table.schema table in
  let pos = Schema.index_exn schema column in
  let seen = Hashtbl.create 64 in
  let overflow = ref false in
  Table.iter table ~f:(fun row ->
      if not !overflow then begin
        let v = Tuple.get row pos in
        if not (Value.is_null v) then
          if not (Hashtbl.mem seen v) then begin
            Hashtbl.replace seen v ();
            if Hashtbl.length seen > max_values then overflow := true
          end
      end);
  if !overflow || Hashtbl.length seen = 0 then None
  else
    Some
      {
        table = Table.name table;
        column;
        values =
          Hashtbl.fold (fun v () acc -> v :: acc) seen []
          |> List.sort Value.compare_total;
      }

let range_to_check (r : range_sc) =
  Expr.Between (Expr.column r.column, Expr.Const r.lo, Expr.Const r.hi)

let value_set_to_check (s : value_set_sc) =
  Expr.In_list (Expr.column s.column, s.values)
