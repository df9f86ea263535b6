(* Convenience façade over {!Operators}: run a physical plan and package
   the rows with their column layout for display and comparison. *)

open Rel

type result = {
  columns : string list;
  rows : Tuple.t list;
  counters : Operators.Counters.t;
}

let column_names db plan =
  Plan.binding db plan |> Array.to_list
  |> List.map (fun s -> s.Expr.Binding.name)

let run db plan =
  let counters = Operators.Counters.create () in
  let rows = Operators.run db ~counters plan in
  { columns = column_names db plan; rows; counters }

(* Order-insensitive multiset equality of results: the soundness oracle
   for rewrite property tests. *)
let same_rows a b =
  let sort rows = List.sort Tuple.compare rows in
  List.length a.rows = List.length b.rows
  && List.for_all2 Tuple.equal (sort a.rows) (sort b.rows)

let pp_result ppf r =
  Fmt.pf ppf "%a@." Fmt.(list ~sep:(any " | ") string) r.columns;
  List.iter (fun row -> Fmt.pf ppf "%a@." Tuple.pp row) r.rows;
  Fmt.pf ppf "(%d rows; %a)@." (List.length r.rows) Operators.Counters.pp
    r.counters

let to_string r = Fmt.str "%a" pp_result r
