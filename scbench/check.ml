(* Answer checks: full multiset comparison against the SC-free oracle
   where it is affordable (once per distinct statement, outside the timed
   window), and a cheap order-independent digest for every timed
   response. *)

let row_key (row : Rel.Tuple.t) =
  String.concat "\t" (Array.to_list (Array.map Rel.Wal.value_to_field row))

let same_rows a b =
  List.length a = List.length b
  && List.sort String.compare (List.map row_key a)
     = List.sort String.compare (List.map row_key b)

(* Row count and the sum of the leading integer column. *)
type digest = int * int

let digest (rows : Rel.Tuple.t list) : digest =
  List.fold_left
    (fun (n, s) (row : Rel.Tuple.t) ->
      match row.(0) with
      | Rel.Value.Int i -> (n + 1, s + i)
      | _ -> (n + 1, s))
    (0, 0) rows

let rows_of = function
  | Srv.Proto.Result_set { rows; _ } -> Some rows
  | _ -> None
