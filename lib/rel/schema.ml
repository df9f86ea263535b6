(* Table schemas: ordered, named, typed columns. *)

type column = { name : string; dtype : Value.dtype; nullable : bool }

type t = { table : string; columns : column array }

let column ?(nullable = true) name dtype = { name; dtype; nullable }

let make table columns =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun c ->
      let key = String.lowercase_ascii c.name in
      if Hashtbl.mem seen key then
        invalid_arg (Printf.sprintf "Schema.make: duplicate column %s" c.name);
      Hashtbl.add seen key ())
    columns;
  { table; columns = Array.of_list columns }

let arity t = Array.length t.columns
let columns t = Array.to_list t.columns
let column_at t i = t.columns.(i)
let column_names t = Array.to_list (Array.map (fun c -> c.name) t.columns)

let find_index t name =
  let lname = String.lowercase_ascii name in
  let n = Array.length t.columns in
  let rec loop i =
    if i >= n then None
    else if String.lowercase_ascii t.columns.(i).name = lname then Some i
    else loop (i + 1)
  in
  loop 0

let index_exn t name =
  match find_index t name with
  | Some i -> i
  | None ->
      invalid_arg
        (Printf.sprintf "Schema: no column %s in table %s" name t.table)

let pp ppf t =
  Fmt.pf ppf "%s(%a)" t.table
    (Fmt.list ~sep:(Fmt.any ", ") (fun ppf c ->
         Fmt.pf ppf "%s %s%s" c.name
           (Value.dtype_name c.dtype)
           (if c.nullable then "" else " NOT NULL")))
    (columns t)
