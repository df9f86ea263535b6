(* Rows are immutable-by-convention arrays of values.  Most of the engine
   treats tuples as opaque; only storage mutates them in place (updates). *)

type t = Value.t array

let make = Array.of_list
let arity = Array.length
let get (t : t) i = t.(i)
let to_list = Array.to_list
let of_array (a : Value.t array) : t = a
let copy = Array.copy

(* Both are plain loops: a local recursive function would close over
   [a], [b] and [n] and allocate that closure on every call, and every
   hash-table probe and B+-tree comparison lands here. *)
let equal (a : t) (b : t) =
  let n = Array.length a in
  n = Array.length b
  &&
  let i = ref 0 in
  while !i < n && Value.equal_total a.(!i) b.(!i) do
    incr i
  done;
  !i = n

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  let n = min la lb in
  let i = ref 0 and c = ref 0 in
  while !c = 0 && !i < n do
    c := Value.compare_total a.(!i) b.(!i);
    incr i
  done;
  if !c <> 0 then !c else Int.compare la lb

let hash (t : t) =
  let h = ref 17 in
  for i = 0 to Array.length t - 1 do
    h := (!h * 31) + Value.hash (Array.unsafe_get t i)
  done;
  !h

let project (t : t) idxs = Array.map (fun i -> t.(i)) idxs

let concat (a : t) (b : t) : t = Array.append a b

(* Validate a tuple against a schema: arity, types (with int→float
   widening applied in place of the original value), and NOT NULL. *)
let conform (schema : Schema.t) (t : t) : (t, string) result =
  if arity t <> Schema.arity schema then
    Error
      (Printf.sprintf "arity mismatch: %d values for %d columns (table %s)"
         (arity t) (Schema.arity schema) schema.Schema.table)
  else
    let n = arity t in
    let out = Array.copy t in
    let rec loop i =
      if i >= n then Ok out
      else
        let c = Schema.column_at schema i in
        let v = t.(i) in
        if Value.is_null v && not c.Schema.nullable then
          Error
            (Printf.sprintf "null value for NOT NULL column %s.%s"
               schema.Schema.table c.Schema.name)
        else if not (Value.conforms c.Schema.dtype v) then
          Error
            (Printf.sprintf "type mismatch for column %s.%s: expected %s, got %s"
               schema.Schema.table c.Schema.name
               (Value.dtype_name c.Schema.dtype)
               (Value.to_debug v))
        else begin
          out.(i) <- Value.coerce c.Schema.dtype v;
          loop (i + 1)
        end
    in
    loop 0

let pp ppf t =
  Fmt.pf ppf "(%a)" (Fmt.list ~sep:(Fmt.any ", ") Value.pp) (to_list t)
