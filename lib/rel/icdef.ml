(* Integrity constraint declarations.

   [enforcement] captures the paper's spectrum (§1):
   - [Enforced]       — a normal IC, checked on every mutation;
   - [Informational]  — declared but never checked (an external promise
     holds it), still fully usable by the optimizer.

   Soft constraints (ASCs/SSCs) are *not* declared here: they live in the
   soft-constraint catalog ({!Core.Sc_catalog}) with their own lifecycle,
   but reuse [body] for their statements. *)

type enforcement = Enforced | Informational

type body =
  | Primary_key of string list
  | Unique of string list
  | Foreign_key of {
      columns : string list;
      ref_table : string;
      ref_columns : string list;
    }
  | Check of Expr.pred
  | Not_null of string

type t = {
  name : string;
  table : string;
  body : body;
  enforcement : enforcement;
}

let make ?(enforcement = Enforced) ~name ~table body =
  { name; table; body; enforcement }

let is_enforced t = t.enforcement = Enforced

let pp_body ppf = function
  | Primary_key cols ->
      Fmt.pf ppf "PRIMARY KEY (%a)" Fmt.(list ~sep:(any ", ") string) cols
  | Unique cols ->
      Fmt.pf ppf "UNIQUE (%a)" Fmt.(list ~sep:(any ", ") string) cols
  | Foreign_key { columns; ref_table; ref_columns } ->
      Fmt.pf ppf "FOREIGN KEY (%a) REFERENCES %s (%a)"
        Fmt.(list ~sep:(any ", ") string)
        columns ref_table
        Fmt.(list ~sep:(any ", ") string)
        ref_columns
  | Check p -> Fmt.pf ppf "CHECK (%a)" Expr.pp_pred p
  | Not_null c -> Fmt.pf ppf "NOT NULL (%s)" c

let pp ppf t =
  Fmt.pf ppf "CONSTRAINT %s ON %s %a%s" t.name t.table pp_body t.body
    (match t.enforcement with
    | Enforced -> ""
    | Informational -> " NOT ENFORCED (informational)")
