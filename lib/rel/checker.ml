(* Enforcement of integrity constraints on mutations.

   The checker is deliberately decoupled from the catalog: it receives an
   [env] of lookup callbacks, so {!Database} can wire it to live tables and
   indexes while tests can drive it with stubs.  Informational constraints
   (paper §1) are skipped here by construction — callers filter on
   {!Icdef.is_enforced} — but {!verify} ignores enforcement so that the
   soft-constraint facility can validate *any* statement against the data. *)

type env = {
  find_table : string -> Table.t option;
  (* a unique/pk lookup accelerator: given table and columns, an index *)
  find_index : string -> string list -> Index.t option;
}

type violation = { constraint_name : string; reason : string }

let violation name fmt =
  Printf.ksprintf (fun reason -> { constraint_name = name; reason }) fmt

let pp_violation ppf v =
  Fmt.pf ppf "constraint %s violated: %s" v.constraint_name v.reason

exception Constraint_violation of violation

let key_values schema row cols =
  List.map (fun c -> Tuple.get row (Schema.index_exn schema c)) cols

(* Does [table] contain a row (other than [exclude]) whose [cols] equal
   [vals]?  Uses an index when available. *)
let exists_with_key env table cols vals ?exclude () =
  match env.find_index (Table.name table) cols with
  | Some idx ->
      (* a posting's rids are distinct: two hold one besides [exclude] *)
      let p = Index.lookup idx (Tuple.make vals) in
      p.(0) > 1 || (p.(0) = 1 && Some p.(1) <> exclude)
  | None ->
      let schema = Table.schema table in
      let found = ref false in
      Table.iteri table ~f:(fun rid row ->
          if (not !found) && Some rid <> exclude then
            let vs = key_values schema row cols in
            if List.for_all2 Value.equal_total vs vals then found := true);
      !found

(* --- per-constraint checks on a candidate row ------------------------- *)

let check_key_like env ~kind ic table cols row ?exclude () =
  let schema = Table.schema table in
  let vals = key_values schema row cols in
  let any_null = List.exists Value.is_null vals in
  if any_null then
    if kind = `Primary then
      Some (violation ic.Icdef.name "primary key column is NULL")
    else None (* SQL UNIQUE ignores rows with NULL key parts *)
  else if exists_with_key env table cols vals ?exclude () then
    Some
      (violation ic.Icdef.name "duplicate key (%s)"
         (String.concat ", " (List.map Value.to_debug vals)))
  else None

let check_foreign_key env ic ~columns ~ref_table ~ref_columns table row =
  let schema = Table.schema table in
  let vals = key_values schema row columns in
  if List.exists Value.is_null vals then None (* SQL: null FK passes *)
  else
    match env.find_table ref_table with
    | None ->
        Some (violation ic.Icdef.name "referenced table %s missing" ref_table)
    | Some parent ->
        if exists_with_key env parent ref_columns vals () then None
        else
          Some
            (violation ic.Icdef.name
               "no row in %s with (%s) = (%s)" ref_table
               (String.concat ", " ref_columns)
               (String.concat ", " (List.map Value.to_debug vals)))

let check_row env ic table row ?exclude () =
  let schema = Table.schema table in
  match ic.Icdef.body with
  | Icdef.Primary_key cols ->
      check_key_like env ~kind:`Primary ic table cols row ?exclude ()
  | Icdef.Unique cols ->
      check_key_like env ~kind:`Unique ic table cols row ?exclude ()
  | Icdef.Foreign_key { columns; ref_table; ref_columns } ->
      check_foreign_key env ic ~columns ~ref_table ~ref_columns table row
  | Icdef.Check p ->
      if Expr.check_violated (Expr.Binding.of_schema schema) p row then
        Some
          (violation ic.Icdef.name "CHECK (%s) is false for row %s"
             (Expr.to_string_pred p)
             (Fmt.str "%a" Tuple.pp row))
      else None
  | Icdef.Not_null c ->
      let v = Tuple.get row (Schema.index_exn schema c) in
      if Value.is_null v then
        Some (violation ic.Icdef.name "column %s is NULL" c)
      else None

(* A delete from (or key-update of) a parent table must not strand child
   rows of any enforced FK pointing at it. *)
let check_no_dangling_children env ~all_constraints ~parent row =
  let parent_name = Table.name parent in
  let parent_schema = Table.schema parent in
  let offending = ref None in
  List.iter
    (fun ic ->
      if !offending = None && Icdef.is_enforced ic then
        match ic.Icdef.body with
        | Icdef.Foreign_key { columns; ref_table; ref_columns }
          when String.lowercase_ascii ref_table
               = String.lowercase_ascii parent_name -> (
            let vals = key_values parent_schema row ref_columns in
            if not (List.exists Value.is_null vals) then
              match env.find_table ic.Icdef.table with
              | None -> ()
              | Some child ->
                  if exists_with_key env child columns vals () then
                    offending :=
                      Some
                        (violation ic.Icdef.name
                           "rows in %s still reference key (%s)"
                           ic.Icdef.table
                           (String.concat ", "
                              (List.map Value.to_debug vals))))
        | Icdef.Primary_key _ | Icdef.Unique _ | Icdef.Foreign_key _
        | Icdef.Check _ | Icdef.Not_null _ ->
            ())
    all_constraints;
  !offending

(* --- bulk verification (ignores enforcement mode) ---------------------- *)

(* Return every (rid, violation) pair for [ic] over the current state.
   Used to validate candidate soft constraints and to (re)build exception
   tables.  For key-like constraints this reports *all* members of each
   duplicate group beyond the first. *)
let verify env ic =
  match env.find_table ic.Icdef.table with
  | None -> []
  | Some table -> (
      let schema = Table.schema table in
      match ic.Icdef.body with
      | Icdef.Primary_key cols | Icdef.Unique cols ->
          let seen = Hashtbl.create 256 in
          Table.fold table ~init:[] ~f:(fun acc rid row ->
              let vals = key_values schema row cols in
              if List.exists Value.is_null vals then
                if ic.Icdef.body = Icdef.Primary_key cols then
                  (rid, violation ic.Icdef.name "primary key column is NULL")
                  :: acc
                else acc
              else
                let key = Tuple.make vals in
                if Hashtbl.mem seen key then
                  (rid, violation ic.Icdef.name "duplicate key") :: acc
                else begin
                  Hashtbl.add seen key ();
                  acc
                end)
          |> List.rev
      | Icdef.Foreign_key { columns; ref_table; ref_columns } ->
          Table.fold table ~init:[] ~f:(fun acc rid row ->
              match
                check_foreign_key env ic ~columns ~ref_table ~ref_columns
                  table row
              with
              | Some v -> (rid, v) :: acc
              | None -> acc)
          |> List.rev
      | Icdef.Check p ->
          let binding = Expr.Binding.of_schema schema in
          Table.fold table ~init:[] ~f:(fun acc rid row ->
              if Expr.check_violated binding p row then
                (rid, violation ic.Icdef.name "check is false") :: acc
              else acc)
          |> List.rev
      | Icdef.Not_null c ->
          let pos = Schema.index_exn schema c in
          Table.fold table ~init:[] ~f:(fun acc rid row ->
              if Value.is_null (Tuple.get row pos) then
                (rid, violation ic.Icdef.name "column %s is NULL" c) :: acc
              else acc)
          |> List.rev)

let holds env ic = verify env ic = []

let violation_count env ic = List.length (verify env ic)
