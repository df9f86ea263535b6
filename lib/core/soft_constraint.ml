(* Soft constraints: IC-shaped statements that are *not* enforced but are
   exploitable by the optimizer (the paper's central construct).

   A soft constraint couples
   - a [statement] (any IC body — every band, declared or mined, is a
     CHECK — or one of the typed mined artifacts: FDs, join-hole sets,
     partition domains);
   - a [kind]: [Absolute] (no violations in the current state; usable in
     rewrite) or [Statistical conf] (holds for a [conf] fraction; usable
     in cardinality estimation only);
   - a [state] in the lifecycle the paper sketches in §3.2/§4.1:
     [Probation] (installed but not yet trusted), [Active],
     [Violated] (an update broke an ASC; unusable until repaired),
     [Dropped]. *)

open Rel

type statement =
  | Ic_stmt of Icdef.body
  | Fd_stmt of Mining.Fd_mine.fd
  | Diff_stmt of Mining.Diff_band.t * Mining.Diff_band.band
  | Holes_stmt of Mining.Join_holes.t
  | Part_stmt of { partition : int; pred : Expr.pred }

(* [Diff_stmt] is an install-time spelling only: stored, it is its
   check *)
let stored = function
  | Diff_stmt (d, band) ->
      Ic_stmt (Icdef.Check (Mining.Diff_band.to_check_pred d band))
  | s -> s

type kind = Absolute | Statistical of float

type state = Probation | Active | Violated | Dropped

(* @guarded-by db.rwlock — like the catalog that owns it; kind updates
   from the read path serialize behind core.recalibration *)
type t = {
  name : string;
  table : string; (* primary table (left table for hole sets) *)
  mutable statement : statement; (* sync repair widens it in place *)
  mutable kind : kind;
  mutable state : state;
  mutable installed_at_mutations : int;
      (* the table's mutation counter when (re)validated: the currency
         anchor of §3.3 *)
  mutable violation_count : int; (* observed since installation *)
}

let make ~name ~table ?(kind = Absolute) ?(state = Active)
    ~installed_at_mutations statement =
  {
    name;
    table;
    statement = stored statement;
    kind;
    state;
    installed_at_mutations;
    violation_count = 0;
  }

let is_usable t = t.state = Active

let is_absolute t = match t.kind with Absolute -> true | Statistical _ -> false

let confidence t =
  match t.kind with Absolute -> 1.0 | Statistical c -> c

(* The statement as a CHECK-style predicate over one row of [table], when
   it has one (FDs and hole sets are not row-local). *)
let check_pred t =
  match t.statement with
  | Ic_stmt (Icdef.Check p) -> Some p
  | Ic_stmt (Icdef.Not_null c) -> Some (Expr.Is_not_null (Expr.column c))
  | Ic_stmt (Icdef.Primary_key _ | Icdef.Unique _ | Icdef.Foreign_key _) ->
      None
  | Fd_stmt _ | Holes_stmt _ -> None
  (* partition-conditional, not a table-wide row check: rows of sibling
     partitions need not satisfy it (see {!Maintenance.row_violates}) *)
  | Part_stmt _ -> None
  | Diff_stmt (d, band) -> Some (Mining.Diff_band.to_check_pred d band)

(* As an IC declaration (for feeding the rewrite context's ASC set). *)
let to_icdef t =
  match t.statement with
  | Ic_stmt body ->
      Some (Icdef.make ~enforcement:Icdef.Informational ~name:t.name
              ~table:t.table body)
  | _ -> None

let rec pp_statement ppf = function
  | Ic_stmt body -> Icdef.pp_body ppf body
  | Fd_stmt fd -> Mining.Fd_mine.pp_fd ppf fd
  | Diff_stmt _ as s -> pp_statement ppf (stored s)
  | Holes_stmt h -> Mining.Join_holes.pp ppf h
  | Part_stmt { partition; pred } ->
      Fmt.pf ppf "partition %d: %s" partition (Expr.to_string_pred pred)

let state_to_string = function
  | Probation -> "probation"
  | Active -> "active"
  | Violated -> "violated"
  | Dropped -> "dropped"

let state_of_string = function
  | "probation" -> Some Probation
  | "active" -> Some Active
  | "violated" -> Some Violated
  | "dropped" -> Some Dropped
  | _ -> None

let pp_state ppf s = Fmt.string ppf (state_to_string s)

let pp ppf t =
  Fmt.pf ppf "%s on %s: %a [%s, %a]" t.name t.table pp_statement t.statement
    (match t.kind with
    | Absolute -> "ASC"
    | Statistical c -> Printf.sprintf "SSC %.1f%%" (100.0 *. c))
    pp_state t.state
