(* A text codec for soft-constraint statements, used by the WAL: every
   catalog transition that installs or rewrites a statement logs its
   representation, and recovery parses it back.

   IC-shaped statements, every band among them, ride on the SQL
   printer/parser round-trip (the body is printed inside a dummy ALTER
   TABLE … ADD CONSTRAINT … NOT ENFORCED and re-parsed; a FLOAT constant
   prints with the digits that re-read it exactly).  FDs and join holes
   get positional field encodings with hexadecimal float literals ([%h]),
   so their bounds round-trip bit-exactly.  Logs written before bands were
   stored as checks spell a mined band with a [diff|] or [corr|] tag;
   both still decode, to the band's check. *)

open Rel

exception Codec_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Codec_error s)) fmt
let fstr = Printf.sprintf "%h"

let fparse s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> err "bad float %S" s

let iparse s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> err "bad int %S" s

(* dummy carrier for the SQL round-trip of IC bodies *)
let ic_repr (body : Icdef.body) =
  Sqlfe.Printer.statement_to_string
    (Sqlfe.Ast.Alter_add_constraint
       {
         table = "_codec";
         con =
           {
             Sqlfe.Ast.con_name = Some "_codec_c";
             con_body = body;
             con_mode = Sqlfe.Ast.Mode_informational;
           };
       })

let ic_parse sql =
  match Sqlfe.Parser.parse_statement sql with
  | Sqlfe.Ast.Alter_add_constraint { con = { Sqlfe.Ast.con_body; _ }; _ } ->
      con_body
  | _ -> err "not an IC statement: %s" sql
  | exception e -> err "unparseable IC statement %S (%s)" sql
                     (Printexc.to_string e)

let rect (r : Mining.Join_holes.rect) =
  Printf.sprintf "%s:%s:%s:%s" (fstr r.Mining.Join_holes.a_lo)
    (fstr r.Mining.Join_holes.a_hi) (fstr r.Mining.Join_holes.b_lo)
    (fstr r.Mining.Join_holes.b_hi)

let rect_parse s =
  match String.split_on_char ':' s with
  | [ a_lo; a_hi; b_lo; b_hi ] ->
      {
        Mining.Join_holes.a_lo = fparse a_lo;
        a_hi = fparse a_hi;
        b_lo = fparse b_lo;
        b_hi = fparse b_hi;
      }
  | _ -> err "bad hole rectangle %S" s

let semis enc xs = String.concat ";" (List.map enc xs)

let semis_parse dec s =
  if s = "" then []
  else List.map dec (String.split_on_char ';' s)

let rec statement_repr (stmt : Soft_constraint.statement) =
  match stmt with
  | Soft_constraint.Ic_stmt body -> "ic|" ^ ic_repr body
  | Soft_constraint.Fd_stmt fd ->
      String.concat "|"
        [
          "fd";
          fd.Mining.Fd_mine.table;
          String.concat "," fd.Mining.Fd_mine.lhs;
          fd.Mining.Fd_mine.rhs;
        ]
  | Soft_constraint.Holes_stmt h ->
      String.concat "|"
        [
          "holes";
          h.Mining.Join_holes.left_table;
          h.Mining.Join_holes.left_col;
          h.Mining.Join_holes.right_table;
          h.Mining.Join_holes.right_col;
          h.Mining.Join_holes.join_left;
          h.Mining.Join_holes.join_right;
          string_of_int h.Mining.Join_holes.grid;
          fstr h.Mining.Join_holes.a_min;
          fstr h.Mining.Join_holes.a_max;
          fstr h.Mining.Join_holes.b_min;
          fstr h.Mining.Join_holes.b_max;
          string_of_int h.Mining.Join_holes.join_rows;
          semis rect h.Mining.Join_holes.rects;
        ]
  (* the predicate rides the same SQL round-trip as IC bodies; it goes
     last because the SQL text may itself contain '|' *)
  | Soft_constraint.Part_stmt { partition; pred } ->
      String.concat "|"
        [ "part"; string_of_int partition; ic_repr (Icdef.Check pred) ]
  | stmt -> statement_repr (Soft_constraint.stored stmt)

(* a band of an old log's [diff|] or [corr|] line, as its check *)
let band_check band =
  Soft_constraint.Ic_stmt (Icdef.Check (Mining.Band.to_pred band))

(* the bounds of an old band field, [confidence:bound:…] *)
let band_bounds field =
  List.map fparse (List.tl (String.split_on_char ':' field))

let statement_of_repr s =
  match String.index_opt s '|' with
  | None -> err "bad statement repr %S" s
  | Some i -> (
      let tag = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match tag with
      | "ic" -> Soft_constraint.Ic_stmt (ic_parse rest)
      | "fd" -> (
          match String.split_on_char '|' rest with
          | [ table; lhs; rhs ] ->
              Soft_constraint.Fd_stmt
                {
                  Mining.Fd_mine.table;
                  lhs = String.split_on_char ',' lhs;
                  rhs;
                }
          | _ -> err "bad fd repr %S" s)
      | "diff" -> (
          match String.split_on_char '|' rest with
          | [ _table; col_hi; col_lo; _rows; _bands; band ] -> (
              match band_bounds band with
              | [ lo; hi ] ->
                  band_check
                    (Mining.Band.diff ~a:(Expr.col col_hi)
                       ~b:(Expr.col col_lo) ~lo ~hi)
              | _ -> err "bad diff band %S" s)
          | _ -> err "bad diff repr %S" s)
      | "corr" -> (
          match String.split_on_char '|' rest with
          | [ _table; col_a; col_b; k; c; _r2; _rows; _sel; _bands; band ] -> (
              match band_bounds band with
              | [ e ] ->
                  band_check
                    (Mining.Band.line ~a:(Expr.col col_a) ~b:(Expr.col col_b)
                       ~k:(fparse k) ~c:(fparse c) ~e)
              | _ -> err "bad correlation band %S" s)
          | _ -> err "bad corr repr %S" s)
      | "holes" -> (
          match String.split_on_char '|' rest with
          | [
           left_table; left_col; right_table; right_col; join_left;
           join_right; grid; a_min; a_max; b_min; b_max; join_rows; rects;
          ] ->
              Soft_constraint.Holes_stmt
                {
                  Mining.Join_holes.left_table;
                  left_col;
                  right_table;
                  right_col;
                  join_left;
                  join_right;
                  grid = iparse grid;
                  a_min = fparse a_min;
                  a_max = fparse a_max;
                  b_min = fparse b_min;
                  b_max = fparse b_max;
                  rects = semis_parse rect_parse rects;
                  join_rows = iparse join_rows;
                }
          | _ -> err "bad holes repr %S" s)
      | "part" -> (
          match String.index_opt rest '|' with
          | None -> err "bad part repr %S" s
          | Some j -> (
              let partition = iparse (String.sub rest 0 j) in
              let sql = String.sub rest (j + 1) (String.length rest - j - 1) in
              match ic_parse sql with
              | Icdef.Check pred ->
                  Soft_constraint.Part_stmt { partition; pred }
              | _ -> err "part statement is not a check predicate %S" s))
      | _ -> err "unknown statement tag %S" tag)
