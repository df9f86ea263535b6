(* Recursive-descent parser for the SQL subset.

   The only backtracking point is the classic parenthesis ambiguity at the
   start of a predicate — "(" may open a nested predicate or a
   parenthesized scalar expression — resolved by attempting the predicate
   parse and falling back to the expression parse. *)

open Rel
open Lexer

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type state = { toks : token array; mutable pos : int }

let peek st = st.toks.(st.pos)
let peek2 st =
  if st.pos + 1 < Array.length st.toks then st.toks.(st.pos + 1) else EOF

let advance st = st.pos <- st.pos + 1

let eat st tok =
  if peek st = tok then advance st
  else
    fail "expected %s but found %s" (string_of_token tok)
      (string_of_token (peek st))

let eat_kw st kw = eat st (KW kw)

let accept st tok =
  if peek st = tok then begin
    advance st;
    true
  end
  else false

let accept_kw st kw = accept st (KW kw)

let ident st =
  match peek st with
  | IDENT s ->
      advance st;
      s
  | KW k
    when (* permit non-reserved keywords as identifiers where unambiguous *)
         List.mem k [ "DATE"; "COUNT"; "SUM"; "AVG"; "MIN"; "MAX"; "KEY";
                      "VALUES"; "CONFIDENCE"; "DAYS" ] ->
      advance st;
      String.lowercase_ascii k
  | t -> fail "expected identifier, found %s" (string_of_token t)

(* ---- scalar expressions ---------------------------------------------- *)

let parse_literal st : Value.t option =
  match peek st with
  | INT_LIT i ->
      advance st;
      Some (Value.Int i)
  | FLOAT_LIT f ->
      advance st;
      Some (Value.Float f)
  | STRING_LIT s ->
      advance st;
      Some (Value.String s)
  | KW "TRUE" ->
      advance st;
      Some (Value.Bool true)
  | KW "FALSE" ->
      advance st;
      Some (Value.Bool false)
  | KW "NULL" ->
      advance st;
      Some Value.Null
  | KW "DATE" when (match peek2 st with STRING_LIT _ -> true | _ -> false)
    -> (
      advance st;
      match peek st with
      | STRING_LIT s -> (
          advance st;
          match Date.of_string_opt s with
          | Some d -> Some (Value.Date d)
          | None -> fail "invalid DATE literal '%s'" s)
      | _ -> assert false)
  | _ -> None

let rec parse_expr st : Expr.t =
  let lhs = parse_term st in
  let rec go lhs =
    match peek st with
    | PLUS ->
        advance st;
        go (Expr.Binop (Expr.Add, lhs, parse_term st))
    | MINUS ->
        advance st;
        go (Expr.Binop (Expr.Sub, lhs, parse_term st))
    | _ -> lhs
  in
  go lhs

and parse_term st : Expr.t =
  let lhs = parse_factor st in
  let rec go lhs =
    match peek st with
    | STAR ->
        advance st;
        go (Expr.Binop (Expr.Mul, lhs, parse_factor st))
    | SLASH ->
        advance st;
        go (Expr.Binop (Expr.Div, lhs, parse_factor st))
    | _ -> lhs
  in
  go lhs

and parse_factor st : Expr.t =
  match peek st with
  | MINUS -> (
      advance st;
      (* fold unary minus into numeric literals *)
      match peek st with
      | INT_LIT i ->
          advance st;
          Expr.Const (Value.Int (-i))
      | FLOAT_LIT f ->
          advance st;
          Expr.Const (Value.Float (-.f))
      | _ -> Expr.Neg (parse_factor st))
  | _ -> parse_primary st

and parse_primary st : Expr.t =
  match parse_literal st with
  | Some v ->
      (* tolerate a unit-noise postfix: "7 DAYS" *)
      ignore (accept_kw st "DAYS");
      Expr.Const v
  | None -> (
      match peek st with
      | LPAREN ->
          advance st;
          let e = parse_expr st in
          eat st RPAREN;
          e
      | IDENT _ | KW _ ->
          let first = ident st in
          if accept st DOT then
            let second = ident st in
            Expr.Col { Expr.rel = Some first; col = second }
          else Expr.Col { Expr.rel = None; col = first }
      | t -> fail "expected expression, found %s" (string_of_token t))

(* ---- predicates -------------------------------------------------------- *)

let cmp_of_token = function
  | EQ -> Some Expr.Eq
  | NEQ -> Some Expr.Ne
  | LT -> Some Expr.Lt
  | LE -> Some Expr.Le
  | GT -> Some Expr.Gt
  | GE -> Some Expr.Ge
  | _ -> None

let rec parse_pred st : Expr.pred =
  let lhs = parse_and_pred st in
  let rec go lhs =
    if accept_kw st "OR" then go (Expr.Or (lhs, parse_and_pred st)) else lhs
  in
  go lhs

and parse_and_pred st : Expr.pred =
  let lhs = parse_not_pred st in
  let rec go lhs =
    if accept_kw st "AND" then go (Expr.And (lhs, parse_not_pred st)) else lhs
  in
  go lhs

and parse_not_pred st : Expr.pred =
  if accept_kw st "NOT" then Expr.Not (parse_not_pred st)
  else parse_primary_pred st

and parse_primary_pred st : Expr.pred =
  match peek st with
  | KW "TRUE" when not (cmp_follows st) ->
      advance st;
      Expr.Ptrue
  | KW "FALSE" when not (cmp_follows st) ->
      advance st;
      Expr.Pfalse
  | LPAREN ->
      (* try nested predicate, fall back to parenthesized expression *)
      let saved = st.pos in
      (try
         advance st;
         let p = parse_pred st in
         eat st RPAREN;
         (* a comparison operator after "(pred)" means we mis-parsed *)
         match cmp_of_token (peek st) with
         | Some _ -> raise (Parse_error "reparse as expression")
         | None -> p
       with Parse_error _ ->
         st.pos <- saved;
         parse_comparison st)
  | _ -> parse_comparison st

and cmp_follows st = cmp_of_token (peek2 st) <> None

and parse_comparison st : Expr.pred =
  let lhs = parse_expr st in
  let negated = accept_kw st "NOT" in
  let wrap p = if negated then Expr.Not p else p in
  match peek st with
  | t when cmp_of_token t <> None ->
      if negated then fail "NOT cannot precede a comparison operator";
      advance st;
      let c = Option.get (cmp_of_token t) in
      Expr.Cmp (c, lhs, parse_expr st)
  | KW "BETWEEN" ->
      advance st;
      let lo = parse_expr st in
      eat_kw st "AND";
      let hi = parse_expr st in
      wrap (Expr.Between (lhs, lo, hi))
  | KW "IN" ->
      advance st;
      eat st LPAREN;
      let rec values acc =
        match parse_literal st with
        | Some v ->
            ignore (accept_kw st "DAYS");
            if accept st COMMA then values (v :: acc)
            else begin
              eat st RPAREN;
              List.rev (v :: acc)
            end
        | None ->
            fail "IN list supports literal values only, found %s"
              (string_of_token (peek st))
      in
      wrap (Expr.In_list (lhs, values []))
  | KW "IS" ->
      if negated then fail "NOT cannot precede IS";
      advance st;
      let not_null = accept_kw st "NOT" in
      eat_kw st "NULL";
      if not_null then Expr.Is_not_null lhs else Expr.Is_null lhs
  | t ->
      fail "expected comparison after expression, found %s"
        (string_of_token t)

(* ---- SELECT ------------------------------------------------------------ *)

let agg_of_kw = function
  | "COUNT" -> Some Ast.Count
  | "SUM" -> Some Ast.Sum
  | "AVG" -> Some Ast.Avg
  | "MIN" -> Some Ast.Min
  | "MAX" -> Some Ast.Max
  | _ -> None

let parse_alias st =
  if accept_kw st "AS" then Some (ident st)
  else
    match peek st with
    | IDENT _ when peek st <> KW "FROM" -> Some (ident st)
    | _ -> None

let parse_select_item st : Ast.select_item =
  match peek st with
  | STAR ->
      advance st;
      Ast.Star
  | KW k when agg_of_kw k <> None && peek2 st = LPAREN ->
      let fn = Option.get (agg_of_kw k) in
      advance st;
      eat st LPAREN;
      let arg =
        if accept st STAR then begin
          if fn <> Ast.Count then fail "only COUNT accepts *";
          None
        end
        else Some (parse_expr st)
      in
      eat st RPAREN;
      let alias = parse_alias st in
      Ast.Aggregate (fn, arg, alias)
  | _ ->
      let e = parse_expr st in
      let alias = parse_alias st in
      Ast.Scalar (e, alias)

(* qualified names (sys.metrics) are stored dotted; the catalog treats
   the dotted string as the table name *)
let table_name st =
  let table = ident st in
  if accept st DOT then table ^ "." ^ ident st else table

let parse_table_ref st : Ast.table_ref =
  let table = table_name st in
  let alias =
    match peek st with
    | IDENT _ -> Some (ident st)
    | KW "AS" ->
        advance st;
        Some (ident st)
    | _ -> None
  in
  { Ast.table; alias }

let rec parse_select st : Ast.select =
  eat_kw st "SELECT";
  let distinct = accept_kw st "DISTINCT" in
  let rec items acc =
    let item = parse_select_item st in
    if accept st COMMA then items (item :: acc) else List.rev (item :: acc)
  in
  let items = items [] in
  eat_kw st "FROM";
  let first = parse_table_ref st in
  let rec from_tail refs join_preds =
    if accept st COMMA then
      let r = parse_table_ref st in
      from_tail (r :: refs) join_preds
    else if accept_kw st "INNER" || peek st = KW "JOIN" then begin
      eat_kw st "JOIN";
      let r = parse_table_ref st in
      eat_kw st "ON";
      let p = parse_pred st in
      from_tail (r :: refs) (p :: join_preds)
    end
    else (List.rev refs, List.rev join_preds)
  in
  let from, join_preds = from_tail [ first ] [] in
  let where =
    if accept_kw st "WHERE" then parse_pred st else Expr.Ptrue
  in
  let where = Expr.conjoin (Expr.conjuncts where @ join_preds) in
  let group_by =
    if accept_kw st "GROUP" then begin
      eat_kw st "BY";
      let rec go acc =
        let e = parse_expr st in
        if accept st COMMA then go (e :: acc) else List.rev (e :: acc)
      in
      go []
    end
    else []
  in
  let having =
    if accept_kw st "HAVING" then parse_pred st else Expr.Ptrue
  in
  let order_by =
    if accept_kw st "ORDER" then begin
      eat_kw st "BY";
      let rec go acc =
        let key = parse_expr st in
        let asc =
          if accept_kw st "DESC" then false
          else begin
            ignore (accept_kw st "ASC");
            true
          end
        in
        let item = { Ast.key; asc } in
        if accept st COMMA then go (item :: acc) else List.rev (item :: acc)
      in
      go []
    end
    else []
  in
  let limit =
    if accept_kw st "LIMIT" then
      match peek st with
      | INT_LIT n ->
          advance st;
          Some n
      | t -> fail "expected integer after LIMIT, found %s" (string_of_token t)
    else None
  in
  { Ast.distinct; items; from; where; group_by; having; order_by; limit }

and parse_query st : Ast.query =
  let parse_branch () =
    if peek st = LPAREN then begin
      advance st;
      let q = parse_query st in
      eat st RPAREN;
      q
    end
    else Ast.Select (parse_select st)
  in
  let first = parse_branch () in
  let rec go acc =
    if accept_kw st "UNION" then begin
      eat_kw st "ALL";
      go (parse_branch () :: acc)
    end
    else List.rev acc
  in
  match go [ first ] with [ q ] -> q | qs -> Ast.Union_all qs

(* ---- DDL / DML --------------------------------------------------------- *)

let parse_dtype st : Value.dtype =
  match peek st with
  | KW k -> (
      match Value.dtype_of_string k with
      | Some ty ->
          advance st;
          (* swallow optional length parameter: VARCHAR(30) *)
          if peek st = LPAREN then begin
            advance st;
            (match peek st with
            | INT_LIT _ -> advance st
            | t -> fail "expected length, found %s" (string_of_token t));
            eat st RPAREN
          end;
          ty
      | None -> fail "expected a type, found %s" k)
  | t -> fail "expected a type, found %s" (string_of_token t)

let parse_column_list st =
  eat st LPAREN;
  let rec go acc =
    let c = ident st in
    if accept st COMMA then go (c :: acc)
    else begin
      eat st RPAREN;
      List.rev (c :: acc)
    end
  in
  go []

let parse_constraint_mode st : Ast.constraint_mode =
  if accept_kw st "NOT" then begin
    eat_kw st "ENFORCED";
    Ast.Mode_informational
  end
  else if accept_kw st "INFORMATIONAL" then Ast.Mode_informational
  else if accept_kw st "SOFT" then
    if accept_kw st "CONFIDENCE" then
      match peek st with
      | FLOAT_LIT f ->
          advance st;
          Ast.Mode_soft (Some f)
      | INT_LIT i ->
          advance st;
          Ast.Mode_soft (Some (float_of_int i))
      | t -> fail "expected confidence value, found %s" (string_of_token t)
    else Ast.Mode_soft None
  else begin
    ignore (accept_kw st "ENFORCED");
    Ast.Mode_enforced
  end

let parse_constraint_body st : Icdef.body =
  if accept_kw st "PRIMARY" then begin
    eat_kw st "KEY";
    Icdef.Primary_key (parse_column_list st)
  end
  else if accept_kw st "UNIQUE" then Icdef.Unique (parse_column_list st)
  else if accept_kw st "FOREIGN" then begin
    eat_kw st "KEY";
    let columns = parse_column_list st in
    eat_kw st "REFERENCES";
    let ref_table = ident st in
    let ref_columns =
      if peek st = LPAREN then parse_column_list st else columns
    in
    Icdef.Foreign_key { columns; ref_table; ref_columns }
  end
  else if accept_kw st "CHECK" then begin
    eat st LPAREN;
    let p = parse_pred st in
    eat st RPAREN;
    Icdef.Check p
  end
  else if accept_kw st "NOT" then begin
    (* how {!Rel.Icdef.pp_body} prints a column's NOT NULL *)
    eat_kw st "NULL";
    match parse_column_list st with
    | [ c ] -> Icdef.Not_null c
    | _ -> fail "NOT NULL names one column"
  end
  else fail "expected a constraint body, found %s" (string_of_token (peek st))

let parse_table_constraint st : Ast.table_constraint =
  let con_name =
    if accept_kw st "CONSTRAINT" then Some (ident st) else None
  in
  let con_body = parse_constraint_body st in
  let con_mode = parse_constraint_mode st in
  { Ast.con_name; con_body; con_mode }

let starts_table_constraint st =
  match peek st with
  | KW ("CONSTRAINT" | "PRIMARY" | "UNIQUE" | "FOREIGN" | "CHECK") -> true
  | _ -> false

let parse_create_table st : Ast.statement =
  let name = ident st in
  eat st LPAREN;
  let cols = ref [] and cons = ref [] in
  let rec go () =
    if starts_table_constraint st then
      cons := parse_table_constraint st :: !cons
    else begin
      let col_name = ident st in
      let col_type = parse_dtype st in
      let col_not_null = ref false in
      let rec attrs () =
        if accept_kw st "NOT" then begin
          eat_kw st "NULL";
          col_not_null := true;
          attrs ()
        end
        else if accept_kw st "PRIMARY" then begin
          eat_kw st "KEY";
          cons :=
            {
              Ast.con_name = None;
              con_body = Icdef.Primary_key [ col_name ];
              con_mode = Ast.Mode_enforced;
            }
            :: !cons;
          col_not_null := true;
          attrs ()
        end
      in
      attrs ();
      cols := { Ast.col_name; col_type; col_not_null = !col_not_null } :: !cols
    end;
    if accept st COMMA then go () else eat st RPAREN
  in
  go ();
  Ast.Create_table
    { name; cols = List.rev !cols; constraints = List.rev !cons }

let parse_insert st : Ast.statement =
  eat_kw st "INTO";
  let table = table_name st in
  let columns =
    if peek st = LPAREN && peek2 st <> RPAREN then
      (* lookahead: "(" followed by VALUES keyword never happens; a column
         list is a parenthesized ident list before VALUES *)
      Some (parse_column_list st)
    else None
  in
  eat_kw st "VALUES";
  let parse_row () =
    eat st LPAREN;
    let rec go acc =
      let e = parse_expr st in
      if accept st COMMA then go (e :: acc)
      else begin
        eat st RPAREN;
        List.rev (e :: acc)
      end
    in
    go []
  in
  let rec rows acc =
    let r = parse_row () in
    if accept st COMMA then rows (r :: acc) else List.rev (r :: acc)
  in
  Ast.Insert { table; columns; rows = rows [] }

let parse_statement_inner st : Ast.statement =
  match peek st with
  | KW "SELECT" | LPAREN -> Ast.Query (parse_query st)
  | KW "EXPLAIN" ->
      advance st;
      if accept_kw st "ANALYZE" then Ast.Explain_analyze (parse_query st)
      else Ast.Explain (parse_query st)
  | KW "CREATE" -> (
      advance st;
      if accept_kw st "TABLE" then parse_create_table st
      else if accept_kw st "UNIQUE" then begin
        eat_kw st "INDEX";
        let index_name = ident st in
        eat_kw st "ON";
        let table = ident st in
        let columns = parse_column_list st in
        let online = accept_kw st "ONLINE" in
        Ast.Create_index { index_name; table; columns; unique = true; online }
      end
      else if accept_kw st "INDEX" then begin
        let index_name = ident st in
        eat_kw st "ON";
        let table = ident st in
        let columns = parse_column_list st in
        let online = accept_kw st "ONLINE" in
        Ast.Create_index { index_name; table; columns; unique = false; online }
      end
      else if accept_kw st "EXCEPTION" then begin
        eat_kw st "TABLE";
        let name = ident st in
        eat_kw st "FOR";
        eat_kw st "CONSTRAINT";
        let constraint_name = ident st in
        Ast.Create_exception_table { name; constraint_name }
      end
      else fail "expected TABLE, INDEX or EXCEPTION after CREATE")
  | KW "DROP" ->
      advance st;
      if accept_kw st "INDEX" then Ast.Drop_index (ident st)
      else begin
        eat_kw st "TABLE";
        Ast.Drop_table (ident st)
      end
  | KW "ALTER" ->
      advance st;
      eat_kw st "TABLE";
      let table = ident st in
      if accept_kw st "ADD" then
        Ast.Alter_add_constraint { table; con = parse_table_constraint st }
      else if accept_kw st "DROP" then begin
        eat_kw st "CONSTRAINT";
        Ast.Drop_constraint { table; name = ident st }
      end
      else if accept_kw st "PARTITION" then begin
        eat_kw st "BY";
        let part_column () =
          eat st LPAREN;
          let c = ident st in
          eat st RPAREN;
          c
        in
        let literal () =
          match parse_literal st with
          | Some v -> v
          | None ->
              fail "expected a literal, found %s" (string_of_token (peek st))
        in
        if accept_kw st "RANGE" then begin
          let column = part_column () in
          eat_kw st "BOUNDS";
          eat st LPAREN;
          let rec bounds acc =
            let v = literal () in
            if accept st COMMA then bounds (v :: acc)
            else begin
              eat st RPAREN;
              List.rev (v :: acc)
            end
          in
          Ast.Alter_partition_by
            { table; spec = Partition.Range { column; bounds = bounds [] } }
        end
        else if accept_kw st "HASH" then begin
          let column = part_column () in
          eat_kw st "BUCKETS";
          match peek st with
          | INT_LIT buckets ->
              advance st;
              Ast.Alter_partition_by
                { table; spec = Partition.Hash { column; buckets } }
          | t -> fail "expected a bucket count, found %s" (string_of_token t)
        end
        else fail "expected RANGE or HASH after PARTITION BY"
      end
      else fail "expected ADD, DROP or PARTITION after ALTER TABLE"
  | KW "INSERT" ->
      advance st;
      parse_insert st
  | KW "DELETE" ->
      advance st;
      eat_kw st "FROM";
      let table = table_name st in
      let where =
        if accept_kw st "WHERE" then parse_pred st else Expr.Ptrue
      in
      Ast.Delete { table; where }
  | KW "UPDATE" ->
      advance st;
      let table = table_name st in
      eat_kw st "SET";
      let rec assigns acc =
        let c = ident st in
        eat st EQ;
        let e = parse_expr st in
        if accept st COMMA then assigns ((c, e) :: acc)
        else List.rev ((c, e) :: acc)
      in
      let assignments = assigns [] in
      let where =
        if accept_kw st "WHERE" then parse_pred st else Expr.Ptrue
      in
      Ast.Update { table; assignments; where }
  | KW "RUNSTATS" ->
      advance st;
      let table =
        match peek st with
        | IDENT _ -> Some (ident st)
        | _ -> None
      in
      Ast.Runstats table
  | t -> fail "expected a statement, found %s" (string_of_token t)

let parse_statement src : Ast.statement =
  let st = { toks = Array.of_list (Lexer.tokenize src); pos = 0 } in
  let stmt = parse_statement_inner st in
  ignore (accept st SEMI);
  if peek st <> EOF then
    fail "trailing input after statement: %s" (string_of_token (peek st));
  stmt

let parse_query_string src : Ast.query =
  match parse_statement src with
  | Ast.Query q -> q
  | _ -> fail "expected a SELECT query"

let parse_script src : Ast.statement list =
  let st = { toks = Array.of_list (Lexer.tokenize src); pos = 0 } in
  let rec go acc =
    if peek st = EOF then List.rev acc
    else begin
      let stmt = parse_statement_inner st in
      ignore (accept st SEMI);
      go (stmt :: acc)
    end
  in
  go []

let parse_pred_string src : Expr.pred =
  let st = { toks = Array.of_list (Lexer.tokenize src); pos = 0 } in
  let p = parse_pred st in
  if peek st <> EOF then
    fail "trailing input after predicate: %s" (string_of_token (peek st));
  p
