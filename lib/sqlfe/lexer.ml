(* Hand-written SQL lexer.  Keywords are case-insensitive; identifiers keep
   their spelling.  String literals use single quotes with '' escaping.
   [DATE 'yyyy-mm-dd'] is lexed as keyword DATE + string and assembled by
   the parser. *)

type token =
  | IDENT of string
  | INT_LIT of int
  | FLOAT_LIT of float
  | STRING_LIT of string
  | KW of string (* uppercase keyword *)
  | LPAREN
  | RPAREN
  | COMMA
  | DOT
  | SEMI
  | STAR
  | PLUS
  | MINUS
  | SLASH
  | EQ
  | NEQ
  | LT
  | LE
  | GT
  | GE
  | EOF

let keywords =
  [
    "SELECT"; "FROM"; "WHERE"; "GROUP"; "ORDER"; "BY"; "HAVING"; "AS";
    "AND"; "OR"; "NOT"; "BETWEEN"; "IN"; "IS"; "NULL"; "LIKE"; "DISTINCT";
    "UNION"; "ALL"; "LIMIT"; "ASC"; "DESC"; "JOIN"; "INNER"; "ON";
    "CREATE"; "TABLE"; "INDEX"; "UNIQUE"; "DROP"; "ALTER"; "ADD";
    "CONSTRAINT"; "PRIMARY"; "KEY"; "FOREIGN"; "REFERENCES"; "CHECK";
    "INSERT"; "INTO"; "VALUES"; "DELETE"; "UPDATE"; "SET";
    "INT"; "INTEGER"; "FLOAT"; "DOUBLE"; "REAL"; "VARCHAR"; "CHAR";
    "TEXT"; "BOOLEAN"; "BOOL"; "DATE"; "TRUE"; "FALSE";
    "ENFORCED"; "INFORMATIONAL"; "SOFT"; "CONFIDENCE"; "EXCEPTION"; "FOR";
    "COUNT"; "SUM"; "AVG"; "MIN"; "MAX"; "VIEW"; "DAYS"; "EXPLAIN"; "RUNSTATS";
    "ANALYZE"; "PARTITION"; "RANGE"; "HASH"; "BOUNDS"; "BUCKETS"; "ONLINE";
  ]

module Keywords = Set.Make (String)

let keyword_set = Keywords.of_list keywords

exception Lex_error of string * int (* message, position *)

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

let lex_ident st =
  let start = st.pos in
  let rec go () =
    match peek st with
    | Some c when is_ident_char c ->
        advance st;
        go ()
    | _ -> ()
  in
  go ();
  let text = String.sub st.src start (st.pos - start) in
  let upper = String.uppercase_ascii text in
  if Keywords.mem upper keyword_set then KW upper else IDENT text

let lex_number st =
  let start = st.pos in
  let seen_dot = ref false in
  let seen_exp = ref false in
  let rec go () =
    match peek st with
    | Some c when is_digit c ->
        advance st;
        go ()
    | Some '.' when not !seen_dot && not !seen_exp ->
        (* only a fraction if a digit follows; "1." alone is an error,
           "BETWEEN 1 AND 2" style never reaches here with '.' *)
        if
          st.pos + 1 < String.length st.src && is_digit st.src.[st.pos + 1]
        then begin
          seen_dot := true;
          advance st;
          go ()
        end
    | Some ('e' | 'E') when not !seen_exp ->
        if
          st.pos + 1 < String.length st.src
          && (is_digit st.src.[st.pos + 1]
             || ((st.src.[st.pos + 1] = '+' || st.src.[st.pos + 1] = '-')
                && st.pos + 2 < String.length st.src
                && is_digit st.src.[st.pos + 2]))
        then begin
          seen_exp := true;
          advance st;
          (match peek st with
          | Some ('+' | '-') -> advance st
          | _ -> ());
          go ()
        end
    | _ -> ()
  in
  go ();
  let text = String.sub st.src start (st.pos - start) in
  if !seen_dot || !seen_exp then FLOAT_LIT (float_of_string text)
  else INT_LIT (int_of_string text)

let lex_string st =
  advance st;
  (* opening quote *)
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> raise (Lex_error ("unterminated string literal", st.pos))
    | Some '\'' ->
        advance st;
        if peek st = Some '\'' then begin
          Buffer.add_char buf '\'';
          advance st;
          go ()
        end
    | Some c ->
        Buffer.add_char buf c;
        advance st;
        go ()
  in
  go ();
  STRING_LIT (Buffer.contents buf)

let rec skip_ws_and_comments st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws_and_comments st
  | Some '-'
    when st.pos + 1 < String.length st.src && st.src.[st.pos + 1] = '-' ->
      let rec to_eol () =
        match peek st with
        | Some '\n' | None -> ()
        | Some _ ->
            advance st;
            to_eol ()
      in
      to_eol ();
      skip_ws_and_comments st
  | _ -> ()

let next_token st =
  skip_ws_and_comments st;
  match peek st with
  | None -> EOF
  | Some c ->
      if is_ident_start c then lex_ident st
      else if is_digit c then lex_number st
      else if c = '\'' then lex_string st
      else begin
        advance st;
        match c with
        | '(' -> LPAREN
        | ')' -> RPAREN
        | ',' -> COMMA
        | '.' -> DOT
        | ';' -> SEMI
        | '*' -> STAR
        | '+' -> PLUS
        | '-' -> MINUS
        | '/' -> SLASH
        | '=' -> EQ
        | '<' -> (
            match peek st with
            | Some '=' ->
                advance st;
                LE
            | Some '>' ->
                advance st;
                NEQ
            | _ -> LT)
        | '>' -> (
            match peek st with
            | Some '=' ->
                advance st;
                GE
            | _ -> GT)
        | '!' -> (
            match peek st with
            | Some '=' ->
                advance st;
                NEQ
            | _ -> raise (Lex_error ("unexpected '!'", st.pos)))
        | c ->
            raise
              (Lex_error (Printf.sprintf "unexpected character %C" c, st.pos))
      end

let tokenize src =
  let st = { src; pos = 0 } in
  let rec go acc =
    match next_token st with
    | EOF -> List.rev (EOF :: acc)
    | tok -> go (tok :: acc)
  in
  go []

let string_of_token = function
  | IDENT s -> Printf.sprintf "identifier %s" s
  | INT_LIT i -> string_of_int i
  | FLOAT_LIT f -> string_of_float f
  | STRING_LIT s -> Printf.sprintf "'%s'" s
  | KW k -> k
  | LPAREN -> "("
  | RPAREN -> ")"
  | COMMA -> ","
  | DOT -> "."
  | SEMI -> ";"
  | STAR -> "*"
  | PLUS -> "+"
  | MINUS -> "-"
  | SLASH -> "/"
  | EQ -> "="
  | NEQ -> "<>"
  | LT -> "<"
  | LE -> "<="
  | GT -> ">"
  | GE -> ">="
  | EOF -> "<eof>"
