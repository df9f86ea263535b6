(* The softdb wire protocol: framed text, one message per line.

   The codec mirrors the WAL's file format (lib/rel/wal) on purpose, and
   reuses its line writer and reader: tab-separated fields, strings
   backslash-escaped so a field can never contain a literal tab or
   newline, floats in hex ("%h") so every value round-trips exactly.
   Like the WAL, a text format keeps captured traffic inspectable with
   standard tools — and lets the round-trip property be tested exactly
   ([request_of_line (request_to_line r) = r], same for responses).

   Every request carries a client-chosen correlation id; the response
   echoes it.  Responses to one connection may arrive out of request
   order (the server executes admitted requests on a worker pool), so
   the id — not arrival order — is the correlation.  Cancel and Ping are
   handled inline by the connection handler and never queue. *)

open Rel

type request_payload =
  | Hello of { client : string }
  | Statement of string (* any SQL statement, including EXPLAIN *)
  | Prepare of { handle : string; sql : string }
  | Execute of { handle : string }
  | Begin_txn
  | Commit_txn
  | Rollback_txn
  | Set of { key : string; value : string }
  | Cancel of { target : int }
  | Ping
  | Quit

type request = { id : int; payload : request_payload }

type error_code =
  | Parse_error
  | Exec_error
  | Txn_error
  | Deadline_exceeded
  | Cancelled
  | Session_closed
  | Shutting_down

type response_payload =
  | Hello_ok of { session : int }
  | Ok_msg of string
  | Result_set of { columns : string list; rows : Value.t array list }
  | Affected of int
  | Explained of string (* a rendered plan report / analysis *)
  | Failed of { code : error_code; message : string }
  | Rejected of { retry_after_ms : int }
  | Pong
  | Bye

type response = { id : int; payload : response_payload }

exception Protocol_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Protocol_error s)) fmt

(* ---- framing (the WAL's line codec) -------------------------------------- *)

(* Frames are made by {!Wal.Writer} — one pass, no field list — and
   taken by {!Wal.Reader}, a cursor over the line.  Neither keeps a
   buffer between calls; [response_frame] writes into the caller's.  A
   per-domain buffer would not be safe: the connection reader loops are
   systhreads sharing the main domain, each encoding its own inline
   replies, and a thread switch mid-frame would leave two of them
   writing into one buffer. *)

module W = Wal.Writer
module R = Wal.Reader

let decode what take line =
  let r = R.of_string line in
  try
    let v = take r in
    R.finish r;
    v
  with Wal.Wal_error m | Protocol_error m -> error "bad %s frame: %s" what m

(* ---- requests ------------------------------------------------------------ *)

let put_request w ({ id; payload } : request) =
  W.tagged_int w 'Q' id;
  match payload with
  | Hello { client } ->
      W.raw w "hello";
      W.string w client
  | Statement sql ->
      W.raw w "stmt";
      W.string w sql
  | Prepare { handle; sql } ->
      W.raw w "prepare";
      W.string w handle;
      W.string w sql
  | Execute { handle } ->
      W.raw w "execute";
      W.string w handle
  | Begin_txn -> W.raw w "begin"
  | Commit_txn -> W.raw w "commit"
  | Rollback_txn -> W.raw w "rollback"
  | Set { key; value } ->
      W.raw w "set";
      W.string w key;
      W.string w value
  | Cancel { target } ->
      W.raw w "cancel";
      W.int w target
  | Ping -> W.raw w "ping"
  | Quit -> W.raw w "quit"

let request_to_line r = W.to_string (fun w -> put_request w r)

(* Fields are read in line order, so every read is let-bound. *)
let take_request r : request =
  let id = R.tagged_int r 'Q' in
  let payload =
    match R.raw r with
    | "hello" -> Hello { client = R.string r }
    | "stmt" -> Statement (R.string r)
    | "prepare" ->
        let handle = R.string r in
        Prepare { handle; sql = R.string r }
    | "execute" -> Execute { handle = R.string r }
    | "begin" -> Begin_txn
    | "commit" -> Commit_txn
    | "rollback" -> Rollback_txn
    | "set" ->
        let key = R.string r in
        Set { key; value = R.string r }
    | "cancel" -> Cancel { target = R.int r }
    | "ping" -> Ping
    | "quit" -> Quit
    | verb -> error "unknown verb %S" verb
  in
  { id; payload }

let request_of_line = decode "request" take_request

(* ---- responses ----------------------------------------------------------- *)

let code_to_field = function
  | Parse_error -> "parse"
  | Exec_error -> "exec"
  | Txn_error -> "txn"
  | Deadline_exceeded -> "deadline"
  | Cancelled -> "cancelled"
  | Session_closed -> "closed"
  | Shutting_down -> "shutdown"

let code_of_field = function
  | "parse" -> Parse_error
  | "exec" -> Exec_error
  | "txn" -> Txn_error
  | "deadline" -> Deadline_exceeded
  | "cancelled" -> Cancelled
  | "closed" -> Session_closed
  | "shutdown" -> Shutting_down
  | s -> error "bad error code %S" s

(* Result sets flatten into one line: column count, column names, row
   count, then each row as arity-prefixed value fields — the same
   count-prefixed shape the WAL uses for tuples. *)
let put_response w ({ id; payload } : response) =
  W.tagged_int w 'R' id;
  match payload with
  | Hello_ok { session } ->
      W.raw w "hello";
      W.int w session
  | Ok_msg m ->
      W.raw w "ok";
      W.string w m
  | Result_set { columns; rows } ->
      W.raw w "rows";
      W.int w (List.length columns);
      List.iter (W.string w) columns;
      W.int w (List.length rows);
      List.iter (W.row w) rows
  | Affected n ->
      W.raw w "affected";
      W.int w n
  | Explained text ->
      W.raw w "explained";
      W.string w text
  | Failed { code; message } ->
      W.raw w "error";
      W.raw w (code_to_field code);
      W.string w message
  | Rejected { retry_after_ms } ->
      W.raw w "rejected";
      W.int w retry_after_ms
  | Pong -> W.raw w "pong"
  | Bye -> W.raw w "bye"

let response_to_line r = W.to_string (fun w -> put_response w r)
let response_frame buf r = W.frame buf (fun w -> put_response w r)

let count r what =
  let n = R.int r in
  if n < 0 then error "negative %s count %d" what n;
  n

let take_list take r n =
  let rec go n acc =
    if n = 0 then List.rev acc else go (n - 1) (take r :: acc)
  in
  go n []

let take_response r : response =
  let id = R.tagged_int r 'R' in
  let payload =
    match R.raw r with
    | "hello" -> Hello_ok { session = R.int r }
    | "ok" -> Ok_msg (R.string r)
    | "rows" ->
        let columns = take_list R.string r (count r "column") in
        let rows = take_list R.row r (count r "row") in
        Result_set { columns; rows }
    | "affected" -> Affected (R.int r)
    | "explained" -> Explained (R.string r)
    | "error" ->
        let code = code_of_field (R.raw r) in
        Failed { code; message = R.string r }
    | "rejected" -> Rejected { retry_after_ms = R.int r }
    | "pong" -> Pong
    | "bye" -> Bye
    | verb -> error "unknown verb %S" verb
  in
  { id; payload }

let response_of_line = decode "response" take_response

(* ---- pretty-printing ------------------------------------------------------ *)

let pp_error_code ppf c = Fmt.string ppf (code_to_field c)

let pp_request ppf ({ id; payload } : request) =
  match payload with
  | Hello { client } -> Fmt.pf ppf "#%d hello %s" id client
  | Statement sql -> Fmt.pf ppf "#%d stmt %s" id sql
  | Prepare { handle; sql } -> Fmt.pf ppf "#%d prepare %s: %s" id handle sql
  | Execute { handle } -> Fmt.pf ppf "#%d execute %s" id handle
  | Begin_txn -> Fmt.pf ppf "#%d begin" id
  | Commit_txn -> Fmt.pf ppf "#%d commit" id
  | Rollback_txn -> Fmt.pf ppf "#%d rollback" id
  | Set { key; value } -> Fmt.pf ppf "#%d set %s=%s" id key value
  | Cancel { target } -> Fmt.pf ppf "#%d cancel #%d" id target
  | Ping -> Fmt.pf ppf "#%d ping" id
  | Quit -> Fmt.pf ppf "#%d quit" id

let pp_response ppf ({ id; payload } : response) =
  match payload with
  | Hello_ok { session } -> Fmt.pf ppf "#%d session %d" id session
  | Ok_msg m -> Fmt.pf ppf "#%d ok %s" id m
  | Result_set { columns; rows } ->
      Fmt.pf ppf "#%d rows %d x %d" id (List.length rows)
        (List.length columns)
  | Affected n -> Fmt.pf ppf "#%d affected %d" id n
  | Explained _ -> Fmt.pf ppf "#%d explained" id
  | Failed { code; message } ->
      Fmt.pf ppf "#%d error [%a] %s" id pp_error_code code message
  | Rejected { retry_after_ms } ->
      Fmt.pf ppf "#%d rejected retry-after=%dms" id retry_after_ms
  | Pong -> Fmt.pf ppf "#%d pong" id
  | Bye -> Fmt.pf ppf "#%d bye" id
