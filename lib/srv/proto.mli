(** The softdb wire protocol: framed text, one message per line.

    The codec follows the WAL file format (and reuses its field
    primitives): tab-separated fields, backslash-escaped strings, hex
    floats — so every message round-trips exactly,
    [request_of_line (request_to_line r) = r], and captured traffic
    stays inspectable with standard tools.

    Every request carries a client-chosen correlation id echoed by its
    response; responses on one connection may arrive out of request
    order (admitted requests execute on a worker pool), so the id — not
    arrival order — is the correlation. *)

open Rel

type request_payload =
  | Hello of { client : string }
      (** Names the session; answered with {!Hello_ok}. *)
  | Statement of string  (** Any SQL statement, including EXPLAIN. *)
  | Prepare of { handle : string; sql : string }
      (** Bind a session-local handle to a shared cached plan. *)
  | Execute of { handle : string }
  | Begin_txn
  | Commit_txn
  | Rollback_txn
  | Set of { key : string; value : string }
      (** Session settings; "deadline_ms" bounds each request. *)
  | Cancel of { target : int }
      (** Cancel the queued request with id [target]; handled inline. *)
  | Ping  (** Handled inline; never queues. *)
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
  | Explained of string  (** a rendered plan report / analysis *)
  | Failed of { code : error_code; message : string }
  | Rejected of { retry_after_ms : int }
      (** Admission control: the job queue is full — back off and
          retry. *)
  | Pong
  | Bye

type response = { id : int; payload : response_payload }

exception Protocol_error of string

val request_to_line : request -> string
(** One line, no trailing newline. *)

val request_of_line : string -> request
(** Raises {!Protocol_error} on corrupt input. *)

val response_to_line : response -> string

val response_frame : Bytes.t ref -> response -> int
(** [response_to_line r ^ "\n"], written at the start of [!buf] (grown
    as {!Rel.Wal.Writer.frame} grows it); returns the frame's length. *)

val response_of_line : string -> response
(** Raises {!Protocol_error} on corrupt input. *)

val pp_error_code : Format.formatter -> error_code -> unit
val pp_request : Format.formatter -> request -> unit
val pp_response : Format.formatter -> response -> unit
