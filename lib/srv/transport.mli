(** Connection transports: how protocol frames move.

    A frame is one protocol line (no newline).  [send] may be called
    from any domain or thread — workers answer out of order — while
    [recv] expects a single consumer, the connection's reader loop. *)

type t = {
  send : string -> unit;  (** Raises {!Closed} on a closed connection. *)
  send_frame : (Bytes.t ref -> int) -> unit;
      (** [send_frame fill]: [fill buf] writes one newline-terminated
          frame at the start of [!buf], growing it as
          {!Rel.Wal.Writer.frame} does, and returns its length.  Over
          TCP, [buf] is the connection's one frame buffer, filled and
          written under the write lock; the pipe fills a scratch
          buffer.  Raises {!Closed} like [send]. *)
  recv : unit -> string option;  (** [None] at end of stream. *)
  close : unit -> unit;  (** Idempotent. *)
}

exception Closed

val pipe : unit -> t * t
(** An in-memory duplex: [(client_end, server_end)].  Deterministic, no
    descriptors — the concurrency tests run whole client/server
    topologies in one process with it.  Closing either end closes
    both. *)

(** {1 TCP} *)

type listener

val listen : ?host:string -> port:int -> unit -> listener
(** Bind and listen (default host 127.0.0.1).  [port 0] picks an
    ephemeral port; read it back with {!port}. *)

val port : listener -> int
val accept : listener -> t
val close_listener : listener -> unit
(** Also wakes a thread blocked in {!accept} on it, which then raises
    [Unix_error (EINVAL | EBADF, _, _)]. *)

val connect : ?host:string -> port:int -> unit -> t
