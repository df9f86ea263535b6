(* Connection transports: how protocol frames move.

   A connection is four closures over a frame (= one protocol line, no
   newline).  Two implementations:

   - [pipe]: a symmetric in-memory duplex built from two blocking
     queues — fully deterministic, no descriptors, no ports; the test
     harness runs many client sessions against one server inside one
     process.
   - TCP ([listen]/[accept]/[connect]): newline-delimited frames over a
     socket, for [softdb serve] and its clients.

   [send] is safe to call from any domain or thread (workers complete
   jobs concurrently and answer out of order); [recv] is meant for a
   single consumer — the connection's reader loop.  [send_frame] is the
   server's send: the caller encodes straight into the connection's one
   frame buffer, so a response costs no string of its own. *)

type t = {
  send : string -> unit;
  send_frame : (Bytes.t ref -> int) -> unit;
  recv : unit -> string option; (* None at end of stream *)
  close : unit -> unit;
}

exception Closed

(* ---- in-memory pipe ------------------------------------------------------ *)

(* One direction: a blocking unbounded queue.  Backpressure is not this
   layer's job — the scheduler's bounded queue is where the server
   pushes back (with an explicit Rejected), so a transport that
   silently stalls producers would only hide the signal. *)
(* @guarded-by srv.transport.chan *)
type chan = {
  m : Mutex.t;
  nonempty : Condition.t;
  q : string Queue.t;
  mutable closed : bool;
}

let chan () =
  {
    m = Mutex.create ();
    nonempty = Condition.create ();
    q = Queue.create ();
    closed = false;
  }

let chan_send c line =
  (* @acquires srv.transport.chan *)
  Obs.Lockdep.acquire "srv.transport.chan";
  Mutex.lock c.m;
  let closed = c.closed in
  if not closed then begin
    Queue.push line c.q;
    Condition.signal c.nonempty
  end;
  Mutex.unlock c.m;
  Obs.Lockdep.release "srv.transport.chan";
  if closed then raise Closed

let chan_recv c =
  (* @acquires srv.transport.chan *)
  Obs.Lockdep.acquire "srv.transport.chan";
  Mutex.lock c.m;
  while Queue.is_empty c.q && not c.closed do
    (* @waits srv.transport.chan *)
    Condition.wait c.nonempty c.m
  done;
  let r = if Queue.is_empty c.q then None else Some (Queue.pop c.q) in
  Mutex.unlock c.m;
  Obs.Lockdep.release "srv.transport.chan";
  r

let chan_close c =
  (* @acquires srv.transport.chan *)
  Obs.Lockdep.acquire "srv.transport.chan";
  Mutex.lock c.m;
  c.closed <- true;
  Condition.broadcast c.nonempty;
  Mutex.unlock c.m;
  Obs.Lockdep.release "srv.transport.chan"

(* A frame filled into a scratch buffer, less its newline: the pipe moves
   lines, and it is the deterministic test transport, not a hot path. *)
let chan_send_frame c fill =
  let buf = ref Bytes.empty in
  let n = fill buf in
  chan_send c (Bytes.sub_string !buf 0 (n - 1))

let pipe () =
  let c2s = chan () (* client -> server *) and s2c = chan () in
  let close () =
    chan_close c2s;
    chan_close s2c
  in
  let client =
    {
      send = chan_send c2s;
      send_frame = chan_send_frame c2s;
      recv = (fun () -> chan_recv s2c);
      close;
    }
  and server =
    {
      send = chan_send s2c;
      send_frame = chan_send_frame s2c;
      recv = (fun () -> chan_recv c2s);
      close;
    }
  in
  (client, server)

(* ---- TCP ------------------------------------------------------------------ *)

(* Frames are newline-delimited; the protocol escapes every literal
   newline inside a field, so input_line is exact framing.  Writes are
   serialized behind a per-connection mutex because responses come from
   worker domains; the same mutex owns the connection's frame buffer,
   which [send_frame] fills and writes out in place. *)
let of_fd fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let wm = Mutex.create () in
  let closed = ref false in
  let frame = ref Bytes.empty in
  let write f =
    (* @acquires srv.transport.write *)
    Obs.Lockdep.acquire "srv.transport.write";
    Mutex.lock wm;
    Fun.protect
      ~finally:(fun () ->
        Mutex.unlock wm;
        Obs.Lockdep.release "srv.transport.write")
      (fun () ->
        if !closed then raise Closed;
        try
          f ();
          flush oc
        with Sys_error _ -> raise Closed)
  in
  let send line =
    write (fun () ->
        output_string oc line;
        output_char oc '\n')
  in
  let send_frame fill =
    write (fun () ->
        let n = fill frame in
        output oc !frame 0 n)
  in
  let recv () = try Some (input_line ic) with End_of_file | Sys_error _ -> None in
  let close () =
    (* @acquires srv.transport.write *)
    Obs.Lockdep.acquire "srv.transport.write";
    Mutex.lock wm;
    if not !closed then begin
      closed := true;
      (try flush oc with Sys_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())
    end;
    Mutex.unlock wm;
    Obs.Lockdep.release "srv.transport.write"
  in
  { send; send_frame; recv; close }

type listener = { lfd : Unix.file_descr; port : int }

let listen ?(host = "127.0.0.1") ~port () =
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd addr;
  Unix.listen lfd 64;
  let port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p (* resolves port 0 to the real one *)
    | _ -> port
  in
  { lfd; port }

let port l = l.port

let accept l = of_fd (fst (Unix.accept l.lfd))

(* On Linux, closing a listening socket does not wake a thread blocked
   in [accept] on it; shutting it down first makes that [accept] fail
   with EINVAL at once. *)
let close_listener l =
  (try Unix.shutdown l.lfd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close l.lfd with Unix.Unix_error _ -> ()

let connect ?(host = "127.0.0.1") ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  of_fd fd
