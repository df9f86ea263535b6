(* A blocking protocol client over {!Srv.Transport}: one request in
   flight per connection, so every response must carry the id of the
   request just sent. *)

type t = { tr : Srv.Transport.t; mutable next_id : int }

exception Failure_reply of string

let of_transport tr = { tr; next_id = 0 }

let connect port = of_transport (Srv.Transport.connect ~port ())
let close c = try c.tr.Srv.Transport.close () with _ -> ()

let next_id c =
  c.next_id <- c.next_id + 1;
  c.next_id

let receive c =
  match c.tr.Srv.Transport.recv () with
  | None -> raise (Failure_reply "connection closed by server")
  | Some line -> line

let check_id (r : Srv.Proto.response) id =
  if r.Srv.Proto.id <> id then
    raise
      (Failure_reply
         (Printf.sprintf "response #%d for request #%d" r.Srv.Proto.id id))

(* One request, untraced. *)
let call c payload =
  let id = next_id c in
  c.tr.Srv.Transport.send (Srv.Proto.request_to_line { Srv.Proto.id; payload });
  let line = receive c in
  let r = Srv.Proto.response_of_line line in
  check_id r id;
  r.Srv.Proto.payload

(* One request with client-side spans: request encode, the send→recv
   round trip, and response decode, all under request id [req]. *)
let call_traced spans ~req c payload =
  let id = next_id c in
  let t0 = Spans.now () in
  let line_out = Srv.Proto.request_to_line { Srv.Proto.id; payload } in
  let t1 = Spans.now () in
  c.tr.Srv.Transport.send line_out;
  let line_in = receive c in
  let t2 = Spans.now () in
  let r = Srv.Proto.response_of_line line_in in
  let t3 = Spans.now () in
  check_id r id;
  let top = Spans.record spans ~req "client.request" t0 t3 in
  ignore (Spans.record spans ~req ~parent:top "client.encode" t0 t1);
  ignore (Spans.record spans ~req ~parent:top "client.round_trip" t1 t2);
  ignore (Spans.record spans ~req ~parent:top "client.decode" t2 t3);
  r.Srv.Proto.payload

(* For set-up statements: anything but a success reply aborts. *)
let must c payload =
  match call c payload with
  | Srv.Proto.Failed { message; _ } -> raise (Failure_reply message)
  | Srv.Proto.Rejected _ -> raise (Failure_reply "rejected by admission control")
  | p -> p
