(* Tracing for the traced run: spans recorded around the benchmark's own
   calls into each layer, kept in memory and written out when the run
   ends.  Spans of one request share its id; [parent] names the span
   that caused this one (0 for a request's outermost span). *)

let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

type span = {
  req : int;
  id : int;
  parent : int;
  name : string;
  start : float;  (** seconds, monotonic clock *)
  stop : float;
}

(* One recorder per recording domain, so recording takes no lock. *)
type t = { mutable spans : span list; mutable next_id : int }

let create () = { spans = []; next_id = 1 }

let record t ~req ?(parent = 0) name start stop =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.spans <- { req; id; parent; name; start; stop } :: t.spans;
  id

(* Time [f ()] as a span and return its result. *)
let with_span t ~req name f =
  let t0 = now () in
  let r = f () in
  ignore (record t ~req name t0 (now ()));
  r

let all ts = List.concat_map (fun t -> List.rev t.spans) ts

let durations_ms spans name =
  List.filter_map
    (fun s -> if s.name = name then Some ((s.stop -. s.start) *. 1000.0) else None)
    spans

let write path spans =
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "req\tid\tparent\tname\tstart_s\tduration_ms\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%d\t%d\t%s\t%.9f\t%.6f\n" s.req s.id s.parent
            s.name s.start
            ((s.stop -. s.start) *. 1000.0))
        spans)

(* ---- arithmetic the per-layer report rests on -------------------------- *)

(* Self time of every node of a tree given in preorder as
   (depth, elapsed): the node's elapsed time minus its direct children's,
   since each child's elapsed time already includes its own subtree. *)
let self_times nodes =
  let a = Array.of_list nodes in
  let n = Array.length a in
  Array.to_list
    (Array.mapi
       (fun i (depth, elapsed) ->
         let children = ref 0.0 in
         let j = ref (i + 1) in
         while !j < n && fst a.(!j) > depth do
           if fst a.(!j) = depth + 1 then children := !children +. snd a.(!j);
           incr j
         done;
         elapsed -. !children)
       a)

(* The part of the client-observed round trip that no replayed layer
   accounts for.  Negative when the replayed layers take longer in
   isolation than the whole request does on the server. *)
let unaccounted ~round_trip_ms layer_ms =
  round_trip_ms -. List.fold_left ( +. ) 0.0 layer_ms
